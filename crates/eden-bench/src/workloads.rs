//! Synthetic workloads.
//!
//! The paper has no published traces (its evaluation is analytic), so the
//! workloads are synthetic text in the spirit of its examples: prose with
//! misspellings, fixed-width lines, integer record streams. Everything is
//! seeded and deterministic.

use eden_core::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Words used to build prose lines.
const VOCAB: [&str; 24] = [
    "the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "bird", "flew", "high", "over", "tree",
    "river", "stone", "cloud", "wind", "light", "dark", "morning", "evening", "quick", "brown",
    "lazy",
];

/// Deterministic prose: `n` lines of 3–9 vocabulary words. Roughly one
/// line in `typo_every` contains a misspelled word (vowels doubled).
pub(crate) fn prose(n: usize, typo_every: usize, seed: u64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let words = rng.gen_range(3..=9);
            let mut line = String::new();
            for w in 0..words {
                if w > 0 {
                    line.push(' ');
                }
                let mut word = VOCAB[rng.gen_range(0..VOCAB.len())].to_owned();
                if typo_every > 0 && i % typo_every == 0 && w == 0 {
                    word = word.replace(['a', 'e', 'i', 'o', 'u'], "ee");
                }
                line.push_str(&word);
            }
            Value::str(line)
        })
        .collect()
}

/// The spell-check dictionary matching [`prose`]'s vocabulary.
pub(crate) fn dictionary() -> Vec<&'static str> {
    VOCAB.to_vec()
}

/// A stream of integer records.
pub(crate) fn ints(n: i64) -> Vec<Value> {
    (0..n).map(Value::Int).collect()
}

/// Text lines of a fixed byte width (for byte-volume experiments).
pub(crate) fn sized_lines(n: usize, width: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            let mut s = format!("{i:08}:");
            while s.len() < width {
                s.push('x');
            }
            s.truncate(width.max(1));
            Value::str(s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prose_is_deterministic() {
        assert_eq!(prose(10, 3, 42), prose(10, 3, 42));
        assert_ne!(prose(10, 3, 42), prose(10, 3, 43));
    }

    #[test]
    fn prose_contains_typos() {
        let lines = prose(30, 3, 7);
        let typos = lines
            .iter()
            .filter(|l| {
                l.as_str()
                    .unwrap()
                    .split(' ')
                    .any(|w| w.contains("ee") && !VOCAB.contains(&w))
            })
            .count();
        assert!(typos > 0);
    }

    #[test]
    fn sized_lines_have_width() {
        for l in sized_lines(5, 64) {
            assert_eq!(l.as_str().unwrap().len(), 64);
        }
    }
}
