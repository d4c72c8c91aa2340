//! Seeded input generation. The program under test sees only what these
//! functions return; the same seed gives the same inputs.

use eden_core::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derive an independent seed for one use (`salt`) inside one run.
pub fn derive(seed: u64, salt: u64) -> u64 {
    // SplitMix64's finaliser over the pair: adjacent seeds and salts land
    // far apart.
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` integer records drawn from the seed.
pub fn ints(n: usize, seed: u64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Value::Int(rng.gen_range(0..1_000_000_000i64)))
        .collect()
}

/// `n` consecutive integers from a seeded base: distinct, so a lost record
/// and a duplicated one are told apart.
pub fn distinct_ints(n: usize, seed: u64) -> Vec<i64> {
    let base = StdRng::seed_from_u64(seed).gen_range(0..1_000_000_000i64);
    (0..n as i64).map(|i| base + i).collect()
}

const VOCAB: [&str; 24] = [
    "the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "bird", "flew", "high", "over", "tree",
    "river", "stone", "cloud", "wind", "light", "dark", "morning", "evening", "quick", "brown",
    "lazy",
];

/// `n` lines of 3 to 9 vocabulary words (about 30 bytes each). Roughly a
/// fifth contain `lazy`, the word `pipe-bulk` greps out.
pub fn prose(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let words = rng.gen_range(3..=9);
            let mut line = String::new();
            for w in 0..words {
                if w > 0 {
                    line.push(' ');
                }
                line.push_str(VOCAB[rng.gen_range(0..VOCAB.len())]);
            }
            line
        })
        .collect()
}

/// `n` uniformly drawn indices below `bound`.
pub fn indices(n: usize, bound: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..bound as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(ints(50, 7), ints(50, 7));
        assert_ne!(ints(50, 7), ints(50, 8));
        assert_eq!(prose(50, 7), prose(50, 7));
        assert_ne!(prose(50, 7), prose(50, 8));
        assert_ne!(distinct_ints(5, 1), distinct_ints(5, 2));
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert!(indices(100, 10, 3).iter().all(|&i| i < 10));
    }
}
