//! Algebraic laws of the filter library, checked with proptest.

use eden_core::Value;
use eden_filters::{
    CaseFold, Grep, Head, LineNumber, Pattern, RleDecode, RleEncode, SortLines, SqueezeBlank,
    StripComments, Tail, Uniq,
};
use eden_transput::transform::{apply_offline, Transform};
use proptest::prelude::*;

fn lines_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[ -~]{0,30}", 0..40)
}

fn to_values(lines: &[String]) -> Vec<Value> {
    lines.iter().map(|l| Value::str(l.clone())).collect()
}

fn primary(t: &mut dyn Transform, input: Vec<Value>) -> Vec<Value> {
    apply_offline(t, input).0
}

/// The oracle for [`Pattern`]: the glob matcher as it was before patterns
/// were compiled once — collect the line's characters, then the two-pointer
/// walk over `*` (any run), `?` (any one) and literals. `contained` wraps
/// the glob in `*…*` first.
fn oracle_glob(pattern: &str, text: &str, contained: bool) -> bool {
    let wrapped = if contained { format!("*{pattern}*") } else { pattern.to_owned() };
    let mut tokens: Vec<char> = Vec::new();
    for c in wrapped.chars() {
        if c != '*' || tokens.last() != Some(&'*') {
            tokens.push(c);
        }
    }
    let chars: Vec<char> = text.chars().collect();
    let (mut ti, mut ci) = (0, 0);
    let mut star: Option<(usize, usize)> = None;
    loop {
        if ti < tokens.len() {
            match tokens[ti] {
                '*' => {
                    star = Some((ti + 1, ci));
                    ti += 1;
                    continue;
                }
                t if ci < chars.len() && (t == '?' || t == chars[ci]) => {
                    ti += 1;
                    ci += 1;
                    continue;
                }
                _ => {}
            }
        } else if ci == chars.len() {
            return true;
        }
        match star {
            Some((next_ti, star_ci)) if star_ci < chars.len() => {
                (ti, ci) = (next_ti, star_ci + 1);
                star = Some((next_ti, star_ci + 1));
            }
            _ => return false,
        }
    }
}

fn assert_matches_as_the_oracle_does(pat: &str, text: &str) {
    let p = Pattern::compile(pat);
    assert_eq!(p.matches(text), oracle_glob(pat, text, false), "{pat:?} matches {text:?}");
    assert_eq!(p.contained_in(text), oracle_glob(pat, text, true), "{pat:?} in {text:?}");
}

/// Both folds of `line` are `str`'s, and a line that is already folded is
/// passed on as the record it came in, not rebuilt.
fn assert_folds_as_str_does(line: &str) {
    for (mut t, want) in [
        (CaseFold::upper(), line.to_uppercase()),
        (CaseFold::lower(), line.to_lowercase()),
    ] {
        let input = Value::str(line);
        let out = primary(&mut t, vec![input.clone()]).remove(0);
        assert_eq!(out.as_str().unwrap(), want, "{line:?}");
        let same = out.as_text().unwrap().ptr_eq(input.as_text().unwrap());
        assert_eq!(same, want == line, "{line:?} -> {want:?}");
    }
}

// `ß` grows when folded, `ǆ` has a title case between its two folds, `Σ`
// lowers to `ς` at the end of a word and `İ` to two characters.
#[test]
fn case_fold_hard_cases() {
    for line in ["", "straße", "ǆ ǅ Ǆ", "ΟΔΟΣ", "ὈΔΥΣΣΕΎΣ ΟΔΟΣ.", "İi", "UPPER 7", "lower 7"] {
        assert_folds_as_str_does(line);
    }
}

proptest! {
    // A small alphabet, so that globs do match: wildcards, runs of them,
    // one- and multi-byte literals.
    #[test]
    fn compiled_pattern_agrees_with_the_collecting_matcher(
        pat in "[ab*?ßλ]{0,7}",
        text in "[abßλ神]{0,12}",
    ) {
        assert_matches_as_the_oracle_does(&pat, &text);
    }

    // No wildcard: the `==` / `str::contains` arm, the empty glob included.
    #[test]
    fn compiled_literal_agrees_with_the_collecting_matcher(
        pat in "[abß]{0,3}",
        text in "[abß]{0,10}",
    ) {
        assert_matches_as_the_oracle_does(&pat, &text);
    }

    #[test]
    fn case_fold_is_str_case_folding(line in "[a-cA-C ßǆǅΟΔΣσςİé5.]{0,12}") {
        assert_folds_as_str_does(&line);
    }

    #[test]
    fn line_number_is_the_format_and_survives_a_restore(
        lines in lines_strategy(),
        start in 999_990u64..1_000_000,
        cut in 0usize..40,
    ) {
        let cut = cut.min(lines.len());
        let at = |next: u64| Value::record([("next", Value::Int(next as i64))]);
        let mut first = LineNumber::new();
        first.restore(&at(start)).unwrap();
        let mut got = primary(&mut first, to_values(&lines[..cut]));
        // A second life picks the count up from the first one's state.
        let mut second = LineNumber::new();
        second.restore(&first.state().unwrap()).unwrap();
        got.extend(primary(&mut second, to_values(&lines[cut..])));
        let want: Vec<String> =
            lines.iter().zip(start..).map(|(line, n)| format!("{n:>6}  {line}")).collect();
        prop_assert_eq!(got, to_values(&want));
    }

    #[test]
    fn grep_is_idempotent(lines in lines_strategy(), pat in "[a-z]{1,4}") {
        let once = primary(&mut Grep::matching(&pat), to_values(&lines));
        let twice = primary(&mut Grep::matching(&pat), once.clone());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn grep_keep_and_delete_partition(lines in lines_strategy(), pat in "[a-z]{1,4}") {
        let kept = primary(&mut Grep::matching(&pat), to_values(&lines));
        let deleted = primary(&mut Grep::deleting(&pat), to_values(&lines));
        prop_assert_eq!(kept.len() + deleted.len(), lines.len());
    }

    #[test]
    fn strip_comments_idempotent(lines in lines_strategy()) {
        let once = primary(&mut StripComments::fortran(), to_values(&lines));
        let twice = primary(&mut StripComments::fortran(), once.clone());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn sort_output_is_sorted_permutation(lines in lines_strategy()) {
        let out = primary(&mut SortLines::new(), to_values(&lines));
        prop_assert_eq!(out.len(), lines.len());
        let strs: Vec<&str> = out.iter().map(|v| v.as_str().unwrap()).collect();
        prop_assert!(strs.windows(2).all(|w| w[0] <= w[1]));
        let mut expected: Vec<String> = lines.clone();
        expected.sort();
        let got: Vec<String> = strs.iter().map(|s| s.to_string()).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn sort_is_idempotent(lines in lines_strategy()) {
        let once = primary(&mut SortLines::new(), to_values(&lines));
        let twice = primary(&mut SortLines::new(), once.clone());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn uniq_never_adjacent_duplicates(lines in lines_strategy()) {
        let out = primary(&mut Uniq::new(), to_values(&lines));
        prop_assert!(out.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn rle_roundtrips(lines in proptest::collection::vec("[ab]{0,2}", 0..60)) {
        // Small alphabet to force runs.
        let input = to_values(&lines);
        let encoded = primary(&mut RleEncode::new(), input.clone());
        let decoded = primary(&mut RleDecode::new(), encoded.clone());
        prop_assert_eq!(decoded, input.clone());
        // Encoding never lengthens a stream (runs only shrink it).
        prop_assert!(encoded.len() <= input.len().max(1));
    }

    #[test]
    fn head_tail_bounds(lines in lines_strategy(), n in 0u64..10) {
        let head = primary(&mut Head::new(n), to_values(&lines));
        prop_assert!(head.len() <= n as usize);
        prop_assert_eq!(head.len(), (n as usize).min(lines.len()));
        let tail = primary(&mut Tail::new(n as usize), to_values(&lines));
        prop_assert_eq!(tail.len(), (n as usize).min(lines.len()));
    }

    #[test]
    fn head_is_prefix_tail_is_suffix(lines in lines_strategy(), n in 0u64..10) {
        let input = to_values(&lines);
        let head = primary(&mut Head::new(n), input.clone());
        prop_assert_eq!(&input[..head.len()], head.as_slice());
        let tail = primary(&mut Tail::new(n as usize), input.clone());
        prop_assert_eq!(&input[input.len() - tail.len()..], tail.as_slice());
    }

    #[test]
    fn case_fold_round_stability(lines in lines_strategy()) {
        // upper then upper == upper (idempotence of each fold).
        let up = primary(&mut CaseFold::upper(), to_values(&lines));
        let up2 = primary(&mut CaseFold::upper(), up.clone());
        prop_assert_eq!(up, up2);
    }

    #[test]
    fn squeeze_blank_removes_all_blanks(lines in lines_strategy()) {
        let out = primary(&mut SqueezeBlank, to_values(&lines));
        prop_assert!(out.iter().all(|v| !v.as_str().unwrap().trim().is_empty()));
    }

    #[test]
    fn pattern_literal_matches_itself(s in "[a-zA-Z0-9 ]{0,20}") {
        prop_assert!(Pattern::compile(&s).matches(&s));
    }

    #[test]
    fn pattern_star_prefix_suffix(s in "[a-z]{1,10}") {
        let (head, tail) = s.split_at(s.len() / 2);
        let prefix_pat = format!("{head}*");
        let suffix_pat = format!("*{tail}");
        let wrapped = format!("xx{s}yy");
        prop_assert!(Pattern::compile(&prefix_pat).matches(&s));
        prop_assert!(Pattern::compile(&suffix_pat).matches(&s));
        prop_assert!(Pattern::compile(&s).contained_in(&wrapped));
    }

    #[test]
    fn pattern_never_panics(pat in ".{0,20}", text in ".{0,40}") {
        let p = Pattern::compile(&pat);
        let _ = p.matches(&text);
        let _ = p.contained_in(&text);
    }
}
