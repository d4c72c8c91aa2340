//! A small glob-style pattern matcher for the filter library.
//!
//! §3: "a more useful program is one which deletes all lines matching a
//! pattern given as an argument." The 1983 toolbox would have used
//! ed-style patterns; we provide globs — `*` (any substring), `?` (any one
//! character), everything else literal — which are expressive enough for
//! all the paper's examples without pulling in a regex dependency. A glob is
//! compiled once and matched where the line lies, without allocating; with
//! no wildcard in it that is `==` / `str::contains`.

/// A compiled glob pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    tokens: Vec<Token>,
    /// The glob's text when it has no wildcard, which makes matching `==`
    /// and grep `str::contains`.
    literal: Option<String>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    /// A literal character.
    Literal(char),
    /// `?`: exactly one character.
    AnyOne,
    /// `*`: zero or more characters.
    AnyMany,
}

impl Pattern {
    /// Compile a glob. Never fails: every string is a valid glob.
    pub fn compile(pattern: &str) -> Pattern {
        let mut tokens = Vec::with_capacity(pattern.len());
        for c in pattern.chars() {
            match c {
                '?' => tokens.push(Token::AnyOne),
                '*' => {
                    // Collapse runs of `*`.
                    if tokens.last() != Some(&Token::AnyMany) {
                        tokens.push(Token::AnyMany);
                    }
                }
                other => tokens.push(Token::Literal(other)),
            }
        }
        let literal = (!pattern.contains(['*', '?'])).then(|| pattern.to_owned());
        Pattern { tokens, literal }
    }

    /// Whether the whole of `text` matches the pattern.
    pub fn matches(&self, text: &str) -> bool {
        match &self.literal {
            Some(literal) => text == literal,
            None => self.glob(text, false),
        }
    }

    /// Whether any substring of `text` matches (grep semantics): the
    /// pattern as if wrapped in `*...*`.
    pub fn contained_in(&self, text: &str) -> bool {
        match &self.literal {
            Some(literal) => text.contains(literal.as_str()),
            None => self.glob(text, true),
        }
    }

    /// Iterative-with-backtracking glob match (the classic two-pointer
    /// algorithm, recursion-free so pathological patterns cannot overflow
    /// the stack). It walks `text` by byte offset, a character at a time;
    /// `anywhere` implies a `*` before the first token and after the last.
    fn glob(&self, text: &str, anywhere: bool) -> bool {
        let tokens = &self.tokens;
        let (mut ti, mut ci) = (0, 0);
        // (token after the last `*`, offset in `text` it resumes from)
        let mut star = anywhere.then_some((0, 0));
        loop {
            let next = text[ci..].chars().next();
            if ti < tokens.len() {
                match (&tokens[ti], next) {
                    (Token::AnyMany, _) => {
                        star = Some((ti + 1, ci));
                        ti += 1;
                        continue;
                    }
                    (Token::AnyOne, Some(c)) => {
                        ti += 1;
                        ci += c.len_utf8();
                        continue;
                    }
                    (Token::Literal(l), Some(c)) if c == *l => {
                        ti += 1;
                        ci += c.len_utf8();
                        continue;
                    }
                    _ => {}
                }
            } else if anywhere || next.is_none() {
                return true;
            }
            // Mismatch: backtrack to the last `*`, consuming one more char.
            match star {
                Some((next_ti, star_ci)) if star_ci < text.len() => {
                    ti = next_ti;
                    ci = star_ci + text[star_ci..].chars().next().map_or(0, char::len_utf8);
                    star = Some((next_ti, ci));
                }
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        let p = Pattern::compile("hello");
        assert!(p.matches("hello"));
        assert!(!p.matches("hello!"));
        assert!(!p.matches("hell"));
    }

    #[test]
    fn question_mark() {
        let p = Pattern::compile("h?llo");
        assert!(p.matches("hello"));
        assert!(p.matches("hallo"));
        assert!(!p.matches("hllo"));
    }

    #[test]
    fn star_matches_any_run() {
        let p = Pattern::compile("a*b");
        assert!(p.matches("ab"));
        assert!(p.matches("axxxb"));
        assert!(!p.matches("axxx"));
        assert!(Pattern::compile("*").matches(""));
        assert!(Pattern::compile("*").matches("anything"));
    }

    #[test]
    fn star_backtracking() {
        assert!(Pattern::compile("a*b*c").matches("aXbYbZc"));
        assert!(!Pattern::compile("a*b*c").matches("aXbYbZ"));
    }

    #[test]
    fn collapsed_stars() {
        assert_eq!(Pattern::compile("a**b"), Pattern::compile("a*b"));
    }

    #[test]
    fn contained_in_is_grep() {
        let p = Pattern::compile("err?r");
        assert!(p.contained_in("an error occurred"));
        assert!(!p.contained_in("all fine"));
        // Already-anchored patterns are unchanged by wrapping.
        assert!(Pattern::compile("*x*").contained_in("axb"));
    }

    #[test]
    fn pathological_pattern_terminates() {
        let p = Pattern::compile("*a*a*a*a*a*a*a*a*b");
        assert!(!p.matches(&"a".repeat(200)));
    }

    #[test]
    fn unicode_safe() {
        assert!(Pattern::compile("gr?ß").matches("grüß"));
        assert!(Pattern::compile("*ß").contained_in("straße x"));
    }
}
