//! Tokenizer for the pipeline command language.
//!
//! Token classes: bare words, single- or double-quoted strings (with `\`
//! escapes), and the operators `|` (stage separator), `>` (redirection /
//! channel tap, as in the Unix shell's "n>" syntax that §5 compares the
//! channel-identifier scheme to), `@`, and `=` (directives).

use eden_core::{EdenError, Result};

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Token {
    /// A bare word or quoted string.
    Word(String),
    /// `|`
    Pipe,
    /// `>`
    Redirect,
    /// `@`
    At,
    /// `=`
    Equals,
}

/// Tokenize a command line.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' => {
                chars.next();
            }
            '|' => {
                chars.next();
                tokens.push(Token::Pipe);
            }
            '>' => {
                chars.next();
                tokens.push(Token::Redirect);
            }
            '@' => {
                chars.next();
                tokens.push(Token::At);
            }
            '=' => {
                chars.next();
                tokens.push(Token::Equals);
            }
            '#' => break, // Comment to end of line.
            '\'' | '"' => {
                let quote = c;
                chars.next();
                let mut word = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some(escaped) => word.push(escaped),
                            None => {
                                return Err(EdenError::BadParameter(
                                    "dangling escape at end of input".into(),
                                ))
                            }
                        },
                        Some(ch) if ch == quote => break,
                        Some(ch) => word.push(ch),
                        None => {
                            return Err(EdenError::BadParameter(format!(
                                "unterminated {quote}-quoted string"
                            )))
                        }
                    }
                }
                tokens.push(Token::Word(word));
            }
            _ => {
                let mut word = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() || matches!(ch, '|' | '>' | '@' | '=' | '#') {
                        break;
                    }
                    word.push(ch);
                    chars.next();
                }
                tokens.push(Token::Word(word));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(tokens: &[Token]) -> Vec<&str> {
        tokens
            .iter()
            .filter_map(|t| match t {
                Token::Word(w) => Some(w.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn splits_words_and_operators() {
        let t = tokenize("seq 5 | grep x").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Word("seq".into()),
                Token::Word("5".into()),
                Token::Pipe,
                Token::Word("grep".into()),
                Token::Word("x".into()),
            ]
        );
    }

    #[test]
    fn quotes_preserve_spaces_and_operators() {
        let t = tokenize(r#"lines 'a b' "c|d" 'e\'f'"#).unwrap();
        assert_eq!(words(&t), vec!["lines", "a b", "c|d", "e'f"]);
    }

    #[test]
    fn directives_tokenize() {
        let t = tokenize("@batch=4 seq 1").unwrap();
        assert_eq!(t[0], Token::At);
        assert_eq!(t[2], Token::Equals);
    }

    #[test]
    fn redirect_and_comment() {
        let t = tokenize("seq 2 | tee Copy>win # trailing comment").unwrap();
        assert!(t.contains(&Token::Redirect));
        assert!(!words(&t).iter().any(|w| w.contains("comment")));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(tokenize("lines 'oops").is_err());
        assert!(tokenize(r"lines 'oops\").is_err());
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(tokenize("   # just a comment").unwrap().is_empty());
    }
}
