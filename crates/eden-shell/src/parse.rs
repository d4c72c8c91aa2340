//! Parser: tokens → [`CommandSpec`].
//!
//! Grammar (see the crate docs for the language reference):
//!
//! ```text
//! pipeline   := directive* source stage* sinkspec?
//! directive  := '@' WORD '=' WORD
//! source     := WORD arg*                 (seq / lines / file / unix)
//! stage      := '|' WORD (arg | tap)*
//! tap        := WORD '>' WORD             (channel > window)
//! sinkspec   := '>' ('file' | 'unix') WORD
//! ```

use std::collections::BTreeMap;

use eden_core::{EdenError, Result};

use crate::token::{tokenize, Token};

/// Where the pipeline reads from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// `lines "a" "b" ...` — inline text records.
    Lines(Vec<String>),
    /// `seq N` — the integers 0..N.
    Seq(i64),
    /// `file NAME` — open the named file (via the environment's directory).
    File(String),
    /// `unix PATH` — `NewStream` on the environment's UnixFs Eject.
    Unix(String),
    /// `merge NAME...` — concatenate several named files (§5 fan-in).
    Merge(Vec<String>),
    /// `zip NAME NAME...` — tuple-merge several named files (comparators).
    Zip(Vec<String>),
    /// `dir` — the attached directory's listing, as a stream (§2).
    Dir,
}

/// A channel tap: read the named channel of this stage into a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapSpec {
    /// The channel name (e.g. `Report`).
    pub(crate) channel: String,
    /// The window (named collector) to show it in.
    pub(crate) window: String,
}

/// One filter stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    /// Filter name (resolved by `eden_filters::make_filter`).
    pub(crate) name: String,
    /// String arguments.
    pub(crate) args: Vec<String>,
    /// Channel taps on this stage.
    pub(crate) taps: Vec<TapSpec>,
}

/// Where the primary output goes, besides the shell's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkSpec {
    /// `> file NAME` — WriteFrom into the named file Eject.
    File(String),
    /// `> unix PATH` — UseStream into the host filing system.
    Unix(String),
}

/// A parsed pipeline command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandSpec {
    /// `@key=value` directives (discipline, batch, readahead, ...).
    pub(crate) directives: BTreeMap<String, String>,
    /// The source.
    pub(crate) source: SourceSpec,
    /// The filter stages, in order.
    pub(crate) stages: Vec<StageSpec>,
    /// Optional final redirection.
    pub(crate) sink: Option<SinkSpec>,
}

/// Parse a command line.
pub fn parse(input: &str) -> Result<CommandSpec> {
    let tokens = tokenize(input)?;
    Parser { tokens, pos: 0 }.pipeline()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_word(&mut self, what: &str) -> Result<String> {
        match self.next() {
            Some(Token::Word(w)) => Ok(w),
            other => Err(EdenError::BadParameter(format!(
                "expected {what}, got {other:?}"
            ))),
        }
    }

    fn pipeline(&mut self) -> Result<CommandSpec> {
        let mut directives = BTreeMap::new();
        while self.peek() == Some(&Token::At) {
            self.next();
            let key = self.expect_word("directive name")?;
            if self.next() != Some(Token::Equals) {
                return Err(EdenError::BadParameter(format!(
                    "directive @{key} needs `=value`"
                )));
            }
            let value = self.expect_word("directive value")?;
            directives.insert(key, value);
        }
        let source = self.source()?;
        let mut stages = Vec::new();
        let mut sink = None;
        loop {
            match self.next() {
                None => break,
                Some(Token::Pipe) => stages.push(self.stage()?),
                Some(Token::Redirect) => {
                    sink = Some(self.sink()?);
                    if self.peek().is_some() {
                        return Err(EdenError::BadParameter(
                            "output redirection must be last".into(),
                        ));
                    }
                    break;
                }
                Some(other) => {
                    return Err(EdenError::BadParameter(format!(
                        "expected `|` or `>`, got {other:?}"
                    )))
                }
            }
        }
        Ok(CommandSpec {
            directives,
            source,
            stages,
            sink,
        })
    }

    fn source(&mut self) -> Result<SourceSpec> {
        let kind = self.expect_word("source kind (lines/seq/file/unix)")?;
        match kind.as_str() {
            "lines" => {
                let mut lines = Vec::new();
                while let Some(Token::Word(_)) = self.peek() {
                    lines.push(self.expect_word("line")?);
                }
                Ok(SourceSpec::Lines(lines))
            }
            "seq" => {
                let n = self.expect_word("count")?;
                let n: i64 = n
                    .parse()
                    .map_err(|_| EdenError::BadParameter(format!("seq: bad count `{n}`")))?;
                Ok(SourceSpec::Seq(n))
            }
            "file" => Ok(SourceSpec::File(self.expect_word("file name")?)),
            "unix" => Ok(SourceSpec::Unix(self.expect_word("path")?)),
            "dir" => Ok(SourceSpec::Dir),
            "merge" | "zip" => {
                let mut names = Vec::new();
                while let Some(Token::Word(_)) = self.peek() {
                    names.push(self.expect_word("file name")?);
                }
                if names.is_empty() {
                    return Err(EdenError::BadParameter(format!(
                        "{kind}: need at least one file name"
                    )));
                }
                Ok(if kind == "merge" {
                    SourceSpec::Merge(names)
                } else {
                    SourceSpec::Zip(names)
                })
            }
            other => Err(EdenError::BadParameter(format!(
                "unknown source kind `{other}` (want lines/seq/file/unix/merge/zip)"
            ))),
        }
    }

    fn stage(&mut self) -> Result<StageSpec> {
        let name = self.expect_word("filter name")?;
        let mut args = Vec::new();
        let mut taps = Vec::new();
        while let Some(Token::Word(_)) = self.peek() {
            let word = self.expect_word("argument")?;
            if self.peek() == Some(&Token::Redirect) {
                self.next();
                let window = self.expect_word("window name")?;
                taps.push(TapSpec {
                    channel: word,
                    window,
                });
            } else {
                args.push(word);
            }
        }
        Ok(StageSpec { name, args, taps })
    }

    fn sink(&mut self) -> Result<SinkSpec> {
        let kind = self.expect_word("sink kind (file/unix)")?;
        match kind.as_str() {
            "file" => Ok(SinkSpec::File(self.expect_word("file name")?)),
            "unix" => Ok(SinkSpec::Unix(self.expect_word("path")?)),
            other => Err(EdenError::BadParameter(format!(
                "unknown sink kind `{other}` (want file/unix)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_pipeline() {
        let spec = parse("seq 10").unwrap();
        assert_eq!(spec.source, SourceSpec::Seq(10));
        assert!(spec.stages.is_empty());
        assert!(spec.sink.is_none());
    }

    #[test]
    fn full_pipeline() {
        let spec =
            parse("@discipline=write-only @batch=4 lines 'a' 'b' | grep a | upcase > unix out.txt")
                .unwrap();
        assert_eq!(spec.directives["discipline"], "write-only");
        assert_eq!(spec.directives["batch"], "4");
        assert_eq!(spec.source, SourceSpec::Lines(vec!["a".into(), "b".into()]));
        assert_eq!(spec.stages.len(), 2);
        assert_eq!(spec.stages[0].name, "grep");
        assert_eq!(spec.stages[0].args, vec!["a"]);
        assert_eq!(spec.sink, Some(SinkSpec::Unix("out.txt".into())));
    }

    #[test]
    fn channel_tap_parses() {
        let spec = parse("seq 5 | spell-check the cat Report>win1").unwrap();
        let stage = &spec.stages[0];
        assert_eq!(stage.args, vec!["the", "cat"]);
        assert_eq!(
            stage.taps,
            vec![TapSpec {
                channel: "Report".into(),
                window: "win1".into()
            }]
        );
    }

    #[test]
    fn file_source() {
        let spec = parse("file notes.txt | line-number").unwrap();
        assert_eq!(spec.source, SourceSpec::File("notes.txt".into()));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("").is_err());
        assert!(parse("bogus-source x").is_err());
        assert!(parse("seq ten").is_err());
        assert!(parse("seq 1 | ").is_err());
        assert!(parse("seq 1 > nowhere x").is_err());
        assert!(parse("@batch 4 seq 1").is_err());
        assert!(parse("seq 1 > unix a.txt | grep x").is_err());
    }
}
