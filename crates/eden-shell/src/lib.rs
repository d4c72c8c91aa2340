//! A small command language for constructing, redirecting and tapping Eden
//! transput pipelines — the user-facing face of §5's connection protocol.
//!
//! # Language
//!
//! ```text
//! [@key=value ...] SOURCE [| FILTER args... [Chan>window ...]]... [> SINK]
//! ```
//!
//! * **Directives**: `@discipline=read-only|write-only|conventional`
//!   (default read-only), `@batch=N`, `@readahead=N`, `@pushahead=N`,
//!   `@buffer=N`, `@policy=int|cap`, `@nodes=N`.
//! * **Sources**: `lines 'a' 'b' ...`, `seq N`, `file NAME` (via the
//!   attached directory), `unix PATH` (via the attached UnixFs Eject).
//! * **Filters**: anything `eden_filters::make_filter` knows — `grep`,
//!   `strip-comments`, `sort`, `spell-check`, `sed`, ...
//! * **Channel taps**: `Report>win1` after a filter reads that filter's
//!   `Report` channel into the window `win1` — the paper's
//!   `ASSIGN OUTPUT CHANNEL name TO file` / Unix `n>` analogue (§5).
//! * **Sinks**: `> file NAME` (`WriteFrom` into a file Eject), `> unix PATH`
//!   (`UseStream` into the host filing system). The file is the pipeline's
//!   sink, found by UID before anything runs: it pulls from the last filter,
//!   or — write-only — takes its writes. As in Unix, a redirected command
//!   prints nothing; its records are in the file.
//!
//! # Example
//!
//! ```
//! use eden_kernel::Kernel;
//! use eden_shell::ShellEnv;
//!
//! let kernel = Kernel::new();
//! let shell = ShellEnv::new(&kernel);
//! let run = shell
//!     .run("lines 'C comment' 'real line' | strip-comments | upcase")
//!     .unwrap();
//! assert_eq!(run.output_lines(), vec!["REAL LINE"]);
//! kernel.shutdown();
//! ```

pub(crate) mod exec;
pub mod parse;
pub mod session;
pub(crate) mod token;

pub use exec::{ShellEnv, ShellRun};
pub use parse::{parse, CommandSpec, SinkSpec, SourceSpec, StageSpec, TapSpec};
