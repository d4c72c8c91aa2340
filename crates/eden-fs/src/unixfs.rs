//! The bootstrap "Unix File System" Ejects of §7, verbatim:
//!
//! "This consists of a 'Unix File System' Eject for each physical machine,
//! which responds to two invocations, *NewStream* and *UseStream*. ...
//! *NewStream* takes as input a Unix path name, and returns as its result
//! an Eden stream, i.e. a Capability. The Capability is actually the UID of
//! a newly created Eject (of type UnixFile), whose purpose is to respond to
//! Transfer invocations with the contents of the appropriate Unix file.
//! When the user closes the stream, the UnixFile Eject deactivates itself
//! and, since it has never Checkpointed, disappears. *UseStream* does the
//! opposite; it takes as input a Unix path name and a Capability for a
//! stream, and creates a UnixFile Eject which repeatedly invokes Transfer
//! on the capability and records the data it receives. When an end of
//! stream status is returned by Transfer, the appropriate Unix file is
//! opened, written and closed."
//!
//! Both UnixFile Ejects are the one stage. `NewStream`'s is a
//! [`Stage::reader`] over the file's bytes, validated once and held as one
//! `Text`, that cuts each `Transfer`'s lines from it as windows (which keep
//! it alive), not copies. `UseStream`'s is a [`Stage::writer`] whose output
//! is the file: it pulls the stream and appends each record and a newline
//! to the one `Vec<u8>` it writes at the end. Given no stream, `UseStream`
//! returns that writer as an acceptor instead, for a write-only pipeline to
//! write into — how the shell redirects such a pipeline's output (`> unix`).

use std::io::Write as _;

use eden_core::op::ops;
use eden_core::{EdenError, Result, Text, Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, ReplyHandle};
use eden_transput::protocol::Batch;
use eden_transput::source::{Caller, PullSource, PushSink};
use eden_transput::{SinkEject, Stage};

use crate::file::spawn_sibling;
use crate::hostfs::{file_text, HostFsHandle};

/// The per-machine bootstrap Eject.
#[derive(Debug)]
pub struct UnixFsEject {
    fs: HostFsHandle,
}

impl UnixFsEject {
    /// Serve the given host filing system.
    pub fn new(fs: HostFsHandle) -> UnixFsEject {
        UnixFsEject { fs }
    }
}

impl EjectBehavior for UnixFsEject {
    fn type_name(&self) -> &'static str {
        "UnixFileSystem"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            ops::NEW_STREAM => {
                let path = inv.arg.field("path").and_then(|v| v.as_str());
                let text = path.and_then(|p| self.fs.read(p)).map(file_text);
                // "returns as its result an Eden stream, i.e. a Capability":
                // the UID of a reader that disappears once closed or read out.
                let stream = text.and_then(|text| {
                    spawn_sibling(ctx, Box::new(Stage::reader(Lines { text, at: 0 })))
                });
                reply.reply(stream.map(Value::Uid));
            }
            ops::USE_STREAM => {
                let path = inv.arg.field("path").and_then(|v| v.as_str());
                let stream = inv.arg.field_opt("stream").map(Value::as_uid).transpose();
                let (path, stream) = match (path, stream) {
                    (Ok(path), Ok(stream)) => (path.to_owned(), stream),
                    (Err(e), _) | (_, Err(e)) => return reply.reply(Err(e)),
                };
                let mut file = HostFile {
                    fs: self.fs.clone(),
                    path,
                    bytes: Vec::new(),
                    records: 0,
                    done: None,
                };
                if stream.is_none() {
                    let acceptor = Stage::writer(None, file);
                    return reply.reply(spawn_sibling(ctx, Box::new(acceptor)).map(Value::Uid));
                }
                // The reply to UseStream waits until the file is written.
                reply.mark_deferred();
                file.done = Some(reply);
                let copier = Stage::writer(stream, file);
                // Spawned only while the kernel stands: otherwise the copier,
                // and with it the reply, is dropped, and the caller hears so.
                let _ = spawn_sibling(ctx, Box::new(copier));
            }
            "ListFiles" => {
                let files = self
                    .fs
                    .list()
                    .into_iter()
                    .map(Value::from)
                    .collect::<Vec<_>>();
                reply.reply(Ok(Value::list(files)));
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

/// `NewStream`'s supply: the file's one text and how far it has been read,
/// each pull cutting at most the lines it is asked for.
struct Lines {
    text: Text,
    at: usize,
}

impl PullSource for Lines {
    fn pull(&mut self, max: usize) -> Batch {
        let mut items = Vec::with_capacity(max.min(64));
        while items.len() < max {
            let Some((line, next)) = self.text.line_at(self.at) else {
                break;
            };
            items.push(Value::Str(line));
            self.at = next;
        }
        // The pull that takes the last line says so, as `VecSource`'s does.
        let end = self.at >= self.text.as_str().len();
        Batch { items, end }
    }
}

/// `UseStream`'s file: each record's text (as the shell prints it, if it is
/// not a string) and a newline, into the one buffer written at the end.
struct HostFile {
    fs: HostFsHandle,
    path: String,
    bytes: Vec<u8>,
    records: i64,
    /// The deferred reply to a `UseStream` that named its stream.
    done: Option<ReplyHandle>,
}

impl PushSink for HostFile {
    fn push(&mut self, items: Vec<Value>) {
        self.records += items.len() as i64;
        for item in &items {
            match item {
                Value::Str(s) => self.bytes.extend_from_slice(s.as_bytes()),
                other => write!(self.bytes, "{other}").expect("writing to a Vec does not fail"),
            }
            self.bytes.push(b'\n');
        }
    }

    fn end(&mut self, _: &dyn Caller) -> Result<()> {
        let written = self.fs.write(&self.path, &self.bytes);
        if let Some(done) = self.done.take() {
            done.reply(written.clone().map(|()| Value::Int(self.records)));
        }
        written
    }

    fn fail(&mut self, error: EdenError) {
        if let Some(done) = self.done.take() {
            done.reply(Err(error));
        }
    }
}

/// Build the `NewStream` argument.
pub fn new_stream_arg(path: &str) -> Value {
    Value::record([("path", Value::str(path))])
}

/// Build the `UseStream` argument.
pub fn use_stream_arg(path: &str, stream: Uid) -> Value {
    Value::record([("path", Value::str(path)), ("stream", Value::Uid(stream))])
}

/// A pipeline that ends in the host file `path`, through `unixfs`'s
/// `UseStream` (`> unix PATH`).
pub fn use_stream_sink(unixfs: Uid, path: &str) -> SinkEject {
    SinkEject::new(
        unixfs,
        ops::USE_STREAM,
        vec![("path", Value::str(path))],
        "stream",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_cut_as_pulled_are_the_windows_split_lines_cuts() {
        // The cases of `eden_core::value`'s `split_lines` test.
        for whole in [
            "",
            "\n",
            "one",
            "one\n",
            "one\ntwo",
            "one\r\ntwo\r\n",
            "lone\rcr\nend\r",
            "\n\nblank\n\n\nlines\n",
            "\r\n\r\r\n",
            "grüß\nΟΔΟΣ\r\n日本語\n🦀",
        ] {
            let text = Text::from(whole);
            let want: Vec<Value> = text.split_lines().map(Value::Str).collect();
            for max in [1, 2, 3, 64] {
                let mut lines = Lines {
                    text: text.clone(),
                    at: 0,
                };
                let mut got = Vec::new();
                loop {
                    let batch = lines.pull(max);
                    assert!(batch.items.len() <= max, "{whole:?} at {max}");
                    got.extend(batch.items);
                    if batch.end {
                        break;
                    }
                }
                assert_eq!(got, want, "{whole:?} at {max}");
            }
        }
    }
}
