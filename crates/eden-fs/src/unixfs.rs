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
//! Neither copies a line: the reader's records are `Text::split_lines`
//! windows on the file, validated once and held as one `Text` (which they
//! keep alive); the copier calls `Transfer` on its own stack and appends
//! each record and a newline to the one `Vec<u8>` it then writes.

use std::io::Write as _;

use eden_core::op::ops;
use eden_core::{EdenError, OpName, Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, ReplyHandle, RouteCache};
use eden_transput::protocol::{Batch, TransferRequest};
use eden_transput::Stage;

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
                    let reader = Stage::reader(text.split_lines().map(Value::Str).collect());
                    spawn_sibling(ctx, Box::new(reader))
                });
                reply.reply(stream.map(Value::Uid));
            }
            ops::USE_STREAM => {
                let path = inv.arg.field("path").and_then(|v| v.as_str());
                let stream = inv.arg.field("stream").and_then(Value::as_uid);
                let (path, stream) = match (path, stream) {
                    (Ok(path), Ok(stream)) => (path.to_owned(), stream),
                    (Err(e), _) | (_, Err(e)) => return reply.reply(Err(e)),
                };
                let fs = self.fs.clone();
                // The copier is a worker of the UnixFs Eject; the reply to
                // UseStream is deferred until the file is durably written.
                reply.mark_deferred();
                ctx.spawn_process("use-stream", move |pctx| {
                    let copy = || {
                        // The file as written: each record's text (as the
                        // shell prints it, if it is not a string), a newline.
                        let mut file: Vec<u8> = Vec::new();
                        let mut records = 0i64;
                        let mut route = RouteCache::new();
                        loop {
                            let req = TransferRequest::primary(64).to_value();
                            let transfer = OpName::from_static(ops::TRANSFER);
                            let answer = pctx.call_routed(&mut route, stream, transfer, req)?;
                            let batch = Batch::from_value(answer)?;
                            records += batch.items.len() as i64;
                            for item in &batch.items {
                                match item {
                                    Value::Str(s) => file.extend_from_slice(s.as_bytes()),
                                    other => write!(file, "{other}")
                                        .expect("writing to a Vec does not fail"),
                                }
                                file.push(b'\n');
                            }
                            if batch.end {
                                break;
                            }
                        }
                        fs.write(&path, &file)?;
                        Ok(Value::Int(records))
                    };
                    reply.reply(copy());
                });
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

/// Build the `NewStream` argument.
pub fn new_stream_arg(path: &str) -> Value {
    Value::record([("path", Value::str(path))])
}

/// Build the `UseStream` argument.
pub fn use_stream_arg(path: &str, stream: Uid) -> Value {
    Value::record([("path", Value::str(path)), ("stream", Value::Uid(stream))])
}
