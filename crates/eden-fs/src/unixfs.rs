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

use eden_core::op::ops;
use eden_core::{EdenError, Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, ReplyHandle};
use eden_transput::protocol::{Batch, TransferRequest};
use eden_transput::Stage;

use crate::file::spawn_sibling;
use crate::hostfs::{bytes_to_lines, lines_to_bytes, HostFsHandle};

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
                let path = match inv.arg.field("path").and_then(|v| v.as_str()) {
                    Ok(p) => p.to_owned(),
                    Err(e) => {
                        reply.reply(Err(e));
                        return;
                    }
                };
                let lines = match self.fs.read(&path).map(|b| bytes_to_lines(&b)) {
                    Ok(lines) => lines,
                    Err(e) => {
                        reply.reply(Err(e));
                        return;
                    }
                };
                // "returns as its result an Eden stream, i.e. a Capability":
                // the UID of a reader that disappears once closed or read out.
                let reader = Stage::reader(lines.into_iter().map(Value::from).collect());
                reply.reply(spawn_sibling(ctx, Box::new(reader)).map(Value::Uid));
            }
            ops::USE_STREAM => {
                let path = match inv.arg.field("path").and_then(|v| v.as_str()) {
                    Ok(p) => p.to_owned(),
                    Err(e) => {
                        reply.reply(Err(e));
                        return;
                    }
                };
                let stream = match inv.arg.field("stream").and_then(Value::as_uid) {
                    Ok(u) => u,
                    Err(e) => {
                        reply.reply(Err(e));
                        return;
                    }
                };
                let fs = self.fs.clone();
                // The copier is a worker of the UnixFs Eject; the reply to
                // UseStream is deferred until the file is durably written.
                reply.mark_deferred();
                ctx.spawn_process("use-stream", move |pctx| {
                    let mut lines: Vec<String> = Vec::new();
                    loop {
                        let req = TransferRequest::primary(64);
                        let pending = pctx.invoke(stream, ops::TRANSFER, req.to_value());
                        match pctx.wait_or_stop(pending).and_then(Batch::from_value) {
                            Ok(batch) => {
                                for item in batch.items {
                                    match item {
                                        Value::Str(s) => lines.push(s.to_string_owned()),
                                        other => lines.push(format!("{other:?}")),
                                    }
                                }
                                if batch.end {
                                    break;
                                }
                            }
                            Err(e) => {
                                reply.reply(Err(e));
                                return;
                            }
                        }
                    }
                    let result = fs
                        .write(&path, &lines_to_bytes(&lines))
                        .map(|()| Value::Int(lines.len() as i64));
                    reply.reply(result);
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
