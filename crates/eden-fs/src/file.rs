//! Files as Ejects.
//!
//! "In Eden, files are Ejects: they are active rather than passive
//! entities. An Eden file would itself be able to respond to open, close,
//! read and write invocations rather than being a mere data structure acted
//! upon by operating system primitives. Once a file has been written, the
//! data is committed to stable storage by Checkpointing" (§2).
//!
//! A [`FileEject`] holds a sequence of records. Reading follows the Eden
//! pattern: `Open` mints a fresh [`Stage::reader`] — a private, disposable
//! stream over a snapshot of the contents — and returns its UID (a
//! capability, as in §7's `NewStream`). Writing follows §4's read-only idiom: the
//! `WriteFrom` invocation hands the file a *source* UID, and "a file opened
//! for output would immediately issue a Read invocation, and would continue
//! reading until it received an end of file indicator."

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, ReplyHandle};
use eden_transput::protocol::{Batch, TransferRequest};
use eden_transput::recovery::recoverable_source;
use eden_transput::Stage;

/// The Eden type name of [`FileEject`] (used for reactivation).
pub(crate) const FILE_TYPE: &str = "EdenFile";

/// How `WriteFrom` combines new data with existing contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum WriteMode {
    /// Replace the contents.
    #[default]
    Replace,
    /// Append to the contents.
    Append,
}

/// A file: a checkpointable sequence of records.
#[derive(Debug)]
pub struct FileEject {
    records: Vec<Value>,
    /// Bumped on every successful `WriteFrom`.
    generation: i64,
    /// The parked reply of an in-progress `WriteFrom`.
    pending_write: Option<ReplyHandle>,
}

impl FileEject {
    /// An empty file.
    pub fn new() -> FileEject {
        FileEject::with_records(Vec::new())
    }

    /// A file with initial contents.
    pub(crate) fn with_records(records: Vec<Value>) -> FileEject {
        FileEject {
            records,
            generation: 0,
            pending_write: None,
        }
    }

    /// A text file from lines.
    pub fn from_lines<I, S>(lines: I) -> FileEject
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FileEject::with_records(lines.into_iter().map(|l| Value::from(l.into())).collect())
    }

    /// Reconstruct from a passive representation (the reactivation
    /// constructor registered under [`FILE_TYPE`]).
    pub(crate) fn from_passive(rep: Option<Value>) -> Result<Box<dyn EjectBehavior>> {
        let file = match rep {
            None => FileEject::new(),
            Some(v) => FileEject {
                records: v.field("records")?.as_list()?.to_vec(),
                generation: v.field("generation")?.as_int()?,
                pending_write: None,
            },
        };
        Ok(Box::new(file))
    }

    /// Register the file type's reactivation constructor on a kernel.
    pub(crate) fn register(kernel: &eden_kernel::Kernel) {
        kernel.register_type(FILE_TYPE, FileEject::from_passive);
    }
}

impl Default for FileEject {
    fn default() -> Self {
        FileEject::new()
    }
}

impl EjectBehavior for FileEject {
    fn type_name(&self) -> &'static str {
        FILE_TYPE
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            // Open for reading: mint a private reader Eject over a
            // snapshot and return its UID (a stream capability).
            ops::OPEN => {
                let reader = Stage::reader(self.records.clone());
                reply.reply(spawn_sibling(ctx, Box::new(reader)).map(Value::Uid));
            }
            // Open a *durable* read cursor: a recoverable source over a
            // snapshot, read by positional Transfers and checkpointed as
            // they acknowledge, so a crash (or whole-system restart) resumes
            // the stream where it left off instead of disappearing like the
            // plain reader. Reactivation needs `install_recovery` on the
            // kernel.
            "OpenDurable" => {
                let reader = recoverable_source(self.records.clone());
                reply.reply(spawn_sibling(ctx, reader).map(Value::Uid));
            }
            // Open for writing, read-only style: pull everything from the
            // given source, then commit by checkpointing. The reply to
            // WriteFrom is deferred until the data is durable.
            ops::WRITE_FROM => {
                if self.pending_write.is_some() {
                    reply.reply(Err(EdenError::Application(
                        "a WriteFrom is already in progress".into(),
                    )));
                    return;
                }
                let source = match inv.arg.field("source").and_then(Value::as_uid) {
                    Ok(u) => u,
                    Err(e) => {
                        reply.reply(Err(e));
                        return;
                    }
                };
                let mode = match inv.arg.field_opt("mode").map(Value::as_str) {
                    Some(Ok("append")) => WriteMode::Append,
                    Some(Ok("replace")) | None => WriteMode::Replace,
                    _ => {
                        reply.reply(Err(EdenError::BadParameter(
                            "mode must be \"replace\" or \"append\"".into(),
                        )));
                        return;
                    }
                };
                reply.mark_deferred();
                // "A file opened for output would immediately issue a Read
                // invocation": the pull loop runs in a worker; the records
                // come back as one internal event.
                ctx.spawn_process("write-from", move |pctx| {
                    let mut gathered = Vec::new();
                    let mut failure: Option<EdenError> = None;
                    loop {
                        let req = TransferRequest::primary(64);
                        let pending = pctx.invoke(source, ops::TRANSFER, req.to_value());
                        match pctx.wait_or_stop(pending).and_then(Batch::from_value) {
                            Ok(batch) => {
                                gathered.extend(batch.items);
                                if batch.end {
                                    break;
                                }
                            }
                            Err(e) => {
                                failure = Some(e);
                                break;
                            }
                        }
                    }
                    let event = Value::record([
                        (
                            "kind",
                            Value::str(if failure.is_some() { "failed" } else { "written" }),
                        ),
                        (
                            "mode",
                            Value::str(match mode {
                                WriteMode::Replace => "replace",
                                WriteMode::Append => "append",
                            }),
                        ),
                        ("items", Value::list(gathered)),
                        (
                            "error",
                            Value::str(failure.map(|e| e.to_string()).unwrap_or_default()),
                        ),
                    ]);
                    let _ = pctx.post_internal(event);
                });
                // The parked reply is stored by pushing it into pending
                // writes; see `internal`.
                self.pending_write = Some(reply);
            }
            "Length" => reply.reply(Ok(Value::Int(self.records.len() as i64))),
            "Generation" => reply.reply(Ok(Value::Int(self.generation))),
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }

    fn internal(&mut self, ctx: &EjectContext, event: Value) {
        let kind = match event.field("kind").and_then(|v| v.as_str().map(str::to_owned)) {
            Ok(k) => k,
            Err(_) => return,
        };
        let reply = self.pending_write.take();
        if kind == "failed" {
            let msg = event
                .field("error")
                .and_then(|v| v.as_str().map(str::to_owned))
                .unwrap_or_default();
            if let Some(reply) = reply {
                reply.reply(Err(EdenError::Application(format!(
                    "WriteFrom source failed: {msg}"
                ))));
            }
            return;
        }
        let items = match event.field("items").cloned().and_then(Value::into_list) {
            Ok(items) => items,
            Err(_) => return,
        };
        let append = matches!(event.field_opt("mode").and_then(|m| m.as_str().ok()), Some("append"));
        if append {
            self.records.extend(items);
        } else {
            self.records = items;
        }
        self.generation += 1;
        // "Once a file has been written, the data is committed to stable
        // storage by Checkpointing" (§2).
        let result = match self.passive_representation() {
            Some(rep) => ctx.checkpoint(&rep).map(|()| Value::Int(self.records.len() as i64)),
            None => Err(EdenError::Application("no representation".into())),
        };
        if let Some(reply) = reply {
            reply.reply(result);
        }
    }

    fn passive_representation(&self) -> Option<Value> {
        Some(Value::record([
            ("records", Value::list(self.records.clone())),
            ("generation", Value::Int(self.generation)),
        ]))
    }
}

/// Spawn a sibling Eject on the same node as `ctx` (readers live with
/// their file).
pub(crate) fn spawn_sibling(ctx: &EjectContext, behavior: Box<dyn EjectBehavior>) -> Result<Uid> {
    match ctx.kernel() {
        Some(kernel) => kernel.spawn_on(ctx.node(), behavior),
        None => Err(EdenError::KernelShutdown),
    }
}
