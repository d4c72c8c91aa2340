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
//! capability, as in §7's `NewStream`). Writing follows §4: `WriteFrom`
//! mints its dual, a [`Stage::writer`] whose output gathers the records. Handed
//! a *source* UID, the writer pulls from it at once — "a file opened for
//! output would immediately issue a Read invocation, and would continue
//! reading until it received an end of file indicator" — and the reply to
//! `WriteFrom` waits for the end. Handed none, `WriteFrom` returns the
//! writer as an acceptor for a write-only pipeline to write into. Either
//! way, at the end of the stream the writer hands the records to the file,
//! which commits them by checkpointing before it answers. A writer that
//! pulls is a write in progress, and a second `WriteFrom` is refused while
//! it lives; an acceptor holds nothing of the file's until it hands its
//! records over, so the next `WriteFrom` takes its place.

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, ReplyHandle};
use eden_transput::recovery::recoverable_source;
use eden_transput::source::{Caller, PushSink, VecSource};
use eden_transput::{SinkEject, Stage};

/// How a writer hands a file the records it gathered.
const COMMIT: &str = "Commit";

/// The Eden type name of [`FileEject`] (used for reactivation).
pub(crate) const FILE_TYPE: &str = "EdenFile";

/// A file: a checkpointable sequence of records.
#[derive(Debug)]
pub struct FileEject {
    records: Vec<Value>,
    /// Bumped on every successful `WriteFrom`.
    generation: i64,
    /// The writer of the last `WriteFrom`, until it hands its records over,
    /// and whether it pulls a source.
    writer: Option<(Uid, bool)>,
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
            writer: None,
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
                writer: None,
            },
        };
        Ok(Box::new(file))
    }

    /// Register the file type's reactivation constructor on a kernel.
    pub(crate) fn register(kernel: &eden_kernel::Kernel) {
        kernel.register_type(FILE_TYPE, FileEject::from_passive);
    }

    /// Open for writing: a writer that pulls from the source, or an
    /// acceptor if there is none.
    fn write_from(&mut self, ctx: &EjectContext, arg: &Value, reply: ReplyHandle) {
        let Some(kernel) = ctx.kernel() else {
            return reply.reply(Err(EdenError::KernelShutdown));
        };
        if let Some((writer, true)) = self.writer {
            if kernel.eject_state(writer).is_some() {
                let busy = EdenError::Application("a WriteFrom is already in progress".into());
                return reply.reply(Err(busy));
            }
        }
        let source = match arg.field_opt("source").map(Value::as_uid).transpose() {
            Ok(source) => source,
            Err(e) => return reply.reply(Err(e)),
        };
        let mode = match arg.field_opt("mode").map(Value::as_str) {
            Some(Ok(mode @ ("append" | "replace"))) => mode,
            None => "replace",
            _ => {
                let bad = "mode must be \"replace\" or \"append\"";
                return reply.reply(Err(EdenError::BadParameter(bad.into())));
            }
        };
        // The reply to a WriteFrom that names a source waits until the
        // records are durable; one that names none answers with the acceptor.
        let (done, answer) = match source {
            Some(_) => {
                reply.mark_deferred();
                (Some(reply), None)
            }
            None => (None, Some(reply)),
        };
        // An acceptor not yet closed: gone, and its records with it.
        if let Some((acceptor, false)) = self.writer {
            drop(ctx.invoke(acceptor, ops::DEACTIVATE, Value::Unit));
        }
        let gather = Gather {
            file: ctx.uid(),
            mode: Value::str(mode),
            records: Vec::new(),
            done,
        };
        let writer = spawn_sibling(ctx, Box::new(Stage::writer(source, gather)));
        self.writer = writer
            .as_ref()
            .ok()
            .map(|&writer| (writer, source.is_some()));
        if let Some(reply) = answer {
            reply.reply(writer.map(Value::Uid));
        }
    }

    /// Take the current writer's records, bump the generation, checkpoint.
    fn commit(&mut self, ctx: &EjectContext, arg: Value) -> Result<Value> {
        let writer = arg.field("writer")?.as_uid()?;
        if self
            .writer
            .take_if(|(current, _)| *current == writer)
            .is_none()
        {
            let stale = "a writer the file no longer takes records from";
            return Err(EdenError::Application(stale.into()));
        }
        let append = arg.field("mode")?.as_str()? == "append";
        let records = arg.take_field("records")?.into_list()?;
        match append {
            true => self.records.extend(records),
            false => self.records = records,
        }
        self.generation += 1;
        let rep = self
            .passive_representation()
            .expect("a file has a representation");
        ctx.checkpoint(&rep)?;
        Ok(Value::Int(self.records.len() as i64))
    }
}

/// A file's writer's output: the stream's records, gathered and, at its end,
/// handed to the file by the writer, whose answer — once it has
/// checkpointed them — is the answer to the `WriteFrom` that named a source.
struct Gather {
    file: Uid,
    mode: Value,
    records: Vec<Value>,
    done: Option<ReplyHandle>,
}

impl PushSink for Gather {
    fn push(&mut self, items: Vec<Value>) {
        self.records.extend(items);
    }

    fn end(&mut self, writer: &dyn Caller) -> Result<()> {
        let records = Value::list(std::mem::take(&mut self.records));
        let arg = Value::record([
            ("writer", Value::Uid(writer.uid())),
            ("mode", self.mode.clone()),
            ("records", records),
        ]);
        let committed = writer.invoke(self.file, COMMIT, arg);
        if let Some(done) = self.done.take() {
            done.reply(committed.clone());
        }
        committed.map(drop)
    }

    fn fail(&mut self, error: EdenError) {
        if let Some(done) = self.done.take() {
            let failed = format!("WriteFrom source failed: {error}");
            done.reply(Err(EdenError::Application(failed)));
        }
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
                let reader = Stage::reader(VecSource::new(self.records.clone()));
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
            ops::WRITE_FROM => self.write_from(ctx, &inv.arg, reply),
            // The writer's records, at the end of its stream: "Once a file
            // has been written, the data is committed to stable storage by
            // Checkpointing" (§2), before the writer hears.
            COMMIT => reply.reply(self.commit(ctx, inv.arg)),
            "Length" => reply.reply(Ok(Value::Int(self.records.len() as i64))),
            "Generation" => reply.reply(Ok(Value::Int(self.generation))),
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }

    fn passive_representation(&self) -> Option<Value> {
        Some(Value::record([
            ("records", Value::list(self.records.clone())),
            ("generation", Value::Int(self.generation)),
        ]))
    }
}

/// A pipeline that ends in the record file `file`, through its `WriteFrom`
/// (`> file NAME`).
pub fn write_from_sink(file: Uid) -> SinkEject {
    SinkEject::new(file, ops::WRITE_FROM, Vec::new(), "source")
}

/// Spawn a sibling Eject on the same node as `ctx` (readers live with
/// their file).
pub(crate) fn spawn_sibling(ctx: &EjectContext, behavior: Box<dyn EjectBehavior>) -> Result<Uid> {
    match ctx.kernel() {
        Some(kernel) => kernel.spawn_on(ctx.node(), behavior),
        None => Err(EdenError::KernelShutdown),
    }
}
