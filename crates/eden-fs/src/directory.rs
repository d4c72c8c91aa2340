//! Directories as Ejects.
//!
//! "In Eden directories are also Ejects; they respond to invocations like
//! *Lookup*, *DeleteEntry*, *AddEntry* and *List*. Each entry in a
//! directory Eject is in principle a pair consisting of a mnemonic lookup
//! string and the Unique Identifier of the Eject" (§2).
//!
//! Directories also behave as stream *sources* (§4): "The effect of a
//! *List* invocation is to prepare the directory to receive a number of
//! *Read* invocations, which transfer a printable representation of the
//! directory's contents to the reader."
//!
//! "It is, of course, possible to enter the UID of any Eject in a
//! directory, so arbitrary networks of directories can be constructed."

use std::collections::BTreeMap;

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, ReplyHandle};
use eden_transput::source::VecSource;
use eden_transput::{Input, Output, Stage, StageConfig};

/// The Eden type name of [`DirectoryEject`] (used for reactivation).
pub const DIRECTORY_TYPE: &str = "EdenDirectory";

/// A directory: a checkpointable map from names to UIDs, which doubles as
/// a stream source of its own printable listing.
#[derive(Debug)]
pub struct DirectoryEject {
    entries: BTreeMap<String, Uid>,
    /// The listing being streamed out, prepared by `List`: a source stage,
    /// which speaks the stream protocol for the directory.
    listing: Stage,
}

/// A source over `lines`.
fn listing(lines: Vec<Value>) -> Stage {
    let supply = Input::Local(Box::new(VecSource::new(lines)));
    Stage::new(supply, Output::Passive, StageConfig::default())
}

impl DirectoryEject {
    /// An empty directory.
    pub fn new() -> DirectoryEject {
        DirectoryEject {
            entries: BTreeMap::new(),
            listing: listing(Vec::new()),
        }
    }

    /// Reconstruct from a passive representation.
    pub fn from_passive(rep: Option<Value>) -> Result<Box<dyn EjectBehavior>> {
        let mut dir = DirectoryEject::new();
        if let Some(v) = rep {
            for pair in v.field("entries")?.as_list()? {
                let name = pair.field("name")?.as_str()?.to_owned();
                let uid = pair.field("uid")?.as_uid()?;
                dir.entries.insert(name, uid);
            }
        }
        Ok(Box::new(dir))
    }

    /// Register the directory type's reactivation constructor on a kernel.
    pub fn register(kernel: &eden_kernel::Kernel) {
        kernel.register_type(DIRECTORY_TYPE, DirectoryEject::from_passive);
    }

    /// Number of entries (for tests).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn lookup(&self, arg: &Value) -> Result<Value> {
        let name = arg.field("name")?.as_str()?;
        self.entries
            .get(name)
            .map(|uid| Value::Uid(*uid))
            .ok_or_else(|| EdenError::Application(format!("no entry named `{name}`")))
    }

    fn add_entry(&mut self, arg: &Value) -> Result<Value> {
        let name = arg.field("name")?.as_str()?.to_owned();
        let uid = arg.field("uid")?.as_uid()?;
        if name.is_empty() {
            return Err(EdenError::BadParameter("entry name may not be empty".into()));
        }
        if self.entries.contains_key(&name) {
            return Err(EdenError::Application(format!(
                "entry `{name}` already exists"
            )));
        }
        self.entries.insert(name, uid);
        Ok(Value::Unit)
    }

    fn delete_entry(&mut self, arg: &Value) -> Result<Value> {
        let name = arg.field("name")?.as_str()?;
        self.entries
            .remove(name)
            .map(|_| Value::Unit)
            .ok_or_else(|| EdenError::Application(format!("no entry named `{name}`")))
    }

    /// Rename an entry atomically. §7 notes the full Eden file system was
    /// to get "nested transactions and atomic updates"; within a single
    /// directory Eject atomicity is free — the coordinator dispatches one
    /// invocation at a time, so no observer can see the intermediate
    /// state.
    fn rename(&mut self, arg: &Value) -> Result<Value> {
        let from = arg.field("from")?.as_str()?.to_owned();
        let to = arg.field("to")?.as_str()?.to_owned();
        if to.is_empty() {
            return Err(EdenError::BadParameter("entry name may not be empty".into()));
        }
        if !self.entries.contains_key(&from) {
            return Err(EdenError::Application(format!("no entry named `{from}`")));
        }
        if from != to && self.entries.contains_key(&to) {
            return Err(EdenError::Application(format!("entry `{to}` already exists")));
        }
        let uid = self.entries.remove(&from).expect("presence checked");
        self.entries.insert(to, uid);
        Ok(Value::Unit)
    }

    /// Prepare the printable listing for streaming.
    fn prepare_listing(&mut self) -> Value {
        let lines = self.entries.iter();
        let lines = lines.map(|(name, uid)| Value::str(format!("{name:<24} {uid}")));
        self.listing = listing(lines.collect());
        Value::Int(self.entries.len() as i64)
    }
}

impl Default for DirectoryEject {
    fn default() -> Self {
        DirectoryEject::new()
    }
}

impl EjectBehavior for DirectoryEject {
    fn type_name(&self) -> &'static str {
        DIRECTORY_TYPE
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            ops::LOOKUP => reply.reply(self.lookup(&inv.arg)),
            ops::ADD_ENTRY => reply.reply(self.add_entry(&inv.arg)),
            ops::DELETE_ENTRY => reply.reply(self.delete_entry(&inv.arg)),
            "Rename" => reply.reply(self.rename(&inv.arg)),
            ops::LIST => reply.reply(Ok(self.prepare_listing())),
            "Count" => reply.reply(Ok(Value::Int(self.entries.len() as i64))),
            // The stream protocol, on the channels a source declares.
            _ => self.listing.handle(ctx, inv, reply),
        }
    }

    fn passive_representation(&self) -> Option<Value> {
        Some(Value::record([(
            "entries",
            Value::List(
                self.entries
                    .iter()
                    .map(|(name, uid)| {
                        Value::record([
                            ("name", Value::str(name.clone())),
                            ("uid", Value::Uid(*uid)),
                        ])
                    })
                    .collect(),
            ),
        )]))
    }
}

/// A directory concatenator (§2): "initialised with a list of directories
/// \[it\] yields the same result as would be obtained from performing the
/// lookup on all of the directories in turn until the name is found... a
/// facility rather like that offered by the Unix shell and the PATH
/// environment variable."
///
/// Because the concatenator answers `Lookup` like any directory, clients
/// cannot tell it from a plain one — the behavioural-compatibility point
/// of §2.
#[derive(Debug)]
pub struct DirConcatenatorEject {
    directories: Vec<Uid>,
}

impl DirConcatenatorEject {
    /// Search `directories` in order.
    pub fn new(directories: Vec<Uid>) -> DirConcatenatorEject {
        DirConcatenatorEject { directories }
    }
}

impl EjectBehavior for DirConcatenatorEject {
    fn type_name(&self) -> &'static str {
        "DirConcatenator"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            ops::LOOKUP => {
                // "It may be implemented either by actually performing the
                // multiple lookups, or by maintaining some sort of table";
                // we do the honest multiple lookups.
                let mut last_err =
                    EdenError::Application("concatenator has no directories".into());
                for &dir in &self.directories {
                    match ctx.invoke(dir, ops::LOOKUP, inv.arg.clone()).wait() {
                        Ok(found) => {
                            reply.reply(Ok(found));
                            return;
                        }
                        Err(e) => last_err = e,
                    }
                }
                reply.reply(Err(last_err));
            }
            "Count" => reply.reply(Ok(Value::Int(self.directories.len() as i64))),
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_transput::protocol::{Batch, TransferRequest};

    fn lookup_arg(name: &str) -> Value {
        Value::record([("name", Value::str(name))])
    }

    fn entry_arg(name: &str, uid: Uid) -> Value {
        Value::record([("name", Value::str(name)), ("uid", Value::Uid(uid))])
    }

    #[test]
    fn add_lookup_delete() {
        let mut dir = DirectoryEject::new();
        let uid = Uid::fresh();
        dir.add_entry(&entry_arg("readme", uid)).unwrap();
        assert_eq!(dir.lookup(&lookup_arg("readme")).unwrap(), Value::Uid(uid));
        assert!(dir.lookup(&lookup_arg("missing")).is_err());
        dir.delete_entry(&lookup_arg("readme")).unwrap();
        assert!(dir.lookup(&lookup_arg("readme")).is_err());
        assert!(dir.is_empty());
    }

    #[test]
    fn duplicate_entry_rejected() {
        let mut dir = DirectoryEject::new();
        dir.add_entry(&entry_arg("x", Uid::fresh())).unwrap();
        assert!(dir.add_entry(&entry_arg("x", Uid::fresh())).is_err());
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn empty_name_rejected() {
        let mut dir = DirectoryEject::new();
        assert!(dir.add_entry(&entry_arg("", Uid::fresh())).is_err());
    }

    #[test]
    fn listing_streams_sorted_lines() {
        let kernel = eden_kernel::Kernel::new();
        let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
        for name in ["beta", "alpha"] {
            let added = kernel.invoke(dir, ops::ADD_ENTRY, entry_arg(name, Uid::fresh()));
            added.wait().unwrap();
        }
        let count = kernel.invoke(dir, ops::LIST, Value::Unit).wait().unwrap();
        assert_eq!(count, Value::Int(2));
        let ten = TransferRequest::primary(10).to_value();
        let batch = kernel.invoke(dir, ops::TRANSFER, ten).wait().unwrap();
        let batch = Batch::from_value(batch).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(batch.end);
        let first = batch.items[0].as_str().unwrap();
        assert!(first.starts_with("alpha"), "listing must be sorted: {first}");
    }

    #[test]
    fn passive_representation_roundtrips() {
        let mut dir = DirectoryEject::new();
        let uid = Uid::fresh();
        dir.add_entry(&entry_arg("kept", uid)).unwrap();
        let rep = dir.passive_representation().unwrap();
        let rebuilt = DirectoryEject::from_passive(Some(rep)).unwrap();
        // The rebuilt behaviour must answer the same lookup.
        let mut rebuilt = rebuilt;
        let _ = &mut rebuilt;
        // (Behavioural check happens in the kernel-level tests; here we
        // check the decode path itself produced a directory.)
        assert_eq!(rebuilt.type_name(), DIRECTORY_TYPE);
    }
}
