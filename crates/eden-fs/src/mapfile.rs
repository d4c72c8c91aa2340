//! The Map abstraction of §6.
//!
//! "The Transput protocol does not support random access; a disk file
//! Eject (or an Eject with a large main store at its disposal) may wish to
//! define a protocol which supports the abstraction of a Map. Such an
//! Eject may not support the transput protocol at all, or it may support
//! both protocols."
//!
//! [`MapFileEject`] supports **both**: the Map operations `ReadAt` /
//! `WriteAt` / `Size`, and the stream protocol (`Open` mints a reader
//! exactly like [`FileEject`](crate::FileEject)). This demonstrates the
//! §2 point that protocols are behaviours, not types: any client written
//! against the stream protocol is satisfied by a map file, and map-aware
//! clients get more.

use eden_core::op::ops;
use eden_core::{EdenError, Result, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, ReplyHandle};

use eden_transput::Stage;

use crate::file::spawn_sibling;

/// The Eden type name of [`MapFileEject`] (used for reactivation).
pub const MAP_FILE_TYPE: &str = "EdenMapFile";

/// A random-access record file that also speaks the stream protocol.
#[derive(Debug)]
pub struct MapFileEject {
    records: Vec<Value>,
}

impl MapFileEject {
    /// An empty map file.
    pub fn new() -> MapFileEject {
        MapFileEject::with_records(Vec::new())
    }

    /// A map file with initial contents.
    pub fn with_records(records: Vec<Value>) -> MapFileEject {
        MapFileEject { records }
    }

    /// Reconstruct from a passive representation.
    pub fn from_passive(rep: Option<Value>) -> Result<Box<dyn EjectBehavior>> {
        let records = match rep {
            Some(v) => v.field("records")?.as_list()?.to_vec(),
            None => Vec::new(),
        };
        Ok(Box::new(MapFileEject::with_records(records)))
    }

    /// Register the reactivation constructor on a kernel.
    pub fn register(kernel: &eden_kernel::Kernel) {
        kernel.register_type(MAP_FILE_TYPE, MapFileEject::from_passive);
    }

    fn read_at(&self, arg: &Value) -> Result<Value> {
        let index = arg.field("index")?.as_int()?;
        let count = arg.field_opt("count").map(|c| c.as_int()).transpose()?.unwrap_or(1);
        if index < 0 || count < 0 {
            return Err(EdenError::BadParameter(
                "index and count must be non-negative".into(),
            ));
        }
        let start = index as usize;
        if start > self.records.len() {
            return Err(EdenError::BadParameter(format!(
                "index {start} beyond size {}",
                self.records.len()
            )));
        }
        let end = (start + count as usize).min(self.records.len());
        Ok(Value::list(self.records[start..end].to_vec()))
    }

    fn write_at(&mut self, arg: &Value) -> Result<Value> {
        let index = arg.field("index")?.as_int()?;
        let items = arg.field("items")?.as_list()?.to_vec();
        if index < 0 {
            return Err(EdenError::BadParameter("index must be non-negative".into()));
        }
        let start = index as usize;
        if start > self.records.len() {
            return Err(EdenError::BadParameter(format!(
                "sparse writes unsupported: index {start} beyond size {}",
                self.records.len()
            )));
        }
        // Overwrite in place, extending at the tail.
        let end = start + items.len();
        if end > self.records.len() {
            self.records.resize(end, Value::Unit);
        }
        for (offset, item) in items.into_iter().enumerate() {
            self.records[start + offset] = item;
        }
        Ok(Value::Int(self.records.len() as i64))
    }
}

impl Default for MapFileEject {
    fn default() -> Self {
        MapFileEject::new()
    }
}

impl EjectBehavior for MapFileEject {
    fn type_name(&self) -> &'static str {
        MAP_FILE_TYPE
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            // The Map protocol.
            "ReadAt" => reply.reply(self.read_at(&inv.arg)),
            "WriteAt" => reply.reply(self.write_at(&inv.arg)),
            "Size" => reply.reply(Ok(Value::Int(self.records.len() as i64))),
            // The stream protocol, via a disposable reader (as FileEject).
            ops::OPEN => {
                let reader = Stage::reader(self.records.clone());
                reply.reply(spawn_sibling(ctx, Box::new(reader)).map(Value::Uid));
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }

    fn passive_representation(&self) -> Option<Value> {
        Some(Value::record([(
            "records",
            Value::list(self.records.clone()),
        )]))
    }
}

/// Build a `ReadAt` argument.
pub fn read_at_arg(index: i64, count: i64) -> Value {
    Value::record([("index", Value::Int(index)), ("count", Value::Int(count))])
}

/// Build a `WriteAt` argument.
pub fn write_at_arg(index: i64, items: Vec<Value>) -> Value {
    Value::record([("index", Value::Int(index)), ("items", Value::list(items))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> MapFileEject {
        MapFileEject::with_records((0..5).map(Value::Int).collect())
    }

    #[test]
    fn read_at_slices() {
        let f = seeded();
        let got = f.read_at(&read_at_arg(1, 2)).unwrap();
        assert_eq!(
            got,
            Value::list(vec![Value::Int(1), Value::Int(2)])
        );
        // Reads past the end are truncated, not errors.
        let tail = f.read_at(&read_at_arg(4, 10)).unwrap();
        assert_eq!(tail.as_list().unwrap().len(), 1);
    }

    #[test]
    fn read_at_rejects_bad_indices() {
        let f = seeded();
        assert!(f.read_at(&read_at_arg(-1, 1)).is_err());
        assert!(f.read_at(&read_at_arg(6, 1)).is_err());
    }

    #[test]
    fn write_at_overwrites_and_extends() {
        let mut f = seeded();
        f.write_at(&write_at_arg(3, vec![Value::Int(30), Value::Int(40), Value::Int(50)]))
            .unwrap();
        assert_eq!(f.records.len(), 6);
        assert_eq!(f.records[3], Value::Int(30));
        assert_eq!(f.records[5], Value::Int(50));
        assert!(f.write_at(&write_at_arg(100, vec![Value::Int(0)])).is_err());
    }

    #[test]
    fn passive_roundtrip() {
        let f = seeded();
        let rep = f.passive_representation().unwrap();
        let rebuilt = MapFileEject::from_passive(Some(rep)).unwrap();
        assert_eq!(rebuilt.type_name(), MAP_FILE_TYPE);
    }
}
