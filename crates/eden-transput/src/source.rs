//! Local supplies and sinks of records.
//!
//! "Any Eject which responds to *Read* invocations is by definition a
//! source" (§4). [`PullSource`] is the local supply of records; a
//! [`Stage`] with [`Input::Local`] and a passive output mounts one behind
//! the stream protocol. The paper's examples — a file opened for input, a
//! date/time server, a directory listing — are all that stage over
//! different `PullSource`s. [`PushSink`] is its dual, the local end of
//! [`Output::Local`]: a collector, or a file opened for output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eden_core::{EdenError, Result, Uid, Value};

use crate::protocol::Batch;
use crate::stage::{Input, Output, Stage, StageConfig};

/// A local, in-process supply of stream records.
pub trait PullSource: Send + 'static {
    /// Produce up to `max` records. Setting [`Batch::end`] means no more
    /// records will ever be produced; `pull` will not be called again.
    fn pull(&mut self, max: usize) -> Batch;
}

/// A local end for stream records: the dual of [`PullSource`], mounted as
/// [`Output::Local`]. The stage pushes each chunk as it arrives, in order,
/// then calls `end` once every record has been pushed, or `fail` when its
/// input fails first — or when `end` itself did.
pub trait PushSink: Send + 'static {
    /// Take the next records of the stream.
    fn push(&mut self, items: Vec<Value>);
    /// The stream has ended. An error is the stream's: the stage reports it
    /// to whoever wrote the end, or fails with it. `stage` is the stage the
    /// sink ends, to act as.
    fn end(&mut self, stage: &dyn Caller) -> Result<()>;
    /// The input failed; no more records will come.
    fn fail(&mut self, error: EdenError);
}

/// The stage a [`PushSink`] ends, as its sink acts: under its UID, from
/// its node.
pub trait Caller {
    /// The stage's UID.
    fn uid(&self) -> Uid;
    /// Invoke `op` on `to` as the stage, and wait for the reply.
    fn invoke(&self, to: Uid, op: &'static str, arg: Value) -> Result<Value>;
}

impl std::fmt::Debug for dyn PushSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PushSink")
    }
}

/// A source over a vector of records.
#[derive(Debug)]
pub struct VecSource {
    items: std::vec::IntoIter<Value>,
}

impl VecSource {
    /// Build from any collection of records.
    pub fn new(items: Vec<Value>) -> VecSource {
        VecSource {
            items: items.into_iter(),
        }
    }

    /// Build from string lines (the common text-stream case).
    pub fn from_lines<I, S>(lines: I) -> VecSource
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        VecSource::new(lines.into_iter().map(|l| Value::from(l.into())).collect())
    }
}

impl PullSource for VecSource {
    fn pull(&mut self, max: usize) -> Batch {
        let mut items = Vec::with_capacity(max.min(64));
        for _ in 0..max {
            match self.items.next() {
                Some(v) => items.push(v),
                None => return Batch::last(items),
            }
        }
        // Peek-free end detection: if nothing remains, say so now to keep
        // the invocation counts exact.
        if self.items.len() == 0 {
            Batch::last(items)
        } else {
            Batch::more(items)
        }
    }
}

/// A generator source from a closure producing one record per call, with a
/// record budget. Useful for synthetic workloads.
#[derive(Debug)]
pub struct FnSource<F> {
    f: F,
    next: u64,
    total: u64,
}

impl<F> FnSource<F>
where
    F: FnMut(u64) -> Value + Send + 'static,
{
    /// `f(i)` produces the i-th record; `count` records total.
    pub fn new(count: u64, f: F) -> FnSource<F> {
        FnSource {
            f,
            next: 0,
            total: count,
        }
    }
}

impl<F> PullSource for FnSource<F>
where
    F: FnMut(u64) -> Value + Send + 'static,
{
    fn pull(&mut self, max: usize) -> Batch {
        let n = (max as u64).min(self.total - self.next);
        let items = (self.next..self.next + n).map(|i| (self.f)(i)).collect();
        self.next += n;
        if self.next == self.total {
            Batch::last(items)
        } else {
            Batch::more(items)
        }
    }
}

/// Wraps a source and counts how many records have been pulled out of it.
/// Used by the laziness experiment (E3): with no sink connected, the count
/// must stay zero.
#[derive(Debug)]
pub struct CountingSource<S> {
    inner: S,
    pulled: Arc<AtomicU64>,
}

impl<S: PullSource> CountingSource<S> {
    /// Wrap `inner`; the returned counter is shared.
    pub fn new(inner: S) -> (CountingSource<S>, Arc<AtomicU64>) {
        let counter = Arc::new(AtomicU64::new(0));
        (
            CountingSource {
                inner,
                pulled: Arc::clone(&counter),
            },
            counter,
        )
    }
}

impl<S: PullSource> PullSource for CountingSource<S> {
    fn pull(&mut self, max: usize) -> Batch {
        let batch = self.inner.pull(max);
        self.pulled.fetch_add(batch.len() as u64, Ordering::Relaxed);
        batch
    }
}

/// Kept for `benchmark/`, which no PR may edit and which mounts its supplies
/// with this name; in-repo code spells a source as the stage it is.
#[derive(Debug)]
pub struct SourceEject;

impl SourceEject {
    /// `Stage::new(Input::Local(source), Output::Passive, StageConfig::default())`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(source: Box<dyn PullSource>) -> Stage {
        Stage::new(
            Input::Local(source),
            Output::Passive,
            StageConfig::default(),
        )
    }
}

impl std::fmt::Debug for dyn PullSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PullSource")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_batches_and_ends() {
        let mut s = VecSource::new((0..5).map(Value::Int).collect());
        let b = s.pull(2);
        assert_eq!(b.items, vec![Value::Int(0), Value::Int(1)]);
        assert!(!b.end);
        let b = s.pull(3);
        assert_eq!(b.len(), 3);
        assert!(b.end, "final batch must carry the end flag");
    }

    #[test]
    fn vec_source_exact_boundary_sets_end() {
        let mut s = VecSource::new((0..4).map(Value::Int).collect());
        let b = s.pull(4);
        assert_eq!(b.len(), 4);
        assert!(b.end, "a pull that drains the source must say end");
    }

    #[test]
    fn empty_vec_source_is_immediately_ended() {
        let mut s = VecSource::new(vec![]);
        let b = s.pull(8);
        assert!(b.is_empty());
        assert!(b.end);
    }

    #[test]
    fn fn_source_counts_down() {
        let mut s = FnSource::new(3, |_| Value::str("x"));
        assert!(!s.pull(2).end);
        assert!(s.pull(2).end);
    }

    #[test]
    fn counting_source_counts() {
        let (mut s, count) = CountingSource::new(VecSource::new((0..10).map(Value::Int).collect()));
        assert_eq!(count.load(Ordering::Relaxed), 0);
        s.pull(4);
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn from_lines_builds_strings() {
        let mut s = VecSource::from_lines(["a", "b"]);
        let b = s.pull(10);
        assert_eq!(b.items, vec![Value::str("a"), Value::str("b")]);
    }

    #[test]
    fn vecsource_trait_object_safety() {
        // PullSource must be usable as a boxed trait object.
        let mut s: Box<dyn PullSource> = Box::new(VecSource::new(vec![Value::Int(1)]));
        assert!(s.pull(1).end);
    }
}
