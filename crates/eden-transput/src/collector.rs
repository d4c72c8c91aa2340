//! A thread-safe landing pad for stream output, shared between sink Ejects
//! and the test/benchmark code that waits on them: the [`PushSink`] a
//! pipeline ends in unless it ends in an Eject.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_core::{EdenError, Result, Value};
use parking_lot::{Condvar, Mutex};

use crate::source::{Caller, PushSink};

#[derive(Debug, Default)]
struct State {
    items: Vec<Value>,
    records_seen: u64,
    done: bool,
    error: Option<EdenError>,
}

/// Accumulates records delivered by a sink and signals completion.
///
/// Cheap to clone; clones share state. `keep_items = false` turns it into
/// the paper's *null sink* ("an Eject which reads indiscriminately and
/// ignores the data it is given", §4) — it still counts records and signals
/// completion, which is what benchmarks need.
#[derive(Clone, Debug)]
pub struct Collector {
    state: Arc<(Mutex<State>, Condvar)>,
    keep_items: bool,
}

impl Collector {
    /// A collector that retains every record.
    pub fn new() -> Collector {
        eden_core::stream::note_stream_opened();
        Collector {
            state: Arc::new((Mutex::new(State::default()), Condvar::new())),
            keep_items: true,
        }
    }

    /// A counting-only collector (the null sink).
    pub fn null() -> Collector {
        eden_core::stream::note_stream_opened();
        Collector {
            state: Arc::new((Mutex::new(State::default()), Condvar::new())),
            keep_items: false,
        }
    }

    /// Mark the stream done, failed if `error`, and wake the waiter.
    fn settle(&self, error: Option<EdenError>) {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock();
        if !st.done {
            eden_core::stream::note_stream_closed();
        }
        st.done = true;
        st.error = error.or(st.error.take());
        cvar.notify_all();
    }

    /// Number of records delivered so far.
    pub fn records_seen(&self) -> u64 {
        self.state.0.lock().records_seen
    }

    /// A copy of the records delivered so far (empty for null collectors).
    pub fn items_so_far(&self) -> Vec<Value> {
        self.state.0.lock().items.clone()
    }

    /// Block until the stream completes, then return the records.
    pub fn wait_done(&self, deadline: Duration) -> Result<Vec<Value>> {
        let (lock, cvar) = &*self.state;
        let start = Instant::now();
        let mut st = lock.lock();
        while !st.done {
            let remaining = deadline
                .checked_sub(start.elapsed())
                .ok_or(EdenError::Timeout)?;
            // Test drivers call this from `main`, but behaviors may call
            // it mid-dispatch — compensate the pool either way.
            // eden-lint: timer(deadline)
            if eden_kernel::blocking(|| cvar.wait_for(&mut st, remaining)).timed_out() && !st.done {
                return Err(EdenError::Timeout);
            }
        }
        match st.error.clone() {
            Some(error) => Err(error),
            None => Ok(std::mem::take(&mut st.items)),
        }
    }
}

/// A sink stage lands its records here. Appending wakes nobody: the
/// condvar's one waiter, [`wait_done`](Collector::wait_done), waits for the
/// end or the failure.
impl PushSink for Collector {
    fn push(&mut self, items: Vec<Value>) {
        eden_core::stream::note_collected(items.len());
        let mut st = self.state.0.lock();
        st.records_seen += items.len() as u64;
        if self.keep_items {
            st.items.extend(items);
        }
    }

    fn end(&mut self, _: &dyn Caller) -> Result<()> {
        self.settle(None);
        Ok(())
    }

    fn fail(&mut self, error: EdenError) {
        self.settle(Some(error));
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_and_signals() {
        let c = Collector::new();
        let mut c2 = c.clone();
        let t = std::thread::spawn(move || {
            c2.push(vec![Value::Int(1)]);
            c2.push(vec![Value::Int(2)]);
            c2.settle(None);
        });
        let items = c.wait_done(Duration::from_secs(5)).unwrap();
        assert_eq!(items, vec![Value::Int(1), Value::Int(2)]);
        t.join().unwrap();
    }

    #[test]
    fn a_waiter_sleeps_through_appends_and_returns_once_with_all_of_them() {
        let c = Collector::new();
        let mut sink = c.clone();
        let t = std::thread::spawn(move || {
            for i in 0..10_000 {
                sink.push(vec![Value::Int(i)]);
            }
            sink.settle(None);
        });
        let items = c.wait_done(Duration::from_secs(30)).unwrap();
        assert_eq!(items, (0..10_000).map(Value::Int).collect::<Vec<_>>());
        t.join().unwrap();
    }

    #[test]
    fn fail_during_appends_returns_the_error() {
        let c = Collector::new();
        let mut sink = c.clone();
        let t = std::thread::spawn(move || {
            for i in 0..1_000 {
                sink.push(vec![Value::Int(i)]);
            }
            sink.fail(EdenError::EndOfStream);
            // A sink that has not heard yet may still deliver.
            sink.push(vec![Value::Int(1_000)]);
        });
        assert_eq!(
            c.wait_done(Duration::from_secs(30)).unwrap_err(),
            EdenError::EndOfStream
        );
        t.join().unwrap();
        assert_eq!(c.records_seen(), 1_001);
    }

    #[test]
    fn null_collector_counts_only() {
        let mut c = Collector::null();
        c.push(vec![Value::Int(1), Value::Int(2)]);
        c.settle(None);
        assert_eq!(c.records_seen(), 2);
        assert!(c.wait_done(Duration::from_secs(1)).unwrap().is_empty());
    }

    #[test]
    fn wait_times_out() {
        let mut c = Collector::new();
        c.push(vec![Value::Int(1)]);
        assert_eq!(
            c.wait_done(Duration::from_millis(20)).unwrap_err(),
            EdenError::Timeout
        );
    }

    #[test]
    fn items_so_far_is_partial_view() {
        let mut c = Collector::new();
        c.push(vec![Value::Int(7)]);
        assert_eq!(c.items_so_far(), vec![Value::Int(7)]);
    }

    #[test]
    fn fail_propagates_to_waiters() {
        let mut c = Collector::new();
        c.fail(EdenError::EndOfStream);
        assert_eq!(
            c.wait_done(Duration::from_secs(1)).unwrap_err(),
            EdenError::EndOfStream
        );
    }
}
