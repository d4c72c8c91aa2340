//! Pure stream transforms — the *filter function*, separated from the
//! *communication discipline*.
//!
//! §3: "a filter is a program which takes a single stream of input and
//! produces a single stream of output; the output is some transformation of
//! the input." In a conventional system the filter also *pumps*; in Eden's
//! read-only discipline it is "a pure transformer". This module captures
//! the transformation alone, so the very same [`Transform`] can be mounted
//! in a read-only, write-only or conventional filter Eject — which is what
//! makes the discipline-equivalence property tests possible.
//!
//! Transforms may emit on secondary channels (§5's report streams) via
//! [`Emitter::emit_on`].

use std::collections::{BTreeMap, VecDeque};

use eden_core::Value;

/// Collects the output of a transform step, per channel.
///
/// A transform only emits into it. Inside [`step`] the records still to be
/// pushed wait at the front of the primary channel, so a transform that
/// drained or inspected the emitter it is handed would see them.
#[derive(Debug, Default)]
pub struct Emitter {
    primary: VecDeque<Value>,
    secondary: BTreeMap<String, Vec<Value>>,
}

impl Emitter {
    /// A fresh, empty emitter.
    pub fn new() -> Emitter {
        Emitter::default()
    }

    /// An emitter already holding `items` on the primary channel: what a
    /// step with no transform mounted comes to, without touching a record.
    pub fn of(items: Vec<Value>) -> Emitter {
        Emitter {
            primary: items.into(),
            secondary: BTreeMap::new(),
        }
    }

    /// Emit a record on the primary output channel.
    pub fn emit(&mut self, item: Value) {
        self.primary.push_back(item);
    }

    /// Emit a record on a named secondary channel (e.g. `"Report"`).
    pub fn emit_on(&mut self, channel: &str, item: Value) {
        self.secondary.entry(channel.to_owned()).or_default().push(item);
    }

    /// Drain the primary output.
    pub fn take_primary(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.primary).into()
    }

    /// Drain every secondary channel's output.
    pub fn take_secondary(&mut self) -> BTreeMap<String, Vec<Value>> {
        std::mem::take(&mut self.secondary)
    }

    /// True when nothing has been emitted since the last drain.
    pub fn is_empty(&self) -> bool {
        self.primary.is_empty() && self.secondary.values().all(Vec::is_empty)
    }
}

/// A pure stream transformation with optional buffering.
///
/// The contract: the adapter feeds every input record through
/// [`push`](Transform::push) in stream order, then calls
/// [`flush`](Transform::flush) exactly once when the input ends. Output
/// order within a channel is the emission order.
pub trait Transform: Send + 'static {
    /// Process one input record.
    fn push(&mut self, item: Value, out: &mut Emitter);

    /// The input has ended; emit anything still buffered (sorters, counters
    /// and paginators produce most of their output here).
    fn flush(&mut self, out: &mut Emitter) {
        let _ = out;
    }

    /// A short name for diagnostics and pipeline listings.
    fn name(&self) -> &'static str {
        "transform"
    }

    /// Names of secondary output channels this transform emits on. The
    /// adapter declares these (after the primary) in its channel table.
    fn secondary_channels(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Snapshot this transform's internal state for a checkpoint.
    ///
    /// `None` means the transform carries no state worth saving (pure
    /// per-record filters). Stateful transforms (counters, sorters,
    /// paginators) should override this *and* [`restore`](Self::restore);
    /// otherwise a recoverable stage brings them back freshly reset.
    fn state(&self) -> Option<Value> {
        None
    }

    /// Reinstate a state previously produced by [`state`](Self::state).
    fn restore(&mut self, state: &Value) -> eden_core::Result<()> {
        let _ = state;
        Ok(())
    }
}

/// One step of a stage's input through whatever it has mounted: push every
/// record, in order, and flush if `end` says these were the last. With no
/// transform the step is a copy, and touches no record.
///
/// The records wait at the front of the emitter's primary queue and the
/// transform emits at its back, each output taking the slot its input left:
/// a step that emits no more than it was given allocates nothing.
pub fn step(transform: &mut Option<Box<dyn Transform>>, items: Vec<Value>, end: bool) -> Emitter {
    let n = items.len();
    let mut out = Emitter::of(items);
    let Some(transform) = transform else {
        return out;
    };
    for _ in 0..n {
        let item = out
            .primary
            .pop_front()
            .expect("the step's own inputs are queued");
        transform.push(item, &mut out);
    }
    if end {
        transform.flush(&mut out);
    }
    out
}

/// The identity transform: a one-stage pipe.
#[derive(Debug)]
pub struct Identity;

impl Transform for Identity {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        out.emit(item);
    }
    fn name(&self) -> &'static str {
        "identity"
    }
}

/// A stateless map transform from a closure.
#[derive(Debug)]
pub struct MapFn<F> {
    f: F,
    label: &'static str,
}

/// Build a map transform from a closure.
pub fn map_fn<F>(label: &'static str, f: F) -> MapFn<F>
where
    F: FnMut(Value) -> Value + Send + 'static,
{
    MapFn { f, label }
}

impl<F> Transform for MapFn<F>
where
    F: FnMut(Value) -> Value + Send + 'static,
{
    fn push(&mut self, item: Value, out: &mut Emitter) {
        out.emit((self.f)(item));
    }
    fn name(&self) -> &'static str {
        self.label
    }
}

/// A stateless filter (predicate) transform from a closure.
#[derive(Debug)]
pub struct FilterFn<F> {
    pred: F,
    label: &'static str,
}

/// Build a predicate transform from a closure: records failing the
/// predicate are dropped.
pub fn filter_fn<F>(label: &'static str, pred: F) -> FilterFn<F>
where
    F: FnMut(&Value) -> bool + Send + 'static,
{
    FilterFn { pred, label }
}

impl<F> Transform for FilterFn<F>
where
    F: FnMut(&Value) -> bool + Send + 'static,
{
    fn push(&mut self, item: Value, out: &mut Emitter) {
        if (self.pred)(&item) {
            out.emit(item);
        }
    }
    fn name(&self) -> &'static str {
        self.label
    }
}

/// Run a transform over a whole input offline (no Ejects involved).
/// Returns the primary output and the per-channel secondary outputs.
///
/// This is the *functional semantics* of a filter; the integration tests
/// assert that every communication discipline produces exactly this.
pub fn apply_offline(
    transform: &mut dyn Transform,
    input: impl IntoIterator<Item = Value>,
) -> (Vec<Value>, BTreeMap<String, Vec<Value>>) {
    let mut out = Emitter::new();
    let mut primary = Vec::new();
    let mut secondary: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    let drain = |out: &mut Emitter, primary: &mut Vec<Value>,
                     secondary: &mut BTreeMap<String, Vec<Value>>| {
        primary.append(&mut out.take_primary());
        for (k, mut v) in out.take_secondary() {
            secondary.entry(k).or_default().append(&mut v);
        }
    };
    for item in input {
        transform.push(item, &mut out);
        drain(&mut out, &mut primary, &mut secondary);
    }
    transform.flush(&mut out);
    drain(&mut out, &mut primary, &mut secondary);
    (primary, secondary)
}

/// Run a chain of transforms offline, feeding each stage's primary output
/// to the next stage. Secondary outputs are collected per stage index.
pub fn apply_chain_offline(
    transforms: &mut [Box<dyn Transform>],
    input: Vec<Value>,
) -> Vec<Value> {
    let mut stream = input;
    for t in transforms.iter_mut() {
        let (primary, _secondary) = apply_offline(t.as_mut(), stream);
        stream = primary;
    }
    stream
}


impl std::fmt::Debug for dyn Transform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Transform({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_through() {
        let (out, sec) = apply_offline(&mut Identity, [Value::Int(1), Value::Int(2)]);
        assert_eq!(out, vec![Value::Int(1), Value::Int(2)]);
        assert!(sec.is_empty());
    }

    #[test]
    fn map_fn_transforms_each() {
        let mut double = map_fn("double", |v| Value::Int(v.as_int().unwrap() * 2));
        let (out, _) = apply_offline(&mut double, [Value::Int(3), Value::Int(4)]);
        assert_eq!(out, vec![Value::Int(6), Value::Int(8)]);
        assert_eq!(double.name(), "double");
    }

    #[test]
    fn filter_fn_drops_failures() {
        let mut evens = filter_fn("evens", |v| v.as_int().map(|i| i % 2 == 0).unwrap_or(false));
        let (out, _) = apply_offline(&mut evens, (0..6).map(Value::Int));
        assert_eq!(out, vec![Value::Int(0), Value::Int(2), Value::Int(4)]);
    }

    #[test]
    fn emitter_secondary_channels() {
        let mut e = Emitter::new();
        e.emit(Value::Int(1));
        e.emit_on("Report", Value::str("note"));
        assert!(!e.is_empty());
        assert_eq!(e.take_primary(), vec![Value::Int(1)]);
        let sec = e.take_secondary();
        assert_eq!(sec["Report"], vec![Value::str("note")]);
        assert!(e.is_empty());
    }

    /// A transform that buffers everything and reverses at flush — checks
    /// flush-time emission.
    struct Reverser(Vec<Value>);
    impl Transform for Reverser {
        fn push(&mut self, item: Value, _out: &mut Emitter) {
            self.0.push(item);
        }
        fn flush(&mut self, out: &mut Emitter) {
            while let Some(v) = self.0.pop() {
                out.emit(v);
            }
        }
    }

    #[test]
    fn flush_time_emission() {
        let (out, _) = apply_offline(&mut Reverser(Vec::new()), (0..3).map(Value::Int));
        assert_eq!(out, vec![Value::Int(2), Value::Int(1), Value::Int(0)]);
    }

    #[test]
    fn chain_composes() {
        let mut chain: Vec<Box<dyn Transform>> = vec![
            Box::new(map_fn("inc", |v| Value::Int(v.as_int().unwrap() + 1))),
            Box::new(filter_fn("gt1", |v| v.as_int().unwrap() > 1)),
        ];
        let out = apply_chain_offline(&mut chain, (0..3).map(Value::Int).collect());
        assert_eq!(out, vec![Value::Int(2), Value::Int(3)]);
    }
}
