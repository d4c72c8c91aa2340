//! The wiring vocabulary of the faces: which peers an active face holds.
//!
//! An active *input* holds [`InputPort`]s — "one of [the initialisation
//! arguments] is the Unique Identifier of the Eject from which it is to
//! obtain its input" (§4) — and, holding several, interleaves them by a
//! [`FanInMode`]: fan-in is natural to a face that reads (§5). An active
//! *output* holds an [`OutputWiring`] of [`OutputPort`]s, any number per
//! channel: fan-out is natural to a face that writes, and Figure 3's report
//! streams are just extra destinations. Neither face knows anything about
//! the other side of its stage.

use eden_core::{Uid, Value};

use crate::protocol::{Batch, ChannelId, WriteRequest, OUTPUT_NAME};
use crate::transform::Emitter;

/// How a multi-input filter interleaves its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanInMode {
    /// Read input 0 to its end, then input 1, and so on (like `cat a b`).
    #[default]
    Concatenate,
    /// Alternate batches across the inputs that have not yet ended.
    RoundRobin,
    /// Take one record from every input and emit the tuple
    /// `Value::List([r0, r1, ...])`; the stream ends when any input ends.
    /// This is the shape file-comparison filters consume.
    Zip,
}

/// One upstream connection: which Eject, which of its channels.
#[derive(Debug, Clone, Copy)]
pub struct InputPort {
    /// The source Eject.
    pub uid: Uid,
    /// Which of its output channels to read.
    pub channel: ChannelId,
}

impl InputPort {
    /// The common case: a source's primary channel.
    pub fn primary(uid: Uid) -> InputPort {
        InputPort {
            uid,
            channel: ChannelId::output(),
        }
    }
}

/// An active input's ports, and how far it has read them. Opaque: built by
/// [`Input::pull`](crate::stage::Input::pull),
/// [`Input::ports`](crate::stage::Input::ports) and
/// [`Input::labelled`](crate::stage::Input::labelled).
#[derive(Debug)]
pub struct InputPuller {
    ports: Vec<InputPort>,
    /// A label per port for its records to carry, or none at all.
    labels: Vec<Value>,
    ended: Vec<bool>,
    mode: FanInMode,
    next: usize,
    pub(crate) done: bool,
}

impl InputPuller {
    pub(crate) fn new(ports: Vec<InputPort>, mode: FanInMode) -> InputPuller {
        let n = ports.len();
        InputPuller {
            ports,
            labels: Vec::new(),
            ended: vec![false; n],
            mode,
            next: 0,
            done: n == 0,
        }
    }

    /// Wrap every record as `{from: label, item: record}`, by its port.
    pub(crate) fn labelled(mut self, labels: Vec<String>) -> InputPuller {
        self.labels = labels.into_iter().map(Value::from).collect();
        self
    }

    /// The ports the next step of input asks, and for how many records
    /// each: every port for one under `Zip`, else the next port that has not
    /// ended for `batch`. None once the input is exhausted.
    pub(crate) fn asks(&mut self, batch: usize) -> (std::ops::Range<usize>, usize) {
        let n = self.ports.len();
        if self.done {
            return (0..0, batch);
        }
        if self.mode == FanInMode::Zip {
            return (0..n, 1);
        }
        while self.ended[self.next % n] {
            self.next += 1;
        }
        let port = self.next % n;
        (port..port + 1, batch)
    }

    /// Where port `idx` reads from.
    pub(crate) fn port(&self, idx: usize) -> InputPort {
        self.ports[idx]
    }

    /// The step of input [`asks`](Self::asks) began, once its batches are
    /// in, in the order asked (they are drained): the records, and whether
    /// the input is now exhausted.
    pub(crate) fn complete(&mut self, batches: &mut Vec<Batch>) -> (Vec<Value>, bool) {
        let n = self.ports.len();
        if self.mode == FanInMode::Zip {
            let asked = !batches.is_empty();
            let mut tuple = Vec::with_capacity(n);
            for b in batches.drain(..) {
                self.done |= b.end || b.items.is_empty();
                tuple.extend(b.items);
            }
            // A partial tuple (some input ended mid-row) is discarded: zip
            // semantics.
            let items = match asked && tuple.len() == n {
                true => vec![Value::list(tuple)],
                false => Vec::new(),
            };
            return (items, self.done);
        }
        let Some(mut b) = batches.pop() else {
            return (Vec::new(), self.done);
        };
        let idx = self.next % n;
        self.ended[idx] = b.end;
        if let Some(label) = self.labels.get(idx) {
            let labelled = |item| Value::record([("from", label.clone()), ("item", item)]);
            b.items = b.items.into_iter().map(labelled).collect();
        }
        if self.mode == FanInMode::RoundRobin {
            self.next += 1;
        }
        self.done = self.ended.iter().all(|&e| e);
        (b.items, self.done)
    }
}

/// One downstream connection: which Eject to write to, and the channel tag
/// the records carry (meaningful when the receiver multiplexes inputs).
#[derive(Debug, Clone, Copy)]
pub struct OutputPort {
    /// The receiving Eject.
    pub(crate) uid: Uid,
    /// The channel tag presented in the `Write`.
    pub(crate) channel: ChannelId,
}

impl OutputPort {
    /// The common case: write to the receiver's primary input.
    pub fn primary(uid: Uid) -> OutputPort {
        OutputPort {
            uid,
            channel: ChannelId::output(),
        }
    }
}

/// Where each named output channel of a transform goes. Entry 0 is the
/// primary output; multiple ports per channel give fan-out.
#[derive(Debug, Clone, Default)]
pub struct OutputWiring {
    routes: Vec<(String, Vec<OutputPort>)>,
}

impl OutputWiring {
    /// Wiring with only a primary destination.
    pub(crate) fn primary_to(port: OutputPort) -> OutputWiring {
        let mut w = OutputWiring::default();
        w.add(OUTPUT_NAME, port);
        w
    }

    /// Add a destination for a named channel.
    pub fn add(&mut self, channel: &str, port: OutputPort) -> &mut Self {
        match self.routes.iter_mut().find(|(name, _)| name == channel) {
            Some((_, ports)) => ports.push(port),
            None => self.routes.push((channel.to_owned(), vec![port])),
        }
        self
    }

    /// The first wired destination: a retained stage's one peer.
    pub(crate) fn first(&self) -> Option<Uid> {
        Some(self.routes.first()?.1.first()?.uid)
    }

    /// Total number of wired destinations.
    pub(crate) fn fan_out(&self) -> usize {
        self.routes.iter().map(|(_, p)| p.len()).sum()
    }
}

/// Deliver a batch of (channel, items) to every wired destination.
/// `end` is forwarded on every wired channel — one the step emitted
/// nothing on included — so downstream streams close; what was emitted on
/// an unwired channel falls on the floor.
///
/// Fan-out shares one batch allocation: the items list is lifted into a
/// single shared `Value::List` per channel and every destination's `Write`
/// argument carries a reference bump of it — O(1) bytes moved per extra
/// consumer, where this used to deep-copy the whole batch per branch.
/// `send` receives the pre-encoded `Write` argument, which says where in
/// the stream its first record stands when `seq` does.
pub(crate) fn deliver(
    wiring: &OutputWiring,
    emitter: &mut Emitter,
    end: bool,
    seq: Option<u64>,
    send: &mut impl FnMut(OutputPort, Value),
) {
    let mut primary = emitter.take_primary();
    let mut secondary = emitter.take_secondary();
    for (name, ports) in &wiring.routes {
        let items = match name.as_str() {
            OUTPUT_NAME => std::mem::take(&mut primary),
            _ => secondary.remove(name).unwrap_or_default(),
        };
        if items.is_empty() && !end {
            continue;
        }
        // Every destination but the last takes a share; the last takes the
        // list itself, which its receiver then moves out instead of copying.
        let Some((last, others)) = ports.split_last() else {
            continue;
        };
        let shared_items = Value::list(items);
        for port in others {
            let arg = WriteRequest::value_shared_at(port.channel, shared_items.clone(), end, seq);
            send(*port, arg);
        }
        send(
            *last,
            WriteRequest::value_shared_at(last.channel, shared_items, end, seq),
        );
    }
}
