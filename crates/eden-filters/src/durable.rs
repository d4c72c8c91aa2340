//! Durable (checkpointable) filter Ejects.
//!
//! §1: "The data in a passive representation should be sufficient to
//! enable the Eject they represent to re-construct itself in a consistent
//! state." Files checkpoint in `eden-fs`; this module applies the same
//! contract to *pipeline stages*. A [`DurableFilterEject`] is a read-only
//! (active-input / passive-output) filter whose passive representation
//! captures:
//!
//! * the filter's identity — the `make_filter` name and arguments;
//! * the transform's internal state ([`Transform::state`]);
//! * the undelivered output buffers;
//! * the upstream connection (UID + integer channel) and progress flags.
//!
//! After a crash, the next `Transfer` reactivates it and the stream
//! continues from the last checkpoint. Recovery semantics are
//! **at-most-once** for progress since that checkpoint: records the filter
//! consumed from upstream after its last checkpoint are lost (the
//! upstream's cursor has moved on). With `auto_checkpoint` the filter
//! checkpoints after serving every `Transfer`, so a crash *between*
//! operations loses nothing.
//!
//! Design restrictions (deliberate — this is the checkpointable subset):
//! lazy pulling only, a single input, integer channel identifiers (a
//! capability channel's UID would be forged on reconstruction, which is
//! exactly what §5 promises cannot happen).

use std::collections::VecDeque;

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, Kernel, ReplyHandle};
use eden_transput::protocol::{Batch, ChannelId, GetChannelRequest, TransferRequest};
use eden_transput::transform::{Emitter, Transform};

use crate::make_filter;

/// The Eden type name of [`DurableFilterEject`].
pub const DURABLE_FILTER_TYPE: &str = "DurableFilter";

/// The identity of a filter in the `make_filter` registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Registry name, e.g. `"line-number"`.
    pub name: String,
    /// String arguments.
    pub args: Vec<String>,
}

impl FilterSpec {
    /// A spec with no arguments.
    pub fn new(name: &str) -> FilterSpec {
        FilterSpec {
            name: name.to_owned(),
            args: Vec::new(),
        }
    }

    /// A spec with arguments.
    pub fn with_args<I, S>(name: &str, args: I) -> FilterSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FilterSpec {
            name: name.to_owned(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    fn build(&self) -> Result<Box<dyn Transform>> {
        let args: Vec<&str> = self.args.iter().map(String::as_str).collect();
        make_filter(&self.name, &args)
    }

    fn to_value(&self) -> Value {
        Value::record([
            ("name", Value::str(self.name.clone())),
            (
                "args",
                Value::List(self.args.iter().map(|a| Value::str(a.clone())).collect()),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<FilterSpec> {
        Ok(FilterSpec {
            name: v.field("name")?.as_str()?.to_owned(),
            args: v
                .field("args")?
                .as_list()?
                .iter()
                .map(|a| a.as_str().map(str::to_owned))
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

/// A crash-recoverable read-only filter. See the module docs.
#[derive(Debug)]
pub struct DurableFilterEject {
    spec: FilterSpec,
    transform: Box<dyn Transform>,
    input: Uid,
    input_channel: u32,
    batch: usize,
    auto_checkpoint: bool,
    /// Output buffers: index 0 is the primary channel, then the
    /// transform's secondary channels in declaration order.
    buffers: Vec<VecDeque<Value>>,
    channel_names: Vec<String>,
    input_done: bool,
    flushed: bool,
}

impl DurableFilterEject {
    /// Build a durable filter pulling `input`'s primary channel.
    pub fn new(spec: FilterSpec, input: Uid, batch: usize) -> Result<DurableFilterEject> {
        Self::assemble(spec, input, 0, batch, true, None)
    }

    fn assemble(
        spec: FilterSpec,
        input: Uid,
        input_channel: u32,
        batch: usize,
        auto_checkpoint: bool,
        state: Option<&Value>,
    ) -> Result<DurableFilterEject> {
        let mut transform = spec.build()?;
        if let Some(state) = state {
            transform.restore(state)?;
        }
        let mut channel_names = vec![eden_transput::protocol::OUTPUT_NAME.to_owned()];
        channel_names.extend(transform.secondary_channels().iter().map(|s| s.to_string()));
        let buffers = (0..channel_names.len()).map(|_| VecDeque::new()).collect();
        Ok(DurableFilterEject {
            spec,
            transform,
            input,
            input_channel,
            batch: batch.max(1),
            auto_checkpoint,
            buffers,
            channel_names,
            input_done: false,
            flushed: false,
        })
    }

    /// Reactivation constructor for the kernel's type registry.
    pub fn from_passive(rep: Option<Value>) -> Result<Box<dyn EjectBehavior>> {
        let rep = rep.ok_or_else(|| {
            EdenError::CorruptCheckpoint("durable filter needs a representation".into())
        })?;
        let spec = FilterSpec::from_value(rep.field("spec")?)?;
        let state = rep.field_opt("state").cloned();
        let mut filter = Self::assemble(
            spec,
            rep.field("input")?.as_uid()?,
            rep.field("input_channel")?.as_int()? as u32,
            rep.field("batch")?.as_int()? as usize,
            rep.field("auto_checkpoint")?.as_bool()?,
            state.as_ref(),
        )?;
        filter.input_done = rep.field("input_done")?.as_bool()?;
        filter.flushed = rep.field("flushed")?.as_bool()?;
        for (idx, buffered) in rep.field("buffers")?.as_list()?.iter().enumerate() {
            if let Some(buffer) = filter.buffers.get_mut(idx) {
                *buffer = buffered.as_list()?.iter().cloned().collect();
            }
        }
        Ok(Box::new(filter))
    }

    /// Register the reactivation constructor on a kernel. Required before
    /// any durable filter can recover from a crash.
    pub fn register(kernel: &Kernel) {
        kernel.register_type(DURABLE_FILTER_TYPE, DurableFilterEject::from_passive);
    }

    fn channel_index(&self, channel: ChannelId) -> Result<usize> {
        match channel {
            ChannelId::Number(n) if (n as usize) < self.buffers.len() => Ok(n as usize),
            ChannelId::Number(n) => {
                Err(EdenError::NoSuchChannel(format!("no channel numbered {n}")))
            }
            ChannelId::Cap(_) => Err(EdenError::NotAuthorized(
                "durable filters use integer channel identifiers".into(),
            )),
        }
    }

    fn drain_emitter(&mut self, mut emitter: Emitter) {
        for item in emitter.take_primary() {
            self.buffers[0].push_back(item);
        }
        for (name, items) in emitter.take_secondary() {
            if let Some(idx) = self.channel_names.iter().position(|n| *n == name) {
                self.buffers[idx].extend(items);
            }
        }
    }

    fn fill(&mut self, ctx: &EjectContext, idx: usize, want: usize) {
        while self.buffers[idx].len() < want && !self.flushed {
            if self.input_done {
                let mut emitter = Emitter::new();
                self.transform.flush(&mut emitter);
                self.drain_emitter(emitter);
                self.flushed = true;
                break;
            }
            let req = TransferRequest {
                channel: ChannelId::Number(self.input_channel),
                max: self.batch,
                pos: None,
            };
            match ctx
                .invoke(self.input, ops::TRANSFER, req.to_value()).wait()
                .and_then(Batch::from_value)
            {
                Ok(batch) => {
                    let mut emitter = Emitter::new();
                    for item in batch.items {
                        self.transform.push(item, &mut emitter);
                    }
                    self.drain_emitter(emitter);
                    if batch.end {
                        self.input_done = true;
                    }
                }
                Err(_) => {
                    // Upstream failure ends the stream at the last
                    // consistent point.
                    self.input_done = true;
                }
            }
        }
    }
}

impl EjectBehavior for DurableFilterEject {
    fn type_name(&self) -> &'static str {
        DURABLE_FILTER_TYPE
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            ops::TRANSFER => {
                let req = match TransferRequest::from_value(&inv.arg) {
                    Ok(r) => r,
                    Err(e) => {
                        reply.reply(Err(e));
                        return;
                    }
                };
                let idx = match self.channel_index(req.channel) {
                    Ok(idx) => idx,
                    Err(e) => {
                        reply.reply(Err(e));
                        return;
                    }
                };
                if idx == 0 {
                    self.fill(ctx, 0, req.max);
                }
                let buffer = &mut self.buffers[idx];
                let n = req.max.min(buffer.len());
                let items: Vec<Value> = buffer.drain(..n).collect();
                let end = self.flushed && self.buffers[idx].is_empty();
                // Checkpoint the post-delivery state *before* replying, so
                // a crash after the reply cannot resurrect already-served
                // records (no duplicates, per the module contract).
                if self.auto_checkpoint {
                    if let Some(rep) = self.passive_representation() {
                        let _ = ctx.checkpoint(&rep);
                    }
                }
                reply.reply(Ok(Batch { items, end }.to_value()));
            }
            ops::GET_CHANNEL => {
                let result = GetChannelRequest::from_value(&inv.arg).and_then(|req| {
                    self.channel_names
                        .iter()
                        .position(|n| *n == req.name)
                        .map(|idx| Value::from(ChannelId::Number(idx as u32)))
                        .ok_or_else(|| {
                            EdenError::NoSuchChannel(format!("no channel named `{}`", req.name))
                        })
                });
                reply.reply(result);
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }

    fn passive_representation(&self) -> Option<Value> {
        let state = self.transform.state().unwrap_or(Value::Unit);
        Some(Value::record([
            ("spec", self.spec.to_value()),
            ("state", state),
            ("input", Value::Uid(self.input)),
            ("input_channel", Value::Int(i64::from(self.input_channel))),
            ("batch", Value::Int(self.batch as i64)),
            ("auto_checkpoint", Value::Bool(self.auto_checkpoint)),
            ("input_done", Value::Bool(self.input_done)),
            ("flushed", Value::Bool(self.flushed)),
            (
                "buffers",
                Value::List(
                    self.buffers
                        .iter()
                        .map(|b| Value::List(b.iter().cloned().collect()))
                        .collect(),
                ),
            ),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_transput::source::VecSource;
    use eden_transput::{Input, Output, Stage, StageConfig};

    fn lines_source(kernel: &Kernel, n: i64) -> Uid {
        kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new(
                    (0..n).map(|i| Value::str(format!("line {i}"))).collect(),
                ))),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap()
    }

    fn transfer(kernel: &Kernel, target: Uid, max: usize) -> Batch {
        Batch::from_value(
            kernel
                .invoke(target, ops::TRANSFER, TransferRequest::primary(max).to_value()).wait()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn durable_filter_streams_normally() {
        let kernel = Kernel::new();
        DurableFilterEject::register(&kernel);
        let src = lines_source(&kernel, 6);
        let filter = kernel
            .spawn(Box::new(
                DurableFilterEject::new(FilterSpec::new("line-number"), src, 2).unwrap(),
            ))
            .unwrap();
        let mut out = Vec::new();
        loop {
            let b = transfer(&kernel, filter, 4);
            out.extend(b.items);
            if b.end {
                break;
            }
        }
        assert_eq!(out.len(), 6);
        assert!(out[5].as_str().unwrap().starts_with("     6"));
        kernel.shutdown();
    }

    #[test]
    fn crash_between_transfers_preserves_continuity() {
        let kernel = Kernel::new();
        DurableFilterEject::register(&kernel);
        let src = lines_source(&kernel, 8);
        let filter = kernel
            .spawn(Box::new(
                DurableFilterEject::new(FilterSpec::new("line-number"), src, 2).unwrap(),
            ))
            .unwrap();
        let first = transfer(&kernel, filter, 4);
        assert_eq!(first.items.len(), 4);
        // Fail-stop the filter between operations; the next Transfer
        // reactivates it from its auto-checkpoint.
        kernel.crash(filter).unwrap();
        let mut rest = Vec::new();
        loop {
            let b = transfer(&kernel, filter, 3);
            rest.extend(b.items);
            if b.end {
                break;
            }
        }
        assert_eq!(rest.len(), 4, "remaining records after recovery");
        // Numbering continues where the checkpoint left it: no repeats,
        // no resets.
        assert!(rest[0].as_str().unwrap().starts_with("     5"), "{rest:?}");
        assert!(rest[3].as_str().unwrap().starts_with("     8"));
        kernel.shutdown();
    }

    #[test]
    fn unknown_filter_spec_fails_to_build() {
        assert!(DurableFilterEject::new(FilterSpec::new("bogus"), Uid::fresh(), 2).is_err());
    }

    #[test]
    fn capability_channel_refused() {
        let kernel = Kernel::new();
        let src = lines_source(&kernel, 1);
        let filter = kernel
            .spawn(Box::new(
                DurableFilterEject::new(FilterSpec::new("copy"), src, 2).unwrap(),
            ))
            .unwrap();
        let err = kernel
            .invoke(
                filter,
                ops::TRANSFER,
                TransferRequest {
                    channel: ChannelId::Cap(Uid::fresh()),
                    max: 1,
                    pos: None,
                }
                .to_value(),
            ).wait()
            .unwrap_err();
        assert!(matches!(err, EdenError::NotAuthorized(_)));
        kernel.shutdown();
    }

    #[test]
    fn spec_value_roundtrip() {
        let spec = FilterSpec::with_args("grep", ["-v", "pat"]);
        assert_eq!(FilterSpec::from_value(&spec.to_value()).unwrap(), spec);
    }
}
