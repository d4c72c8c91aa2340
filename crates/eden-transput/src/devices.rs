//! Device Ejects: behaviour-defined terminals, windows and trivial
//! sources.
//!
//! §4: "any Eject which responds to *Read* invocations is by definition a
//! source, and any Eject which generates them is a sink. The null sink is
//! an Eject which reads indiscriminately and ignores the data it is given.
//! An Eject which responds to a read invocation by returning the current
//! date and time is a source."
//!
//! Figure 4's caption: "It is assumed that the Report Window is designed
//! to read from multiple sources." [`WindowEject`] is that device: one
//! sink pumping several (source, channel) subscriptions concurrently,
//! labelling each record with its subscription.

use eden_core::op::ops;
use eden_core::{EdenError, Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, ReplyHandle};

use crate::collector::Collector;
use crate::protocol::{Batch, ChannelId, TransferRequest};
use crate::source::PullSource;

/// One stream a window watches.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// A label shown on every record from this stream.
    pub label: String,
    /// The source Eject.
    pub source: Uid,
    /// Which of its channels to read.
    pub channel: ChannelId,
}

/// A display window that reads from multiple sources (Figure 4).
///
/// Each subscription gets its own pump process; records land in the shared
/// collector as `Record{from, item}`. The collector finishes when every
/// subscribed stream has ended.
#[derive(Debug)]
pub struct WindowEject {
    subscriptions: Vec<Subscription>,
    collector: Collector,
    batch: usize,
}

impl WindowEject {
    /// Watch `subscriptions`, landing labelled records in `collector`.
    pub fn new(
        subscriptions: Vec<Subscription>,
        batch: usize,
        collector: Collector,
    ) -> WindowEject {
        WindowEject {
            subscriptions,
            collector,
            batch: batch.max(1),
        }
    }
}

impl EjectBehavior for WindowEject {
    fn type_name(&self) -> &'static str {
        "ReportWindow"
    }

    // The pumps wait, in processes of their own; the handler only answers.
    fn replies_last(&self) -> bool {
        true
    }

    fn activate(&mut self, ctx: &EjectContext) {
        let total = self.subscriptions.len();
        if total == 0 {
            self.collector.finish();
            return;
        }
        let internal = ctx.internal_sender();
        for sub in self.subscriptions.clone() {
            let collector = self.collector.clone();
            let batch = self.batch;
            let internal = internal.clone();
            ctx.spawn_process(&format!("watch-{}", sub.label), move |pctx| {
                loop {
                    if pctx.should_stop() {
                        return;
                    }
                    let req = TransferRequest {
                        channel: sub.channel,
                        max: batch,
                        pos: None,
                    };
                    let pending = pctx.invoke(sub.source, ops::TRANSFER, req.to_value());
                    match pctx.wait_or_stop(pending).and_then(Batch::from_value) {
                        Ok(b) => {
                            if !b.items.is_empty() {
                                collector.append(
                                    b.items
                                        .into_iter()
                                        .map(|item| {
                                            Value::record([
                                                ("from", Value::str(sub.label.clone())),
                                                ("item", item),
                                            ])
                                        })
                                        .collect(),
                                );
                            }
                            if b.end {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                // Tell the coordinator one stream is done.
                let _ = internal.send(Value::str("stream-ended"));
            });
        }
    }

    fn internal(&mut self, _ctx: &EjectContext, _event: Value) {
        // Count ended streams by decrementing the remaining subscriptions.
        if let Some(sub) = self.subscriptions.pop() {
            drop(sub);
        }
        if self.subscriptions.is_empty() && !self.collector.is_done() {
            self.collector.finish();
        }
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Progress" => reply.reply(Ok(Value::Int(self.collector.records_seen() as i64))),
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

/// A deterministic clock source: each record is a monotonically increasing
/// "timestamp" record. The paper's date/time source, made reproducible.
#[derive(Debug)]
pub struct TickSource {
    next: i64,
    limit: i64,
}

impl TickSource {
    /// A clock producing `limit` ticks (use `i64::MAX` for "infinite").
    pub fn new(limit: i64) -> TickSource {
        TickSource { next: 0, limit }
    }
}

impl PullSource for TickSource {
    fn pull(&mut self, max: usize) -> Batch {
        let mut items = Vec::new();
        while items.len() < max && self.next < self.limit {
            items.push(Value::record([
                ("tick", Value::Int(self.next)),
                (
                    "display",
                    Value::str(format!(
                        "day {} {:02}:{:02}",
                        self.next / 1440,
                        (self.next / 60) % 24,
                        self.next % 60
                    )),
                ),
            ]));
            self.next += 1;
        }
        if self.next >= self.limit {
            Batch::last(items)
        } else {
            Batch::more(items)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use crate::stage::{Input, Output, Stage, StageConfig};
    use eden_kernel::Kernel;
    use std::time::Duration;

    #[test]
    fn window_merges_labelled_streams() {
        let kernel = Kernel::new();
        let subs: Vec<Subscription> = [("alpha", 3i64), ("beta", 2i64)]
            .into_iter()
            .map(|(label, n)| {
                let source = kernel
                    .spawn(Box::new(Stage::new(
                        Input::Local(Box::new(VecSource::new(
                        (0..n).map(Value::Int).collect(),
                    ))),
                        Output::Passive,
                        StageConfig::default(),
                    )))
                    .unwrap();
                Subscription {
                    label: label.to_owned(),
                    source,
                    channel: ChannelId::output(),
                }
            })
            .collect();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(WindowEject::new(subs, 4, collector.clone())))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items.len(), 5);
        let alphas = items
            .iter()
            .filter(|r| r.field("from").unwrap().as_str().unwrap() == "alpha")
            .count();
        assert_eq!(alphas, 3);
        kernel.shutdown();
    }

    #[test]
    fn window_with_no_subscriptions_finishes_immediately() {
        let kernel = Kernel::new();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(WindowEject::new(vec![], 4, collector.clone())))
            .unwrap();
        assert!(collector.wait_done(Duration::from_secs(5)).unwrap().is_empty());
        kernel.shutdown();
    }

    #[test]
    fn tick_source_is_a_source() {
        let kernel = Kernel::new();
        let clock = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(TickSource::new(5))),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(clock),
                Output::Collector(collector.clone()),
                StageConfig::batch(2),
            )))
            .unwrap();
        let ticks = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(ticks.len(), 5);
        assert_eq!(ticks[4].field("tick").unwrap().as_int().unwrap(), 4);
        assert!(ticks[0]
            .field("display")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("day 0"));
        kernel.shutdown();
    }
}
