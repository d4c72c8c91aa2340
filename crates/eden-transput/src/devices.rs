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
//! to read from multiple sources." [`report_window`] is that device: the
//! sink stage over several labelled ports.

use eden_core::Value;

use crate::collector::Collector;
use crate::ports::InputPort;
use crate::protocol::Batch;
use crate::source::PullSource;
use crate::stage::{Input, Output, Stage, StageConfig};

/// A display window that reads from multiple sources (Figure 4): a sink
/// that pumps its `(label, port)` subscriptions in turn, `batch` records a
/// `Transfer`, and lands each record in `collector` as `{from: label, item:
/// record}`. The collector finishes when every subscribed stream has ended.
pub fn report_window(
    subscriptions: Vec<(String, InputPort)>,
    batch: usize,
    collector: Collector,
) -> Stage {
    let input = Input::labelled(subscriptions);
    Stage::new(input, Output::local(collector), StageConfig::batch(batch))
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
    use eden_kernel::Kernel;
    use std::time::Duration;

    #[test]
    fn window_merges_labelled_streams() {
        let kernel = Kernel::new();
        let subs: Vec<(String, InputPort)> = [("alpha", 3i64), ("beta", 2i64)]
            .into_iter()
            .map(|(label, n)| {
                let source = kernel
                    .spawn(Box::new(Stage::new(
                        Input::Local(Box::new(VecSource::new((0..n).map(Value::Int).collect()))),
                        Output::Passive,
                        StageConfig::default(),
                    )))
                    .unwrap();
                (label.to_owned(), InputPort::primary(source))
            })
            .collect();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(report_window(subs, 4, collector.clone())))
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
            .spawn(Box::new(report_window(vec![], 4, collector.clone())))
            .unwrap();
        assert!(collector
            .wait_done(Duration::from_secs(5))
            .unwrap()
            .is_empty());
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
                Output::local(collector.clone()),
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
