//! An in-process reproduction of the Eden kernel, the substrate beneath the
//! asymmetric stream system of Black's SOSP 1983 paper.
//!
//! Eden's world contains exactly two kinds of thing: **Ejects** (active
//! objects with unforgeable UIDs) and **invocations** (location-independent
//! request/reply messages). This crate provides both, plus the kernel
//! services the paper's transput design leans on:
//!
//! * [`Kernel`] — registry, routing, activation-on-invocation, simulated
//!   nodes, fault injection, shutdown;
//! * [`EjectBehavior`] — the "type code" of an Eject, parked on its mailbox
//!   and resumed by a pool worker when mail arrives;
//! * [`EjectContext`] / [`ProcessContext`] — invocation sending, worker
//!   processes, internal (language-level) messaging, checkpointing;
//! * [`ReplyHandle`] / [`PendingReply`] — first-class replies. Parking a
//!   `ReplyHandle` *is* the paper's passive output;
//! * [`StableStore`] — where passive representations live between lives.
//!
//! # Example
//!
//! ```
//! use eden_core::Value;
//! use eden_kernel::{EjectBehavior, EjectContext, Invocation, Kernel, ReplyHandle};
//!
//! /// An Eject that replies to `Add` with a running total.
//! struct Accumulator { total: i64 }
//!
//! impl EjectBehavior for Accumulator {
//!     fn type_name(&self) -> &'static str { "Accumulator" }
//!     fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
//!         match inv.op.as_str() {
//!             "Add" => {
//!                 self.total += inv.arg.as_int().unwrap_or(0);
//!                 reply.reply(Ok(Value::Int(self.total)));
//!             }
//!             _ => reply.reply(Err(eden_core::EdenError::NoSuchOperation {
//!                 target: ctx.uid(), op: inv.op.clone(),
//!             })),
//!         }
//!     }
//! }
//!
//! let kernel = Kernel::new();
//! let acc = kernel.spawn(Box::new(Accumulator { total: 0 })).unwrap();
//! assert_eq!(kernel.invoke(acc, "Add", Value::Int(2)).wait().unwrap(), Value::Int(2));
//! assert_eq!(kernel.invoke(acc, "Add", Value::Int(3)).wait().unwrap(), Value::Int(5));
//! kernel.shutdown();
//! ```


mod behavior;
mod context;
mod deque;
mod fault;
mod invocation;
mod kernel;
pub mod mailbox;
mod obs;
mod options;
mod routes;
mod runtime;
mod sched;
mod stable;

pub use behavior::EjectBehavior;
pub use context::{EjectContext, InternalSender, ProcessContext};
pub use fault::{FaultKind, FaultPlan, FaultRule};
pub use invocation::{
    reply_pair, Invocation, PendingReply, ReplyHandle, DEFAULT_REPLY_TIMEOUT,
};
pub use kernel::{
    EjectInfo, EjectState, Kernel, KernelBuilder, KernelConfig, NodeId, TypeFactory, WeakKernel,
};
pub use mailbox::{ShedCause, ShedPolicy};
pub use obs::{
    chrome_trace_json, json_text, prometheus_text, render_events, Histogram, KernelSnapshot,
    Lifecycle, LifecycleRecord, MailboxSnapshot, ObsConfig, SpanRecord, StageSummary,
};
pub use options::{FaultExposure, InvokeOptions, RetryPolicy};
pub use routes::{Route, RouteCache};
pub use sched::{blocking, SchedSnapshot, SchedulerConfig};
pub use stable::{
    DurableConfig, DurableLog, FsyncPolicy, MemBacked, PassiveRecord, StableBackend, StableStats,
    StableStore,
};
