//! Core types for the Eden asymmetric-stream reproduction.
//!
//! This crate contains the vocabulary shared by every other crate in the
//! workspace: unforgeable identifiers ([`Uid`]), the dynamically-typed
//! [`Value`] carried by invocations, the tag-length-value [`wire`] codec used
//! for checkpointed passive representations, the [`EdenError`] type,
//! operation names ([`OpName`]), and the `metrics` counters and
//! [`CostModel`] used to reproduce the paper's analytic cost comparisons.
//!
//! The paper this workspace reproduces is Andrew P. Black, *An Asymmetric
//! Stream Communication System*, Proc. 9th ACM Symposium on Operating
//! Systems Principles (SOSP), 1983. See `DESIGN.md` at the workspace root
//! for the full system inventory.

pub(crate) mod error;
pub mod hostfs;
pub(crate) mod metrics;
pub mod op;
pub mod payload;
pub mod span;
pub mod stream;
pub(crate) mod uid;
pub mod value;
pub mod wire;

pub use error::{EdenError, Result};
pub use hostfs::{HostFs, HostFsHandle, MemFs, RealFs};
pub use metrics::{CostModel, Metrics, MetricsSnapshot};
pub use op::OpName;
pub use payload::PayloadSnapshot;
pub use stream::StreamSnapshot;
pub use uid::Uid;
pub use value::{SharedList, SharedRecord, Shelf, Text, Value};
