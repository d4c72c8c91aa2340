//! The asymmetric stream communication system of Black's SOSP 1983 paper,
//! layered over the Eden kernel.
//!
//! The paper's observation: there are *four* transput primitives — active
//! input, passive output, active output, passive input — and a stream
//! system needs only one **corresponding pair** of them:
//!
//! | discipline | filter's faces (input, output) | pump | fan-in | fan-out | a recoverable pipeline's Ejects ([`recovery`]) |
//! |---|---|---|---|---|---|
//! | read-only | active, passive | the sink | natural | via channels (§5) | source, n stages: n+1 (the run is the sink) |
//! | write-only | passive, active | the source | impossible | natural | source, n stages, acceptor: n+2 |
//! | conventional | active, active | every filter | natural | natural | source, n pumps, n−1 buffers, acceptor: 2n+1 |
//!
//! The conventional discipline pays for its symmetry with n+1 passive
//! buffer Ejects and 2n+2 invocations per datum where the asymmetric
//! disciplines need n+2 Ejects and n+1 invocations (§4).
//!
//! The code looks like that observation: one [`Stage`] (`stage`) with an
//! input face and an output face, each active or passive. Sources, sinks,
//! filters, the Unix pipe and the Unix filter are choices of faces; a
//! discipline is the choice its filters make (`DisciplineKind::faces`),
//! which [`PipelineSpec`] turns into one plan, checks and spawns. Surviving
//! a crash is not a choice of faces but a layer any pair of them may have
//! ([`recovery`]): the stage keeps what it has not been told to forget, and
//! a recoverable pipeline is a [`PipelineSpec`] made `retained`.
//!
//! # Quick start
//!
//! ```
//! use eden_core::Value;
//! use eden_kernel::Kernel;
//! use eden_transput::{Discipline, PipelineSpec};
//! use eden_transput::transform::map_fn;
//! use std::time::Duration;
//!
//! let kernel = Kernel::new();
//! let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
//!     .source_vec((0..5).map(Value::Int).collect())
//!     .stage(Box::new(map_fn("square", |v| {
//!         let i = v.as_int().unwrap();
//!         Value::Int(i * i)
//!     })))
//!     .build(&kernel)
//!     .unwrap()
//!     .run(Duration::from_secs(10))
//!     .unwrap();
//! assert_eq!(run.output[4], Value::Int(16));
//! kernel.shutdown();
//! ```
//!
//! A [`PipelineSpec`] is kernel-free until `build`: the same value can be
//! rendered as a [`conform::WiringGraph`] and statically checked against
//! the discipline predicates (see [`conform`]) — `build` refuses specs
//! whose wiring violates them.

pub mod bytestream;
pub mod channels;
pub mod collector;
pub mod conform;
pub mod devices;
pub(crate) mod pipeline;
pub(crate) mod ports;
pub mod protocol;
pub mod recovery;
pub mod source;
pub(crate) mod stage;
pub mod stdio;
pub mod transform;

pub use channels::ChannelPolicy;
pub use collector::Collector;
pub use conform::{DisciplineKind, Mode, Rule, Violation, WiringGraph};
pub use pipeline::{Discipline, Pipeline, PipelineRun, PipelineSpec, SinkEject};
pub use ports::{FanInMode, InputPort, OutputPort, OutputWiring};
pub use protocol::{Batch, ChannelId, TransferRequest, WriteRequest};
pub use recovery::{
    install_recovery, recoverable_filter, recoverable_source, resume_recoverable_pipeline,
    run_recoverable_pipeline, RecoveryDiscipline, TransformRegistry,
};
pub use stage::{Input, Output, Stage, StageConfig};
pub use transform::{Emitter, Transform};
