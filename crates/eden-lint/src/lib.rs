//! Static analysis for the Eden reproduction.
//!
//! Five passes, all runnable from the `eden-lint` binary and from CI:
//!
//! * **Discipline conformance** ([`catalog`], [`fixture`]): every wiring
//!   shape the repo builds — pipeline specs, shell pipelines, recovery
//!   chains — is rendered as a [`eden_transput::WiringGraph`] and checked
//!   against the §3–§5 discipline predicates. Hand-written violation
//!   fixtures prove each predicate actually fires.
//! * **Lock-order audit** ([`lockorder`]): a source-level scan of
//!   eden-kernel and eden-transput extracts the Mutex/RwLock acquisition
//!   graph, detects cycles, and checks every observed nesting against the
//!   blessed partial order in `docs/LOCK_ORDER.md`.
//! * **Atomics-ordering audit** ([`atomics`]): every `Ordering::` site in
//!   the workspace must match a blessed entry in `docs/ATOMICS.md` —
//!   unknown sites, undocumented methods, and downgraded orderings fail.
//! * **Blocking-site audit** ([`blocking`]): every rendezvous call
//!   (condvar wait, channel recv, join, sleep, fsync) in eden-kernel and
//!   eden-transput must run inside `sched::blocking(..)` or carry a
//!   `// eden-lint: nonblocking(reason)` annotation.
//! * **Mailbox protocol conformance** ([`protocol`]): the parking-bit
//!   CAS/store transitions in the code must round-trip against the
//!   declarative table in `eden_kernel::mailbox::spec`, both directions.
//!
//! `scan` owns the shared syntactic machinery; [`report`] renders the
//! machine-readable `--json` report.

pub mod atomics;
pub mod blocking;
pub mod catalog;
pub mod fixture;
pub mod lockorder;
pub mod protocol;
pub mod report;
pub(crate) mod scan;
