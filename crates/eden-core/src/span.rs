//! Causal span contexts for the observability plane.
//!
//! The paper's cost argument is denominated in invocations; a [`SpanContext`]
//! makes each delivered invocation one node of a causal tree, so a single
//! datum's path through a pipeline — n+1 invocations under the read-only and
//! write-only disciplines, 2n+2 under the conventional one — can be
//! reconstructed after the fact instead of inferred from aggregate counters.
//!
//! Propagation is *ambient*: the current span is a thread-local. A
//! coordinator installs the span of the invocation it is dispatching, worker
//! processes inherit the ambient span of whoever spawned them, and the kernel
//! parents every outgoing invocation under whatever is ambient at send time.
//! This mirrors how the disciplines actually move data: a lazy pull filter
//! forwards synchronously *during* handling (ambient = the downstream
//! Transfer), a pump worker pulls and pushes from a thread spawned under the
//! pipeline's root span, and a retry re-sends under the ambient captured when
//! the invocation was first issued — so a crash/reactivate cycle keeps the
//! original trace id.
//!
//! Ids are process-unique counters, not random: two kernels in one process
//! share the id space, which is exactly what the exporters want.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global id well. Starts at 1 so 0 never names a real trace or span.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The causal coordinates of one invocation: which trace it belongs to,
/// which span it is, and which span caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace this span belongs to (stable across retries, batching, and
    /// checkpoint recovery).
    pub trace: u64,
    /// This span's own id, unique within the process.
    pub span: u64,
    /// The causing span, if any (`None` for a trace root).
    pub parent: Option<u64>,
    /// Hops from the root (root = 0).
    pub hop: u32,
}

impl SpanContext {
    /// Start a fresh trace.
    pub fn root() -> SpanContext {
        let id = next_id();
        SpanContext {
            trace: id,
            span: id,
            parent: None,
            hop: 0,
        }
    }

    /// A child span caused by `self`: same trace, one hop deeper.
    pub(crate) fn child(&self) -> SpanContext {
        SpanContext {
            trace: self.trace,
            span: next_id(),
            parent: Some(self.span),
            hop: self.hop.saturating_add(1),
        }
    }
}

thread_local! {
    static AMBIENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// The span ambient on this thread, if any.
pub fn current() -> Option<SpanContext> {
    AMBIENT.with(|cell| cell.get())
}

/// A child of the ambient span, or a fresh root if nothing is ambient.
pub fn child_of_current() -> SpanContext {
    match current() {
        Some(ctx) => ctx.child(),
        None => SpanContext::root(),
    }
}

/// Install `ctx` as this thread's ambient span until the guard drops
/// (restoring whatever was ambient before). Passing `None` clears the
/// ambient for the guard's lifetime.
pub fn enter(ctx: Option<SpanContext>) -> AmbientGuard {
    let prev = AMBIENT.with(|cell| cell.replace(ctx));
    AmbientGuard { prev }
}

/// RAII guard from [`enter`]; restores the previous ambient span on drop.
#[derive(Debug)]
pub struct AmbientGuard {
    prev: Option<SpanContext>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|cell| cell.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_child_share_a_trace() {
        let root = SpanContext::root();
        let child = root.child();
        assert_eq!(child.trace, root.trace);
        assert_eq!(child.parent, Some(root.span));
        assert_eq!(child.hop, 1);
        assert_ne!(child.span, root.span);
    }

    #[test]
    fn distinct_roots_are_distinct_traces() {
        assert_ne!(SpanContext::root().trace, SpanContext::root().trace);
    }

    #[test]
    fn ambient_nests_and_restores() {
        assert_eq!(current(), None);
        let outer = SpanContext::root();
        {
            let _g = enter(Some(outer));
            assert_eq!(current(), Some(outer));
            let inner = child_of_current();
            assert_eq!(inner.parent, Some(outer.span));
            {
                let _g2 = enter(Some(inner));
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(outer));
            {
                let _g3 = enter(None);
                assert_eq!(current(), None);
            }
            assert_eq!(current(), Some(outer));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn child_of_empty_ambient_is_a_root() {
        let _g = enter(None);
        let ctx = child_of_current();
        assert_eq!(ctx.parent, None);
        assert_eq!(ctx.hop, 0);
        assert_eq!(ctx.trace, ctx.span);
    }

    #[test]
    fn ambient_is_per_thread() {
        let root = SpanContext::root();
        let _g = enter(Some(root));
        let seen = std::thread::spawn(current).join().unwrap();
        assert_eq!(seen, None, "ambient spans must not leak across threads");
    }
}
