//! Cached invocation routes: the fast path of the invocation plane.
//!
//! Resolving a UID through the registry costs a shard lock on every
//! invocation. For stream transput that is pure overhead: a connection
//! invokes the *same* upstream Eject thousands of times in a row. A
//! [`Route`] snapshots the outcome of one resolution — the target's mailbox
//! sender, node placement, and incarnation — and a [`RouteCache`] lets a
//! connection reuse it for every subsequent invocation without touching the
//! registry at all.
//!
//! Staleness is detected, never prevented: a route goes stale when its
//! coordinator exits (deactivation, crash, shutdown), which drops the
//! mailbox receiver and makes the cached sender's `send` fail. The kernel
//! then falls back to the slow registry path — reactivating a passive
//! target exactly as an uncached invocation would ("if a passive eject is
//! sent an invocation, the Eden kernel will activate it", §1) — refreshes
//! the cache, and delivers the *same* invocation. Callers cannot observe
//! the difference except in the `route_cache_hits` / `route_cache_misses`
//! counters; location independence is preserved because the cache is an
//! optimisation below the UID abstraction, not an address handed to users.

use std::fmt;

use eden_core::Uid;

use crate::kernel::NodeId;
use crate::mailbox::MailboxSender;

/// A resolved fast path to one Eject: its mailbox, node, and incarnation
/// at resolution time. Cheap to clone (a channel-sender `Arc` bump).
///
/// A `Route` never becomes *wrong*, only *stale*: holding one does not keep
/// the target active, and sending through a stale route transparently falls
/// back to the registry.
#[derive(Clone)]
pub(crate) struct Route {
    pub(crate) target: Uid,
    pub(crate) tx: MailboxSender,
    pub(crate) node: NodeId,
    pub(crate) incarnation: u64,
}

impl fmt::Debug for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Route")
            .field("target", &self.target)
            .field("node", &self.node)
            .field("incarnation", &self.incarnation)
            .finish_non_exhaustive()
    }
}

/// Routes kept per cache. Connections talk to a handful of Ejects (their
/// upstream, occasionally a secondary input), so a small linear map beats a
/// hash map; the cap only matters for callers that sweep many targets
/// through one cache.
const ROUTE_CACHE_CAP: usize = 32;

/// A small per-caller map from UID to `Route`.
///
/// Deliberately *not* shared or synchronised: each connection (or external
/// caller) owns its cache, so the fast path is lock-free by construction.
/// Create one with [`RouteCache::new`] and pass it to
/// [`Kernel::call_routed`](crate::Kernel::call_routed),
/// [`EjectContext::invoke_routed`](crate::EjectContext::invoke_routed), or
/// [`InvokeOptions::route_cache`](crate::InvokeOptions::route_cache).
#[derive(Default, Debug)]
pub struct RouteCache {
    routes: Vec<Route>,
}

impl RouteCache {
    /// An empty cache.
    pub fn new() -> Self {
        RouteCache::default()
    }

    /// The cached route for `target`, if any, lent: a hit sends through
    /// the cached sender and bumps no count.
    pub(crate) fn lookup(&self, target: Uid) -> Option<&Route> {
        self.routes.iter().find(|r| r.target == target)
    }

    /// Cache `route`, replacing any previous route to the same target.
    /// Evicts the oldest entry when full.
    pub(crate) fn insert(&mut self, route: Route) {
        if let Some(existing) = self.routes.iter_mut().find(|r| r.target == route.target) {
            *existing = route;
            return;
        }
        if self.routes.len() == ROUTE_CACHE_CAP {
            self.routes.remove(0);
        }
        self.routes.push(route);
    }

    /// Drop the cached route for `target`, if any. The next invocation of
    /// that target through this cache takes the slow registry path.
    pub(crate) fn invalidate(&mut self, target: Uid) {
        self.routes.retain(|r| r.target != target);
    }
}
