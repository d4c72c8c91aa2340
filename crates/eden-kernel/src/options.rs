//! Invocation options: deadlines, retry policy, route caching, fault
//! immunity — the configuration side of the one invocation verb.
//!
//! The verb is [`Kernel::invoke`], which returns a [`PendingReply`];
//! [`Kernel::invoke_with`] is the same verb with its knobs gathered in a
//! builder-style [`InvokeOptions`], and [`Kernel::call`] the same send
//! fused with the wait. Whatever the options, one kernel function sends
//! every attempt: a [`RetryState`] re-sends through it too.
//!
//! [`Kernel::invoke`]: crate::Kernel::invoke
//! [`Kernel::invoke_with`]: crate::Kernel::invoke_with
//! [`Kernel::call`]: crate::Kernel::call

use std::fmt;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use eden_core::span::SpanContext;
use eden_core::{EdenError, Metrics, Result, Value};

use crate::context::InternalSender;
use crate::invocation::PendingReply;
use crate::kernel::{Attempt, KernelInner, Request};
use crate::routes::RouteCache;
use crate::timer::Arm;

/// Bounded retries with exponential backoff.
///
/// An invocation that resolves with a *retryable* error (see
/// [`EdenError::is_retryable`]) is re-sent up to `max_retries` times. The
/// first re-send goes at once — a re-send is the recovery, reactivating a
/// crashed target — and each later one after a pause of `base_delay`,
/// then `2 * base_delay`, and so on, capped at `max_delay` or at
/// `base_delay` if that is longer: a base delay is never cut. A re-send
/// that would leave no time to wait for it is not sent: the last error is
/// returned instead. Fatal errors are returned immediately. The policy is
/// driven by whoever holds the [`PendingReply`] — sending still never
/// suspends the sender: a thread that waits sleeps each pause, and an Eject
/// that polls is posted its next step by the kernel's timer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of re-sends (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the second re-send (the first goes at once).
    pub(crate) base_delay: Duration,
    /// Upper bound on the doubled pauses (never below `base_delay`).
    pub(crate) max_delay: Duration,
}

impl RetryPolicy {
    /// Never retry (the default).
    pub(crate) fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }

    /// Retry up to `n` times with the default backoff curve (the first
    /// re-send at once, then 1 ms doubling, capped at 50 ms).
    pub fn retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::none()
        }
    }

    /// Replace the first backoff pause (before the second re-send).
    pub fn base_delay(mut self, d: Duration) -> RetryPolicy {
        self.base_delay = d;
        self
    }

    /// Replace the backoff cap. A cap below the base delay caps the
    /// pauses at the base delay instead.
    pub fn max_delay(mut self, d: Duration) -> RetryPolicy {
        self.max_delay = d;
        self
    }

    /// The pause before re-send number `attempt + 1` (attempt counts
    /// completed re-sends, so the first retry sees `attempt == 0`, and 0).
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let Some(doublings) = attempt.checked_sub(1) else {
            return Duration::ZERO;
        };
        let grown = self.base_delay.as_secs_f64() * 2f64.powi(doublings.min(64) as i32);
        let cap = self.max_delay.max(self.base_delay);
        Duration::from_secs_f64(grown.min(cap.as_secs_f64()))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Per-invocation configuration for [`Kernel::invoke_with`], built fluently:
///
/// ```no_run
/// use std::time::Duration;
/// use eden_kernel::{InvokeOptions, RetryPolicy};
///
/// let opts = InvokeOptions::new()
///     .deadline(Duration::from_secs(2))
///     .retry(RetryPolicy::retries(3));
/// ```
///
/// The default options reproduce the plain [`Kernel::invoke`] behaviour
/// exactly: no deadline beyond the wait call's own, no retries, no route
/// cache, subject to any installed fault plan.
///
/// [`Kernel::invoke`]: crate::Kernel::invoke
/// [`Kernel::invoke_with`]: crate::Kernel::invoke_with
#[derive(Default, Debug)]
pub struct InvokeOptions<'a> {
    /// Overall per-invocation deadline, measured from the send. Waits and
    /// retries both stop when it expires, whatever the wait call's own
    /// budget says.
    pub(crate) deadline: Option<Duration>,
    /// The retry policy (default: no retries).
    pub retry: RetryPolicy,
    /// A caller-owned route cache: the first delivery attempt skips the
    /// kernel registry on a hit. Retries always re-resolve through the
    /// registry (the borrow ends when `invoke_with` returns).
    pub(crate) route_cache: Option<&'a mut RouteCache>,
    /// Whether this invocation is subject to the kernel's installed fault
    /// plan (default) or immune to it — control-plane traffic such as a
    /// chaos driver's own progress polls sets this to `false`.
    pub(crate) faults: FaultExposure,
}

/// Whether an invocation can be selected by the fault injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum FaultExposure {
    /// The installed fault plan may select this invocation (the default).
    #[default]
    Subject,
    /// The fault plan never sees this invocation.
    Immune,
}

impl<'a> InvokeOptions<'a> {
    /// Options reproducing plain `invoke` semantics.
    pub fn new() -> InvokeOptions<'static> {
        InvokeOptions::default()
    }

    /// Set an overall per-invocation deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Route the first delivery attempt through a caller-owned cache.
    pub fn route_cache<'b>(self, cache: &'b mut RouteCache) -> InvokeOptions<'b>
    where
        'a: 'b,
    {
        InvokeOptions {
            deadline: self.deadline,
            retry: self.retry,
            route_cache: Some(cache),
            faults: self.faults,
        }
    }

    /// Exempt this invocation from the installed fault plan.
    pub fn immune(mut self) -> Self {
        self.faults = FaultExposure::Immune;
        self
    }

    pub(crate) fn subject_to_faults(&self) -> bool {
        self.faults == FaultExposure::Subject
    }

    pub(crate) fn needs_driver(&self) -> bool {
        self.deadline.is_some() || self.retry.max_retries > 0
    }
}

/// The state machine behind a retrying [`PendingReply`]: the request (for
/// re-sends), the policy, and the attempt counter. Created by a send or a
/// call whose options ask for a deadline or retries ([`Kernel::invoke_with`]);
/// driven by [`step`](Self::step), which whoever holds the reply calls when
/// it waits or polls.
///
/// Holds the kernel only weakly: a parked retrying reply never keeps its
/// state allocated, and a retry after shutdown resolves with
/// [`EdenError::KernelShutdown`].
///
/// [`Kernel::invoke_with`]: crate::Kernel::invoke_with
pub struct RetryState {
    kernel: Weak<KernelInner>,
    /// What each attempt sends, its absolute deadline included.
    request: Request,
    policy: RetryPolicy,
    attempt: u32,
    /// The attempt in flight, or the last one's error while `resend_at` is
    /// set.
    pub(crate) inner: PendingReply,
    /// When the next attempt goes, while nothing is in flight.
    resend_at: Option<Instant>,
    /// A poller's arm on the kernel's timer, taken back at the outcome.
    armed: Option<Arm>,
    /// For the outcome ledger: a driver-owned invocation settles
    /// `successes`/`fatal_failures` here, exactly once, at its *terminal*
    /// resolution — per-attempt replies never touch the ledger.
    metrics: Metrics,
    finished: bool,
    /// The span ambient when the invocation was first issued. Re-entered
    /// around every re-send so retries (and any reactivation they trigger)
    /// stay in the original trace.
    origin: Option<SpanContext>,
}

/// What one [`RetryState::step`] came to.
pub(crate) enum Step {
    /// The outcome of the whole invocation; the ledger is settled, and the
    /// state is done with.
    Done(Result<Value>),
    /// An attempt is out, its reply not in; it times out at this instant.
    InFlight(Option<Instant>),
    /// Nothing is out: the next attempt goes at this instant.
    Paused(Instant),
}

impl fmt::Debug for RetryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryState")
            .field("target", &self.request.target)
            .field("op", &self.request.invocation.op)
            .field("attempt", &self.attempt)
            .field("policy", &self.policy)
            .field("deadline", &self.request.deadline)
            .finish_non_exhaustive()
    }
}

impl RetryState {
    /// The retry state of `request`, whose first attempt `inner` is sent.
    pub(crate) fn new(
        kernel: &Arc<KernelInner>,
        request: Request,
        policy: RetryPolicy,
        inner: PendingReply,
    ) -> RetryState {
        RetryState {
            kernel: Arc::downgrade(kernel),
            request,
            policy,
            attempt: 0,
            inner,
            resend_at: None,
            armed: None,
            metrics: Metrics::clone(&kernel.metrics),
            finished: false,
            origin: eden_core::span::current(),
        }
    }

    /// The one retry driver, and it never waits: take the outcome of the
    /// attempt in flight if it is in, and re-send what is due. A retryable
    /// failure pauses for [`RetryPolicy::backoff`] (the first re-send goes
    /// at once) if a re-send is left and the pause ends before the deadline
    /// and `until` — no attempt is sent that neither leaves time to wait
    /// for. An attempt still out at either is a `Timeout`. `to`, if given,
    /// is posted when the attempt in flight is in, or its pause ends.
    pub(crate) fn step(&mut self, until: Option<Instant>, to: Option<&InternalSender>) -> Step {
        let end = until.into_iter().chain(self.request.deadline).min();
        let step = loop {
            let open = end.is_none_or(|end| Instant::now() < end);
            if let Some(at) = self.resend_at {
                if Instant::now() < at {
                    break Step::Paused(at);
                }
                self.resend_at = None;
                // A pause that overran the deadline re-sends nothing: the
                // last error stands.
                if open {
                    self.resend();
                    continue;
                }
            }
            let e = match self.inner.poll(to) {
                None if open => break Step::InFlight(end),
                None => return self.finish(Err(EdenError::Timeout)),
                Some(Ok(v)) => return self.finish(Ok(v)),
                Some(Err(e)) => e,
            };
            let at = Instant::now() + self.policy.backoff(self.attempt);
            let fits = end.is_none_or(|end| at < end);
            if !(e.is_retryable() && self.attempt < self.policy.max_retries && fits) {
                return self.finish(Err(e));
            }
            self.inner = PendingReply::ready(Err(e));
            self.resend_at = Some(at);
        };
        // `to` is posted at the pause's end too, and at the deadline.
        if let (Some(to), Step::Paused(at) | Step::InFlight(Some(at))) = (to, &step) {
            self.armed = self
                .kernel
                .upgrade()
                .map(|kernel| kernel.sched.timer.arm(*at, to));
        }
        step
    }

    /// The outcome, which settles the ledger. Whoever asked drops the state
    /// next, and with it the attempt's registration and the timer's arm.
    fn finish(&mut self, result: Result<Value>) -> Step {
        self.finished = true;
        if result.is_ok() {
            self.metrics.record_success();
        } else {
            self.metrics.record_fatal_failure();
        }
        Step::Done(result)
    }

    /// Re-send the invocation through the registry, with the first
    /// attempt's absolute deadline, as the call the first send was: a wake
    /// it wins may run the callee on this thread. Counts one retry.
    fn resend(&mut self) {
        let Some(kernel) = self.kernel.upgrade() else {
            self.inner = PendingReply::ready(Err(EdenError::KernelShutdown));
            return;
        };
        self.metrics.record_retry();
        self.attempt += 1;
        // Re-sends happen on whatever thread is waiting on the reply;
        // restore the ambient span from issue time so the re-sent attempt
        // (and any reactivation it triggers) stays in the original trace.
        let _ambient = self.origin.map(|ctx| eden_core::span::enter(Some(ctx)));
        let mut woken = None;
        let request = self.request.clone();
        self.inner = kernel.deliver(request, Attempt::Resend, None, Some(&mut woken));
        if let Some(woken) = woken {
            woken.run_as_call(&|| self.inner.is_settled());
        }
    }
}

impl Drop for RetryState {
    fn drop(&mut self) {
        // Abandoned without a terminal resolution (the waiter dropped the
        // reply): the logical invocation terminally failed.
        if !self.finished {
            self.metrics.record_fatal_failure();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::retries(10)
            .base_delay(Duration::from_millis(2))
            .max_delay(Duration::from_millis(10));
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(2), Duration::from_millis(4));
        assert_eq!(p.backoff(3), Duration::from_millis(8));
        assert_eq!(p.backoff(4), Duration::from_millis(10));
        assert_eq!(p.backoff(60), Duration::from_millis(10));
    }

    #[test]
    fn a_base_delay_above_the_cap_is_not_cut() {
        // `max_delay` stays at its 50 ms default.
        let p = RetryPolicy::retries(2).base_delay(Duration::from_millis(250));
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(1), Duration::from_millis(250));
        assert_eq!(p.backoff(2), Duration::from_millis(250));
    }

    #[test]
    fn default_policy_never_retries() {
        assert_eq!(RetryPolicy::default().max_retries, 0);
        assert_eq!(RetryPolicy::none(), RetryPolicy::default());
    }

    #[test]
    fn options_builder_accumulates() {
        let opts = InvokeOptions::new()
            .deadline(Duration::from_secs(1))
            .retry(RetryPolicy::retries(2))
            .immune();
        assert_eq!(opts.deadline, Some(Duration::from_secs(1)));
        assert_eq!(opts.retry.max_retries, 2);
        assert!(!opts.subject_to_faults());
        assert!(opts.needs_driver());
        assert!(!InvokeOptions::new().needs_driver());
    }

    #[test]
    fn options_route_cache_narrowing() {
        let mut cache = RouteCache::new();
        let opts = InvokeOptions::new()
            .retry(RetryPolicy::retries(1))
            .route_cache(&mut cache);
        assert!(opts.route_cache.is_some());
        assert_eq!(opts.retry.max_retries, 1);
    }
}
