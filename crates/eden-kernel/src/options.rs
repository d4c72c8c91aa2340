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
use std::time::{Duration, Instant};

use eden_core::span::SpanContext;
use eden_core::{EdenError, Metrics, Result, Value};

use crate::invocation::PendingReply;
use crate::kernel::{Attempt, Kernel, Request, WeakKernel};
use crate::routes::RouteCache;

/// Bounded retries with exponential backoff.
///
/// An invocation that resolves with a *retryable* error (see
/// [`EdenError::is_retryable`]) is re-sent up to `max_retries` times,
/// sleeping `base_delay * 2^attempt` (capped at `max_delay`)
/// before each re-send. Fatal errors are returned immediately. The policy
/// is driven lazily by whoever waits on the [`PendingReply`] — sending
/// still never suspends the sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of re-sends (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first re-send.
    pub(crate) base_delay: Duration,
    /// Upper bound on any single backoff pause.
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

    /// Retry up to `n` times with the default backoff curve
    /// (1 ms doubling, capped at 50 ms).
    pub fn retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::none()
        }
    }

    /// Replace the first backoff pause.
    pub fn base_delay(mut self, d: Duration) -> RetryPolicy {
        self.base_delay = d;
        self
    }

    /// Replace the backoff cap.
    pub fn max_delay(mut self, d: Duration) -> RetryPolicy {
        self.max_delay = d;
        self
    }

    /// The pause before re-send number `attempt + 1` (attempt counts
    /// completed sends, so the first retry sees `attempt == 0`).
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let grown = self.base_delay.as_secs_f64() * 2f64.powi(attempt.min(64) as i32);
        Duration::from_secs_f64(grown.min(self.max_delay.as_secs_f64()))
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
#[derive(Default)]
#[derive(Debug)]
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
/// re-sends), the policy, and the attempt counter. Created by
/// [`Kernel::invoke_with`] when the options ask for a deadline or retries;
/// driven lazily by the reply's wait/poll methods.
///
/// Holds only a [`WeakKernel`]: a parked retrying reply never keeps the
/// kernel alive, and a retry after shutdown resolves with
/// [`EdenError::KernelShutdown`].
///
/// [`Kernel::invoke_with`]: crate::Kernel::invoke_with
pub struct RetryState {
    kernel: WeakKernel,
    /// What each attempt sends, its absolute deadline included.
    request: Request,
    policy: RetryPolicy,
    attempt: u32,
    inner: PendingReply,
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

impl fmt::Debug for RetryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryState")
            .field("target", &self.request.target)
            .field("op", &self.request.invocation.op)
            .field("attempt", &self.attempt)
            .field("policy", &self.policy)
            .field("deadline", &self.request.admit_by)
            .finish_non_exhaustive()
    }
}

impl RetryState {
    /// The retry state of `request`, whose first attempt `inner` is sent.
    pub(crate) fn new(
        kernel: &Kernel,
        request: Request,
        policy: RetryPolicy,
        inner: PendingReply,
    ) -> RetryState {
        RetryState {
            kernel: kernel.downgrade(),
            request,
            policy,
            attempt: 0,
            inner,
            metrics: kernel.metrics().clone(),
            finished: false,
            origin: eden_core::span::current(),
        }
    }

    /// Time left before the per-invocation deadline, if one was set.
    fn deadline_remaining(&self) -> Option<Duration> {
        self.request
            .admit_by
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Settle the outcome ledger for this logical invocation, exactly once
    /// (`Drop` runs after every terminal path).
    fn finish(&mut self, ok: bool) {
        if self.finished {
            return;
        }
        self.finished = true;
        if ok {
            self.metrics.record_success();
        } else {
            self.metrics.record_fatal_failure();
        }
    }

    /// Re-send the invocation through the registry, with the first
    /// attempt's absolute deadline. Counts one retry.
    fn resend(&mut self) -> Result<()> {
        let kernel = self.kernel.upgrade().ok_or(EdenError::KernelShutdown)?;
        kernel.metrics().record_retry();
        self.attempt += 1;
        // Re-sends happen on whatever thread is waiting on the reply;
        // restore the ambient span from issue time so the re-sent attempt
        // (and any reactivation it triggers) stays in the original trace.
        let _ambient = self.origin.map(|ctx| eden_core::span::enter(Some(ctx)));
        self.inner = kernel.deliver(self.request.clone(), Attempt::Resend, None, None);
        Ok(())
    }

    fn attempts_left(&self) -> bool {
        self.attempt < self.policy.max_retries
    }

    /// Take the in-flight reply, leaving a placeholder that resolves as a
    /// timeout if somehow observed.
    fn take_inner(&mut self) -> PendingReply {
        std::mem::replace(&mut self.inner, PendingReply::Ready(None))
    }

    pub(crate) fn wait_timeout(mut self: Box<Self>, budget: Duration) -> Result<Value> {
        let start = Instant::now();
        let overall = match self.deadline_remaining() {
            Some(rem) => budget.min(rem),
            None => budget,
        };
        loop {
            let rem = overall.saturating_sub(start.elapsed());
            // eden-lint: timer(deadline)
            match self.take_inner().wait_timeout(rem) {
                Ok(v) => {
                    self.finish(true);
                    return Ok(v);
                }
                Err(e) => {
                    // A Timeout from budget exhaustion leaves no remaining
                    // time, so it is never retried; a fault-injected drop
                    // (an *immediate* Timeout) is.
                    let rem = overall.saturating_sub(start.elapsed());
                    if !e.is_retryable() || !self.attempts_left() || rem.is_zero() {
                        self.finish(false);
                        return Err(e);
                    }
                    let pause = self.policy.backoff(self.attempt).min(rem);
                    if !pause.is_zero() {
                        // eden-lint: timer(backoff)
                        crate::sched::blocking(|| std::thread::sleep(pause));
                    }
                    self.resend()?;
                }
            }
        }
    }

    pub(crate) fn try_wait(
        mut self: Box<Self>,
    ) -> std::result::Result<Result<Value>, Box<RetryState>> {
        match self.take_inner().try_wait() {
            Ok(Ok(v)) => {
                self.finish(true);
                Ok(Ok(v))
            }
            Ok(Err(e)) => {
                let deadline_left = self.deadline_remaining().is_none_or(|rem| !rem.is_zero());
                if e.is_retryable() && self.attempts_left() && deadline_left {
                    // Non-blocking path: the backoff pause is skipped; the
                    // caller's own polling cadence provides the spacing.
                    match self.resend() {
                        Ok(()) => Err(self),
                        Err(err) => {
                            self.finish(false);
                            Ok(Err(err))
                        }
                    }
                } else {
                    self.finish(false);
                    Ok(Err(e))
                }
            }
            Err(pending) => {
                self.inner = pending;
                Err(self)
            }
        }
    }
}

impl Drop for RetryState {
    fn drop(&mut self) {
        // Abandoned without a terminal resolution (the waiter dropped the
        // reply, or `resend` failed on a dead kernel): the logical
        // invocation terminally failed.
        self.finish(false);
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
        assert_eq!(p.backoff(0), Duration::from_millis(2));
        assert_eq!(p.backoff(1), Duration::from_millis(4));
        assert_eq!(p.backoff(2), Duration::from_millis(8));
        assert_eq!(p.backoff(3), Duration::from_millis(10));
        assert_eq!(p.backoff(60), Duration::from_millis(10));
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
        let opts = InvokeOptions::new().retry(RetryPolicy::retries(1)).route_cache(&mut cache);
        assert!(opts.route_cache.is_some());
        assert_eq!(opts.retry.max_retries, 1);
    }
}
