//! The kernel's one timer: a deadline map whose arms post an Eject one
//! internal event (`Value::Unit`) once their instant has passed. It is how
//! a step with nothing to do until then — a retry's backoff, a polled
//! reply's deadline, a retained stage's next look — gets its next turn
//! without a pool worker sleeping for it. The thread that waits on the map
//! is the scheduler's stall monitor (`sched.rs`), whose tick is the map's
//! periodic arm, so the timer adds no thread.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::context::InternalSender;

/// What an arm is known by: its instant, and a sequence number that tells
/// two arms for the same instant apart.
type Key = (Instant, u64);

#[derive(Default)]
struct Arms {
    due: BTreeMap<Key, InternalSender>,
    seq: u64,
    stopped: bool,
}

/// The deadline map and the condvar its waiter sleeps on. Its lock is a
/// leaf: nothing is posted, and no sender dropped, while it is held.
#[derive(Default)]
pub(crate) struct Timer {
    arms: Mutex<Arms>,
    /// Signalled when an arm goes in first, and at stop: the waiter sleeps
    /// until the first arm at the latest.
    earlier: Condvar,
}

/// An arm that is taken back when it is dropped.
pub(crate) struct Arm {
    timer: Arc<Timer>,
    key: Key,
}

impl Drop for Arm {
    fn drop(&mut self) {
        let taken = self.timer.arms.lock().due.remove(&self.key);
        // Only now, with the lock released: the last sender's drop may free
        // a task, and with it arms of its own.
        drop(taken);
    }
}

impl Timer {
    /// Post `to` one internal event at `at`; after [`stop`](Self::stop),
    /// never.
    pub(crate) fn post_at(&self, at: Instant, to: &InternalSender) -> Key {
        let mut arms = self.arms.lock();
        arms.seq += 1;
        let key = (at, arms.seq);
        if !arms.stopped {
            arms.due.insert(key, to.clone());
            if arms.due.keys().next() == Some(&key) {
                self.earlier.notify_one();
            }
        }
        key
    }

    /// [`post_at`](Self::post_at), taken back if the arm is dropped first.
    pub(crate) fn arm(self: &Arc<Self>, at: Instant, to: &InternalSender) -> Arm {
        Arm {
            key: self.post_at(at, to),
            timer: Arc::clone(self),
        }
    }

    /// Wait until `tick`, posting each arm as it falls due meanwhile.
    /// `false` once stopped.
    pub(crate) fn wait_until(&self, tick: Instant) -> bool {
        loop {
            let (due, ticked) = {
                let mut arms = self.arms.lock();
                let now = loop {
                    if arms.stopped {
                        return false;
                    }
                    let next = arms.due.keys().next().map_or(tick, |(at, _)| tick.min(*at));
                    let now = Instant::now();
                    if next <= now {
                        break now;
                    }
                    // eden-lint: timer(kernel-timer)
                    // eden-lint: nonblocking(the monitor thread's own wait, never a pool worker)
                    self.earlier.wait_for(&mut arms, next - now);
                };
                let later = arms.due.split_off(&(now, u64::MAX));
                (std::mem::replace(&mut arms.due, later), now >= tick)
            };
            for to in due.into_values() {
                to.wake();
            }
            if ticked {
                return true;
            }
        }
    }

    /// Drop every arm, and wake the waiter to see that the timer stopped.
    pub(crate) fn stop(&self) {
        let dropped = {
            let mut arms = self.arms.lock();
            arms.stopped = true;
            std::mem::take(&mut arms.due)
        };
        self.earlier.notify_all();
        drop(dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A mailbox attached to no task: what the timer posts stays in its
    /// ring, to be counted.
    fn mailbox() -> (InternalSender, crate::mailbox::MailboxSender) {
        let (tx, _core) = crate::mailbox::mailbox(None);
        let internal = InternalSender {
            tx: tx.clone(),
            metrics: eden_core::Metrics::new(),
        };
        (internal, tx)
    }

    /// The timer's waiter, as the monitor runs it, with a tick far off.
    fn waiter(timer: &Arc<Timer>) -> std::thread::JoinHandle<()> {
        let timer = Arc::clone(timer);
        std::thread::spawn(
            move || {
                while timer.wait_until(Instant::now() + Duration::from_secs(60)) {}
            },
        )
    }

    fn until(what: impl Fn() -> bool) -> Duration {
        let start = Instant::now();
        while !what() && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        start.elapsed()
    }

    #[test]
    fn an_arm_earlier_than_the_one_waited_for_posts_on_time() {
        let timer = Arc::new(Timer::default());
        let (late, late_ring) = mailbox();
        let (early, early_ring) = mailbox();
        let _late = timer.arm(Instant::now() + Duration::from_secs(30), &late);
        let waiting = waiter(&timer);
        // The waiter is asleep until the 30 s arm when the early one goes in.
        std::thread::sleep(Duration::from_millis(20));
        timer.post_at(Instant::now() + Duration::from_millis(20), &early);
        let took = until(|| early_ring.depth() == 1);
        assert!(took < Duration::from_secs(2), "posted after {took:?}");
        assert_eq!(late_ring.depth(), 0);
        timer.stop();
        waiting.join().unwrap();
    }

    #[test]
    fn no_arm_posts_after_stop() {
        let timer = Arc::new(Timer::default());
        let (to, ring) = mailbox();
        let waiting = waiter(&timer);
        let soon = Instant::now() + Duration::from_millis(200);
        timer.post_at(soon, &to);
        let _kept = timer.arm(soon, &to);
        timer.stop();
        waiting.join().unwrap();
        timer.post_at(Instant::now(), &to);
        assert!(!timer.wait_until(Instant::now()), "a stopped timer waits");
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(ring.depth(), 0);
    }

    #[test]
    fn a_dropped_arm_never_posts() {
        let timer = Arc::new(Timer::default());
        let (to, ring) = mailbox();
        drop(timer.arm(Instant::now(), &to));
        timer.post_at(Instant::now(), &to);
        assert!(timer.wait_until(Instant::now()));
        assert_eq!(ring.depth(), 1);
    }
}
