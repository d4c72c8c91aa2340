//! The graceful knee: offered load past saturation, open loop.
//!
//! A closed-loop client waits for each reply before it sends again, so it
//! can never offer more than the service absorbs. Here a driver fires
//! invocations on a fixed schedule, whether or not earlier ones have
//! answered, at a bottleneck Eject whose service time is fixed spin work.
//! A reply counts only if it is `Ok` and lands within the SLA of its
//! *scheduled* time, and goodput is taken over the nominal window, so a
//! driver that slips its schedule shows as lost goodput.
//!
//! * A bounded mailbox turns the excess away in microseconds, admitted
//!   work stays fresh, and on-time goodput at 2× saturation keeps ≥ 90 %
//!   of its peak.
//! * An unbounded mailbox queues the excess: the backlog grows without
//!   bound, every request waits behind it, and on-time goodput at 2× falls
//!   under half of the bounded peak. This is the negative control: if the
//!   unbounded queue stops collapsing, the driver is no longer open loop.
//!
//! Rates are calibrated on the host, so only the shape is asserted. The
//! test is alone in its binary so that nothing shares its CPUs.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use eden_core::Value;
use eden_kernel::{
    EjectBehavior, EjectContext, Invocation, Kernel, KernelConfig, PendingReply, ReplyHandle,
};

/// Work per request inside the bottleneck: sets saturation near 2 k/s.
const SERVICE: Duration = Duration::from_micros(500);
/// On-time window, measured from each request's scheduled arrival.
const SLA: Duration = Duration::from_millis(100);
const MAILBOX: usize = 64;
/// Open-loop arrivals a point. Comfortably above `2 · µ · SLA`, the
/// requests an unbounded backlog serves before every completion is late.
const REQUESTS: usize = 2_500;
const DRIVERS: usize = 2;
const CALIBRATION_CLIENTS: usize = 4;
const CALIBRATION_REQUESTS: usize = 300;

/// Burns CPU for [`SERVICE`] a request and replies: spin rather than
/// sleep, so the service rate saturates and not the timer.
struct Bottleneck;

impl EjectBehavior for Bottleneck {
    fn type_name(&self) -> &'static str {
        "Bottleneck"
    }
    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        let t0 = Instant::now();
        while t0.elapsed() < SERVICE {
            std::hint::spin_loop();
        }
        reply.reply(Ok(Value::Unit));
    }
}

/// Closed-loop saturation rate µ: a few clients invoke synchronously on an
/// unbounded kernel.
fn calibrate() -> f64 {
    let kernel = Kernel::new();
    let target = kernel.spawn(Box::new(Bottleneck)).expect("spawn");
    let t0 = Instant::now();
    let clients: Vec<_> = (0..CALIBRATION_CLIENTS)
        .map(|_| {
            let kernel = kernel.clone();
            std::thread::spawn(move || {
                for _ in 0..CALIBRATION_REQUESTS {
                    kernel
                        .invoke(target, "Work", Value::Unit)
                        .wait()
                        .expect("calibrate");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("calibration client");
    }
    let rate = (CALIBRATION_CLIENTS * CALIBRATION_REQUESTS) as f64 / t0.elapsed().as_secs_f64();
    kernel.shutdown();
    rate
}

/// On-time goodput (rec/s) of one open-loop point at `rate` a second,
/// against a mailbox of `bound` (`None`: unbounded).
fn goodput(bound: Option<usize>, rate: f64) -> f64 {
    let kernel = Kernel::with_config(KernelConfig {
        mailbox_bound: bound,
        ..KernelConfig::default()
    });
    let target = kernel.spawn(Box::new(Bottleneck)).expect("spawn");
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(20);
    // Each driver owns every `DRIVERS`-th slot of the schedule and hands
    // each pending reply to its own collector, so waiting for a reply
    // never delays a send, and the schedule never slips.
    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let kernel = kernel.clone();
            std::thread::spawn(move || {
                let (tx, rx) = mpsc::channel::<(PendingReply, Instant)>();
                let collector = std::thread::spawn(move || {
                    rx.into_iter()
                        .map(|(pending, due)| {
                            pending.wait_timeout(Duration::from_secs(15)).is_ok()
                                && due.elapsed() <= SLA
                        })
                        .filter(|&on_time| on_time)
                        .count()
                });
                for i in (d..REQUESTS).step_by(DRIVERS) {
                    let due = start + period.mul_f64(i as f64);
                    // Sleep, never spin: the driver shares the CPUs with
                    // the bottleneck. A late wake-up sends at once, so the
                    // offered load is never thinned.
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let pending = kernel.invoke(target, "Work", Value::Unit);
                    tx.send((pending, due)).expect("collector");
                }
                drop(tx);
                collector.join().expect("collector")
            })
        })
        .collect();
    let on_time: usize = drivers.into_iter().map(|d| d.join().expect("driver")).sum();
    kernel.shutdown();
    on_time as f64 / period.mul_f64(REQUESTS as f64).as_secs_f64()
}

#[test]
fn shedding_keeps_the_knee_graceful_and_an_unbounded_queue_collapses() {
    let saturation = calibrate();
    let bounded_1x = goodput(Some(MAILBOX), saturation);
    let bounded_2x = goodput(Some(MAILBOX), 2.0 * saturation);
    let unbounded_2x = goodput(None, 2.0 * saturation);
    let peak = bounded_1x.max(bounded_2x);
    println!(
        "saturation {saturation:.0} rec/s; bounded 1x {bounded_1x:.0}, 2x {bounded_2x:.0} \
         ({:.1} % of peak); unbounded 2x {unbounded_2x:.0}",
        100.0 * bounded_2x / peak
    );
    assert!(
        bounded_2x >= 0.90 * peak,
        "bounded at 2x saturation ({bounded_2x:.0} rec/s) fell below 90 % of its peak ({peak:.0})"
    );
    assert!(
        unbounded_2x < 0.50 * peak,
        "unbounded at 2x saturation ({unbounded_2x:.0} rec/s) is at least half the bounded \
         peak ({peak:.0}): the driver is not open loop"
    );
}
