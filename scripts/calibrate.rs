//! The host calibration figure: how fast this host is at the two things a
//! benchmark run of this repository leans on, measured the same way before
//! every pair so that a drift of the host can be told from a change of the
//! code.
//!
//! * `calib_spin_ms` — a fixed single-thread integer loop: the CPU's speed
//!   as this process gets it (frequency, a noisy neighbour on the core).
//! * `calib_pingpong_us` — one round trip between two threads over a
//!   `Mutex` and a `Condvar`: the cost of a wake, which a pipeline hop pays
//!   whenever it parks.
//!
//! Each is the median of five trials, printed as a `name value` line.
//! Standalone on purpose: built with plain `rustc` outside the workspace,
//!
//! ```text
//! rustc -O --edition 2021 -o calibrate scripts/calibrate.rs && ./calibrate
//! ```

use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

const SPIN_STEPS: u64 = 50_000_000;
const ROUND_TRIPS: u32 = 5_000;
const TRIALS: usize = 5;

/// A fixed xorshift walk: the same work on every host, in milliseconds.
fn spin_ms() -> f64 {
    let from = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..SPIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    from.elapsed().as_secs_f64() * 1e3
}

/// Round trips between this thread and a second one, each side waiting on
/// the `Condvar` for the turn the other hands it, in microseconds a trip.
fn pingpong_us() -> f64 {
    let turn = Arc::new((Mutex::new(0u32), Condvar::new()));
    let peer = Arc::clone(&turn);
    let echo = std::thread::spawn(move || {
        let (lock, cv) = &*peer;
        let mut n = lock.lock().unwrap();
        for i in 0..ROUND_TRIPS {
            n = cv.wait_while(n, |n| *n != 2 * i + 1).unwrap();
            *n += 1;
            cv.notify_one();
        }
    });
    let (lock, cv) = &*turn;
    let from = Instant::now();
    let mut n = lock.lock().unwrap();
    for i in 0..ROUND_TRIPS {
        *n += 1;
        cv.notify_one();
        n = cv.wait_while(n, |n| *n != 2 * i + 2).unwrap();
    }
    let elapsed = from.elapsed();
    drop(n);
    echo.join().unwrap();
    elapsed.as_secs_f64() * 1e6 / f64::from(ROUND_TRIPS)
}

fn median(mut trial: impl FnMut() -> f64) -> f64 {
    let mut xs: Vec<f64> = (0..TRIALS).map(|_| trial()).collect();
    xs.sort_by(f64::total_cmp);
    xs[TRIALS / 2]
}

fn main() {
    println!("calib_spin_ms {:.3}", median(spin_ms));
    println!("calib_pingpong_us {:.3}", median(pingpong_us));
}
