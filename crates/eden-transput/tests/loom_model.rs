//! Interleaving models for the transput plane, compiled only under
//! `RUSTFLAGS="--cfg loom"` (see `vendor/loom` for what `model` means in
//! this offline build).
//!
//! One property is modelled:
//!
//! **Checkpoint-before-reply ordering** — §7 recovery correctness
//! rests on the acceptor checkpointing *before* acknowledging a
//! record (see `recovery.rs`: a crash between ack and checkpoint
//! would lose an acknowledged record). The model is the classic
//! release/acquire message-passing shape: if an observer (the
//! reactivating replacement) sees ack `n`, it must also see a
//! checkpoint covering at least `n`.
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

#[test]
fn checkpoint_is_visible_before_the_reply_it_covers() {
    loom::model(|| {
        // `stable` is the acceptor's checkpointed high-water mark;
        // `acked` is the reply counter the producer observes. The
        // acceptor's publish order (checkpoint, then ack) uses Release
        // so an Acquire reader of `acked` also sees the checkpoint.
        let stable = Arc::new(AtomicUsize::new(0));
        let acked = Arc::new(AtomicUsize::new(0));

        let acceptor = {
            let stable = stable.clone();
            let acked = acked.clone();
            thread::spawn(move || {
                for seq in 1..=3usize {
                    stable.store(seq, Ordering::Release);
                    acked.store(seq, Ordering::Release);
                }
            })
        };

        // The reactivating replacement: at whatever point it comes up,
        // every acknowledged record must already be covered by the
        // checkpoint it reloads.
        let observer = {
            let stable = stable.clone();
            let acked = acked.clone();
            thread::spawn(move || {
                for _ in 0..3 {
                    let seen_acked = acked.load(Ordering::Acquire);
                    let seen_stable = stable.load(Ordering::Acquire);
                    assert!(
                        seen_stable >= seen_acked,
                        "ack {seen_acked} observed with checkpoint at {seen_stable}: \
                         a crash here would lose an acknowledged record"
                    );
                    thread::yield_now();
                }
            })
        };

        acceptor.join().unwrap();
        observer.join().unwrap();
        assert_eq!(stable.load(Ordering::Acquire), 3);
        assert_eq!(acked.load(Ordering::Acquire), 3);
    });
}
