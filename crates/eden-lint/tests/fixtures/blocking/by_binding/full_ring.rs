// Condvar waits whose guard is a `&mut` binding, not a `&mut` expression:
// `ring` already is `&mut MutexGuard<..>`, so the calls read `wait(ring)`.
// Neither is wrapped in blocking(..), and the timed one names no timer, so
// the rendezvous audit must report two findings and the timer audit one
// more. The reply waits below are on no condvar and must stay quiet.
// Scanned, never compiled.

struct Core {
    mailq: Mutex<Ring>,
    room: Condvar,
}

impl Core {
    fn wait_for_room(&self, ring: &mut MutexGuard<'_, Ring>, until: Option<Instant>) {
        match until {
            Some(at) => self.room.wait_for(ring, at - Instant::now()),
            None => self.room.wait(ring),
        }
    }

    fn answer(&self, pending: PendingReply, rx: Awaiter, deadline: Duration) {
        let _ = pending.wait();
        let _ = rx.wait_for(deadline);
    }
}
