// A deliberately protocol-breaking parking-bit user. This file is
// *scanned* by the protocol fixture test, never compiled. The CAS
// takes QUEUED straight to DEAD — an edge `mailbox::spec::TRANSITIONS`
// does not contain — and the store writes a park state directly
// instead of through the scheduler's checked `transition(..)` writer.

impl Rogue {
    fn kill_queued(&self) {
        self.bit
            .compare_exchange(
                park::QUEUED,
                park::DEAD,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .ok();
    }

    fn unproven_requeue(&self) {
        self.bit.store(park::QUEUED, Ordering::Release);
    }
}
