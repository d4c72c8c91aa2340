// Three timed waits, all wrapped as the rendezvous audit wants. The first is
// a timer the design needs and says so; the second sleeps and looks again
// without saying why, and the third names a reason that is not a timer. The
// timer audit must report two findings. Scanned, never compiled.

impl Teardown {
    fn reply_or_deadline(&self, pending: PendingReply) -> Result<Value> {
        // eden-lint: timer(deadline)
        eden_kernel::blocking(|| pending.wait_timeout(self.deadline))
    }

    fn until_gone(&self) {
        while self.kernel.eject_state(self.uid).is_some() {
            eden_kernel::blocking(|| std::thread::sleep(Duration::from_millis(2)));
        }
    }

    fn until_drained(&self) {
        let mut guard = self.state.lock();
        while !guard.drained {
            // eden-lint: timer(patience)
            eden_kernel::blocking(|| self.cv.wait_for(&mut guard, self.tick));
        }
    }
}
