// A behaviour that declares `replies_last` and breaks the promise twice:
// `handle` answers and then calls on, `internal` answers a parked handle and
// then naps. Both waits are wrapped as the rendezvous audit wants, so the
// two findings are the new rule's alone. Scanned, never compiled.

impl EjectBehavior for Lingerer {
    fn type_name(&self) -> &'static str {
        "Lingerer"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
        self.last = ctx.invoke(self.next, inv.op, inv.arg).wait().ok();
    }

    fn internal(&mut self, _ctx: &EjectContext, _event: Value) {
        if let Some(parked) = self.parked.take() {
            parked.reply(Ok(Value::Unit));
        }
        eden_kernel::blocking(|| std::thread::sleep(self.nap));
    }
}
