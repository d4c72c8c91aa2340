// The conforming twin of `lingers/after_reply.rs`: the declared behaviour
// waits first and answers last, and the one that keeps going after its reply
// does not declare. Scanned, never compiled; the audit must stay clean.

impl EjectBehavior for Relay {
    fn type_name(&self) -> &'static str {
        "Relay"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        let out = ctx.invoke(self.next, inv.op, inv.arg).wait();
        reply.reply(out);
    }

    fn internal(&mut self, _ctx: &EjectContext, _event: Value) {
        // eden-lint: timer(injected-latency)
        eden_kernel::blocking(|| std::thread::sleep(self.nap));
        if let Some(parked) = self.parked.take() {
            parked.reply(Ok(Value::Unit));
        }
    }
}

impl EjectBehavior for Lingerer {
    fn type_name(&self) -> &'static str {
        "Lingerer"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
        self.last = ctx.invoke(self.next, inv.op, inv.arg).wait().ok();
    }
}
