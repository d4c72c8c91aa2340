// The same broken promise as `after_reply.rs`, spelled with the fused verb: a
// `call` is a send and a wait, so after the reply it is one wait too many —
// cached or not. Two findings, one a handler. Scanned, never compiled.

impl EjectBehavior for Forwarder {
    fn type_name(&self) -> &'static str {
        "Forwarder"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
        self.last = ctx.call(self.next, inv.op, inv.arg).ok();
    }

    fn internal(&mut self, ctx: &EjectContext, event: Value) {
        if let Some(parked) = self.parked.take() {
            parked.reply(Ok(Value::Unit));
        }
        let _ = ctx.call_routed(&mut self.cache, self.next, "Note", event);
    }
}
