// The conforming twin of `lingers/call_after_reply.rs`: the declared
// behaviour calls on first and answers last — which is exactly what lets its
// own caller run it as a call. Scanned, never compiled; the audit must stay
// clean.

impl EjectBehavior for Forwarder {
    fn type_name(&self) -> &'static str {
        "Forwarder"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        let out = ctx.call(self.next, inv.op, inv.arg);
        reply.reply(out);
    }

    fn internal(&mut self, ctx: &EjectContext, event: Value) {
        let noted = ctx.call_routed(&mut self.cache, self.next, "Note", event);
        if let Some(parked) = self.parked.take() {
            parked.reply(noted);
        }
    }
}
