//! Layer probes: timings taken from outside, by calling a layer's public
//! functions directly on a fresh kernel (or with no kernel at all) under the
//! workload's CPU placement. Run by traced runs only.

use std::time::Instant;

use eden_core::{EdenError, Metrics, Uid, Value};
use eden_kernel::{
    reply_pair, EjectBehavior, EjectContext, FsyncPolicy, Invocation, InvokeOptions, Kernel,
    PassiveRecord, ReplyHandle, RouteCache, StableStore,
};

use crate::report::Ledger;
use crate::stats;
use crate::workloads::Sampler;

/// Replies `Unit` to `Ping`.
struct Echo;

impl EjectBehavior for Echo {
    fn type_name(&self) -> &'static str {
        "BenchEcho"
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
    }
}

/// Answers `Relay` by invoking `Ping` on its echo through its own route
/// cache and waiting for the answer — what one pipeline filter does to its
/// neighbour for every batch.
struct Relay {
    echo: Uid,
    cache: RouteCache,
}

impl EjectBehavior for Relay {
    fn type_name(&self) -> &'static str {
        "BenchRelay"
    }

    fn handle(&mut self, ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        let answer = ctx
            .invoke_routed(&mut self.cache, self.echo, "Ping", Value::Unit)
            .wait();
        reply.reply(answer);
    }
}

/// Calls timed back to back before the next kind of call takes its turn.
const BLOCK: usize = 100;

/// Median nanoseconds of [`BLOCK`] calls of `call`, each timed on its own.
fn block_p50_ns(mut call: impl FnMut() -> Result<Value, EdenError>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(BLOCK);
    for _ in 0..BLOCK {
        let from = Instant::now();
        call().map_err(|e| format!("probe invocation failed: {e}"))?;
        samples.push(from.elapsed().as_nanos() as f64);
    }
    Ok(stats::median(&samples))
}

/// How many times a one-shot timing is taken; the fastest stands.
const SHOTS: usize = 5;

/// The fastest of [`SHOTS`] timings of `body`, each a few milliseconds of
/// work: a stall of the host spoils the shots it falls in and nothing has
/// been seen to speed one up (README, "Noise").
pub fn fastest(mut body: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut fastest = f64::INFINITY;
    for _ in 0..SHOTS {
        fastest = fastest.min(body()?);
    }
    Ok(fastest)
}

/// `eden-kernel::invocation` + `routes`: closed-loop round trips from this
/// thread to an echo Eject (registry route, then cached route), through a
/// relay Eject (one nested hop), and the bare reply rendezvous. Returns the
/// cost of one Eject-to-Eject hop, nanoseconds, for reconciliation.
pub fn invocation(smoke: bool, out: &mut Ledger) -> Result<f64, String> {
    let rounds = if smoke { 500 } else { 20_000 };
    let kernel = Kernel::builder().build();
    let spawn = |b: Box<dyn EjectBehavior>| {
        kernel
            .spawn(b)
            .map_err(|e| format!("probe Eject does not spawn: {e}"))
    };
    let echo = spawn(Box::new(Echo))?;
    let relay = spawn(Box::new(Relay {
        echo,
        cache: RouteCache::new(),
    }))?;

    // The three round trips take turns, a block of calls each (about half a
    // millisecond), so that a slow stretch of the host falls on all of them
    // alike and the hop — a difference — is taken between neighbouring
    // blocks, not between two stretches.
    let mut cache = RouteCache::new();
    let (mut direct, mut cached, mut hop) = (Vec::new(), Vec::new(), Vec::new());
    // The first tenth warms the path (first activation, lazy rings).
    let blocks = rounds / BLOCK;
    for block in 0..blocks + blocks / 10 {
        let d = block_p50_ns(|| kernel.invoke(echo, "Ping", Value::Unit).wait())?;
        let c = block_p50_ns(|| {
            let opts = InvokeOptions::new().route_cache(&mut cache);
            kernel.invoke_with(echo, "Ping", Value::Unit, opts).wait()
        })?;
        let r = block_p50_ns(|| kernel.invoke(relay, "Relay", Value::Unit).wait())?;
        if block >= blocks / 10 {
            direct.push(d);
            cached.push(c);
            hop.push(r - d);
        }
    }
    kernel.shutdown();
    let (direct, cached, nested_hop_ns) = (
        stats::median(&direct),
        stats::median(&cached),
        stats::median(&hop),
    );

    // The rendezvous alone: make a reply pair, answer it, collect the answer.
    let metrics = Metrics::new();
    let uid = Uid::fresh();
    let settle = fastest(|| {
        let from = Instant::now();
        for _ in 0..rounds / SHOTS {
            let (handle, pending) = reply_pair(uid, metrics.clone());
            handle.reply(Ok(Value::Unit));
            std::hint::black_box(pending.wait()).map_err(|e| format!("reply pair failed: {e}"))?;
        }
        Ok(from.elapsed().as_nanos() as f64 / (rounds / SHOTS) as f64)
    })?;

    out.put("kernel.invoke.rtt_p50_ns", direct);
    out.put("kernel.invoke.rtt_cached_p50_ns", cached);
    out.put("kernel.invoke.nested_rtt_p50_ns", nested_hop_ns);
    out.put("kernel.reply.settle_ns", settle);
    out.check("probe invocations answered", 3 * rounds as u64, 0);
    Ok(nested_hop_ns)
}

/// Sample crash-to-reactivation latency (milliseconds) from outside the
/// kernel, the way `eden-bench`'s chaos report does: poll the kernel's
/// counters every 200 microseconds; each crash seen starts a clock, each
/// reactivation stops the oldest one running.
pub fn sample_recovery_ms(kernel: &Kernel) -> Sampler<Vec<f64>> {
    let kernel = kernel.clone();
    let mut seen = kernel.metrics().snapshot();
    let mut running: std::collections::VecDeque<Instant> = Default::default();
    Sampler::start(
        std::time::Duration::from_micros(200),
        Vec::new(),
        move |latencies_ms| {
            let now_seen = kernel.metrics().snapshot();
            let now = Instant::now();
            running.extend((seen.crashes..now_seen.crashes).map(|_| now));
            for _ in seen.reactivations..now_seen.reactivations {
                if let Some(crashed) = running.pop_front() {
                    latencies_ms.push((now - crashed).as_secs_f64() * 1e3);
                }
            }
            seen = now_seen;
        },
    )
}

/// `eden-core::wire`: encode and decode the workload's own checkpoint
/// values.
pub fn wire(checkpoints: &[PassiveRecord], out: &mut Ledger) -> Result<(), String> {
    const ROUNDS: usize = 400;
    let values = checkpoints
        .iter()
        .map(|c| eden_core::wire::decode_shared(&c.bytes))
        .collect::<Result<Vec<Value>, _>>()
        .map_err(|e| format!("a checkpoint does not decode: {e}"))?;
    if values.is_empty() {
        return Err("the traced repetition left no checkpoint in its store".to_owned());
    }
    let mut buffer = Vec::new();
    let encode_ns = fastest(|| {
        let from = Instant::now();
        for _ in 0..ROUNDS {
            for v in &values {
                buffer.clear();
                eden_core::wire::encode_into(std::hint::black_box(v), &mut buffer);
            }
        }
        Ok(from.elapsed().as_nanos() as f64 / (ROUNDS * values.len()) as f64)
    })?;
    let decode_ns = fastest(|| {
        let from = Instant::now();
        for _ in 0..ROUNDS {
            for c in checkpoints {
                std::hint::black_box(eden_core::wire::decode_shared(std::hint::black_box(
                    &c.bytes,
                )))
                .map_err(|e| format!("a checkpoint does not decode: {e}"))?;
            }
        }
        Ok(from.elapsed().as_nanos() as f64 / (ROUNDS * values.len()) as f64)
    })?;
    let bytes: usize = checkpoints.iter().map(|c| c.bytes.len()).sum();
    out.put_probe("core.wire.encode_ns_per_rec", encode_ns);
    out.put_probe("core.wire.decode_shared_ns_per_rec", decode_ns);
    out.put_probe(
        "core.wire.bytes_per_rec",
        bytes as f64 / checkpoints.len() as f64,
    );
    Ok(())
}

/// `eden-kernel::stable`: time `StableStore::store` on the in-memory backend
/// and on a durable log under `fsync`, and `load` from the log, with the
/// workload's checkpoint bytes.
pub fn stable(
    checkpoints: &[PassiveRecord],
    fsync: FsyncPolicy,
    out: &mut Ledger,
) -> Result<(), String> {
    const STORES: usize = 5_000;
    if checkpoints.is_empty() {
        return Err("the traced repetition left no checkpoint in its store".to_owned());
    }
    let uids: Vec<Uid> = (0..STORES).map(|_| Uid::fresh()).collect();
    let time_stores = |store: &StableStore| -> Result<f64, String> {
        let mut samples = Vec::with_capacity(STORES);
        for (i, uid) in uids.iter().enumerate() {
            let record = &checkpoints[i % checkpoints.len()];
            let bytes = record.bytes.clone();
            let from = Instant::now();
            store
                .store(*uid, &record.type_name, bytes)
                .map_err(|e| format!("probe store failed: {e}"))?;
            samples.push(from.elapsed().as_nanos() as f64);
        }
        Ok(stats::median(&samples))
    };
    out.put_probe(
        "kernel.stable.store_ns_p50",
        time_stores(&StableStore::new())?,
    );

    let dir = crate::workloads::scratch_dir("stable-probe");
    let log = StableStore::durable(&dir, fsync)
        .map_err(|e| format!("probe log does not open in {}: {e}", dir.display()))?;
    out.put_probe("kernel.stable.durable_store_ns_p50", time_stores(&log)?);
    let mut samples = Vec::with_capacity(STORES);
    for uid in &uids {
        let from = Instant::now();
        std::hint::black_box(log.load(*uid)).map_err(|e| format!("probe load failed: {e}"))?;
        samples.push(from.elapsed().as_nanos() as f64);
    }
    out.put_probe("kernel.stable.load_ns_p50", stats::median(&samples));
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
