//! Lightweight concurrent server statistics: flow counts and a
//! log-scaled latency histogram, cheap enough to stay on in production
//! (the benchmark harness reads throughput and latency from here).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds; bucket 0 holds `< 2 µs`.
const BUCKETS: usize = 40;

/// Concurrent latency histogram with power-of-two microsecond buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        let us = (ns / 1_000).max(1);
        let bucket = (63 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        let c = self.count();
        if c == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.total_ns.load(Ordering::Relaxed) / c)
    }

    /// Largest sample seen.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }

    /// Approximate quantile (`q` in `[0, 1]`) from bucket boundaries:
    /// returns the upper edge of the bucket containing the quantile.
    pub fn quantile(&self, q: f64) -> Duration {
        let c = self.count();
        if c == 0 {
            return Duration::ZERO;
        }
        let target = ((c as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_micros(1u64 << (i + 1));
            }
        }
        self.max()
    }
}

/// Pads and aligns a value to a 64-byte cache line, so two hot atomics
/// written by different threads never share a line (false sharing turns
/// every counter increment into cross-core cache traffic).
#[derive(Default, Debug)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` with cache-line alignment.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Per-shard counters for the sharded event-driven runtime: queue depth
/// (current and high-water), executed events and batched submissions.
///
/// The hottest counters — `executed` (written by the owning dispatcher
/// per event) and `batch_events` (written by submitters) — are each
/// padded to their own cache line ([`CachePadded`]): they are
/// incremented from *different* threads on the per-event path, and
/// sharing a line would turn every increment into cross-core
/// invalidation traffic. `CachePadded` derefs to the atomic, so readers
/// are unchanged.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct ShardStat {
    /// Events currently queued on this shard.
    pub depth: AtomicU64,
    /// High-water mark of `depth`.
    pub max_depth: AtomicU64,
    /// Events this shard dequeued from its own queue (queue turns).
    pub executed: CachePadded<AtomicU64>,
    /// Always 0: an event only runs on its home shard, so no shard
    /// takes work from another. Kept only while the repository
    /// benchmark reads it; it goes with ROADMAP item 1(e).
    pub stolen: AtomicU64,
    /// Session-carrying source submissions routed to this shard (each
    /// counted once, when the source hands it over).
    pub affine: AtomicU64,
    /// Batched appends this shard received (`route_home_batch` groups a
    /// source's burst by home shard; each group lands under one queue
    /// lock and at most one wake-up).
    pub batches: AtomicU64,
    /// Events delivered through those batched appends. `batch_events /
    /// batches` is the mean batch size — the amortization factor of the
    /// per-event lock+notify cost.
    pub batch_events: CachePadded<AtomicU64>,
    /// Source-batch events refused because this shard's queue stood at
    /// the configured depth cap (see
    /// [`crate::runtimes::OverloadPolicy::Bounded`]): every one was
    /// counted here and handed to the registry's shed handler *before*
    /// entering any queue — never silently dropped mid-graph. Zero
    /// under [`crate::runtimes::OverloadPolicy::Unbounded`].
    pub shed: AtomicU64,
}

impl ShardStat {
    /// Records a post-enqueue depth observation: gauge plus high-water
    /// mark. Callers invoke this while still holding the shard's queue
    /// lock, which serializes the gauge store with the dispatcher's own
    /// stores — the final store after a drain is therefore always the
    /// dispatcher's `0`.
    pub(crate) fn enqueue(&self, new_depth: u64) {
        self.depth.store(new_depth, Ordering::Relaxed);
        self.max_depth.fetch_max(new_depth, Ordering::Relaxed);
    }
}

/// Read-only view of the network driver's counters (accept retries and
/// reactor write-path traffic), published next to the shard counters.
///
/// The runtime crate has no dependency on the net crate, so the server
/// glue (`flux-servers`) installs an adapter over the driver's counter
/// block via [`ServerStats::install_net`].
pub trait NetCounters: Send + Sync + std::fmt::Debug {
    /// Transient accept errors survived by the acceptor's retry loop.
    fn accept_retries(&self) -> u64;
    /// Writes handed to the driver's non-blocking submit path.
    fn writes_submitted(&self) -> u64;
    /// Writes fully drained (synchronously or by the reactor's POLLOUT
    /// path).
    fn writes_drained(&self) -> u64;
    /// Times a write hit `WouldBlock` and was left to the reactor.
    fn write_would_block(&self) -> u64;
    /// Writes that failed (connection removed).
    fn writes_failed(&self) -> u64;
    /// Refcounted fan-out payloads submitted without copying (the
    /// driver's shared-payload path).
    fn writes_shared(&self) -> u64;
    /// Connections evicted because a submission would overflow their
    /// output-buffer bound (slow-consumer policy).
    fn slow_consumer_evicted(&self) -> u64;
    /// Connections the accept governor admitted.
    fn accepts_admitted(&self) -> u64;
    /// Accepts the accept governor refused at the connection cap.
    fn accepts_governed(&self) -> u64;
    /// Connections retired by the idle/slow-loris sweep.
    fn idle_reaped(&self) -> u64;
    /// Write submissions that queued behind bytes the peer had not yet
    /// taken — per-connection backpressure visible *before* the
    /// eviction cliff at the output-buffer cap.
    fn writes_deferred(&self) -> u64;
}

/// Overload-control state of the most recent sharded event-runtime run
/// (see [`crate::runtimes::OverloadPolicy`]): whether shard queues are
/// depth-capped, and the offered-event count the per-shard `shed`
/// counters are reconciled against. `enabled == false` (and all-zero)
/// under [`crate::runtimes::OverloadPolicy::Unbounded`] and the
/// non-event runtimes.
///
/// The conservation invariant:
/// `offered == admitted + shed`, where `shed` is the sum of
/// [`ShardStat::shed`] over the run's shard block — every source event
/// either entered a shard queue or was counted and handed to the shed
/// handler, never silently dropped.
#[derive(Debug, Default)]
pub struct OverloadStat {
    /// A bounded overload policy is in force for this server.
    pub enabled: std::sync::atomic::AtomicBool,
    /// The per-shard depth cap (0 when unbounded).
    pub depth_cap: AtomicU64,
    /// Events sources offered to the runtime (admitted + shed).
    pub offered: AtomicU64,
}

impl OverloadStat {
    /// One-line summary for logs and bench records; `shed` is the
    /// caller's per-shard rollup ([`ServerStats::total_shed`]).
    pub fn describe(&self, shed: u64) -> String {
        let offered = self.offered.load(Ordering::Relaxed);
        if !self.enabled.load(Ordering::Relaxed) {
            return "unbounded".to_string();
        }
        format!(
            "cap {}: offered {offered}, admitted {}, shed {shed}",
            self.depth_cap.load(Ordering::Relaxed),
            offered.saturating_sub(shed),
        )
    }
}

/// Thread-pinning state of the most recent sharded event-runtime run,
/// recorded so benchmark artifacts can report whether a measurement ran
/// with core affinity.
#[derive(Debug, Default)]
pub struct PinningStat {
    /// Pinning was attempted (multi-core host).
    pub enabled: std::sync::atomic::AtomicBool,
    /// Hardware threads observed at start.
    pub host_cores: AtomicU64,
    /// Dispatcher shards that successfully pinned themselves.
    pub pinned_threads: AtomicU64,
}

impl PinningStat {
    /// One-line summary for logs and bench records.
    pub fn describe(&self) -> String {
        let cores = self.host_cores.load(Ordering::Relaxed);
        if !self.enabled.load(Ordering::Relaxed) {
            return format!("unpinned ({cores} core(s))");
        }
        format!(
            "pinned {} shard(s) across {} core(s)",
            self.pinned_threads.load(Ordering::Relaxed),
            cores
        )
    }
}

/// Fan-out counters for streaming (pub/sub) servers: one *publish* is
/// one aggregation round whose encoded result is delivered to every
/// subscriber of a topic. All-zero for request/response servers.
#[derive(Debug, Default)]
pub struct FanoutStat {
    /// Aggregation rounds whose result was fanned out (each encodes
    /// its payload exactly once).
    pub publishes: AtomicU64,
    /// Per-subscriber deliveries submitted (`deliveries / publishes`
    /// is the mean fan-out degree).
    pub deliveries: AtomicU64,
    /// Extra publish commands coalesced into an already-running
    /// aggregation flow (burst amortization: `n` back-to-back PUBs to
    /// one topic cost one flow and one fan-out, counting `n - 1` here).
    pub coalesced_publishes: AtomicU64,
}

impl FanoutStat {
    /// One-line summary for logs and bench records; empty when no
    /// publish happened (request/response servers stay clean).
    pub fn describe(&self) -> Option<String> {
        let publishes = self.publishes.load(Ordering::Relaxed);
        if publishes == 0 {
            return None;
        }
        Some(format!(
            "fan-out {} publish(es), {} deliveries, {} coalesced",
            publishes,
            self.deliveries.load(Ordering::Relaxed),
            self.coalesced_publishes.load(Ordering::Relaxed),
        ))
    }
}

/// Counters for every way a flow can finish, plus latency.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub started: AtomicU64,
    pub completed: AtomicU64,
    pub errored: AtomicU64,
    pub handled: AtomicU64,
    pub nomatch: AtomicU64,
    pub latency: LatencyHistogram,
    /// Multicast fan-out counters (see [`FanoutStat`]); all-zero for
    /// request/response servers. Behind an `Arc` so streaming-server
    /// node closures (which capture their context, not the server) can
    /// share the very block `describe()` reads.
    pub fanout: std::sync::Arc<FanoutStat>,
    /// Core-affinity state of the most recent sharded event-runtime
    /// run (see [`PinningStat`]); all-zero under other runtimes.
    pub pinning: PinningStat,
    /// Overload-control state of the most recent sharded event-runtime
    /// run (see [`OverloadStat`]): depth cap plus the offered-event
    /// count the per-shard `shed` counters reconcile against.
    pub overload: OverloadStat,
    /// Installed by the sharded event-driven runtime at start; `None`
    /// under the other runtimes. Every `start` installs a fresh block
    /// sized to its own shard count, so restarting the same server with
    /// a different count never reads a stale (or too-small) block.
    shards: parking_lot::Mutex<Option<std::sync::Arc<[ShardStat]>>>,
    /// Installed by servers that drive a network `ConnDriver`; `None`
    /// for purely computational servers.
    net: parking_lot::Mutex<Option<std::sync::Arc<dyn NetCounters>>>,
}

impl ServerStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finished flow.
    pub fn record_end(&self, outcome: flux_core::EndKind, latency: Duration) {
        match outcome {
            flux_core::EndKind::Completed => &self.completed,
            flux_core::EndKind::Errored { .. } => &self.errored,
            flux_core::EndKind::Handled { .. } => &self.handled,
            flux_core::EndKind::NoMatch { .. } => &self.nomatch,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Publishes the per-shard counter block of the run being started,
    /// replacing any block from a previous run of this server.
    pub(crate) fn install_shards(&self, block: std::sync::Arc<[ShardStat]>) {
        *self.shards.lock() = Some(block);
    }

    /// Per-shard counters of the most recent sharded event-runtime run.
    pub fn shard_stats(&self) -> Option<std::sync::Arc<[ShardStat]>> {
        self.shards.lock().clone()
    }

    /// Publishes the network driver's counter view (server glue).
    pub fn install_net(&self, counters: std::sync::Arc<dyn NetCounters>) {
        *self.net.lock() = Some(counters);
    }

    /// The network driver's counters, when a server installed them.
    pub fn net_counters(&self) -> Option<std::sync::Arc<dyn NetCounters>> {
        self.net.lock().clone()
    }

    /// Total events shed at the source boundary across all shards of
    /// the most recent sharded event-runtime run (see
    /// [`ShardStat::shed`]).
    pub fn total_shed(&self) -> u64 {
        self.shard_stats()
            .map(|s| s.iter().map(|st| st.shed.load(Ordering::Relaxed)).sum())
            .unwrap_or(0)
    }

    /// Total finished flows.
    pub fn finished(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
            + self.errored.load(Ordering::Relaxed)
            + self.handled.load(Ordering::Relaxed)
            + self.nomatch.load(Ordering::Relaxed)
    }

    /// One-line summary for logs and bench records, composing the
    /// sub-block summaries: flow outcomes, pinning, and — when a sharded
    /// run installed its counter block — the shard count and dispatcher
    /// turn total.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "flows {} (completed {}, errored {}, handled {}, nomatch {}) | {}",
            self.finished(),
            self.completed.load(Ordering::Relaxed),
            self.errored.load(Ordering::Relaxed),
            self.handled.load(Ordering::Relaxed),
            self.nomatch.load(Ordering::Relaxed),
            self.pinning.describe(),
        );
        if let Some(shards) = self.shard_stats() {
            let turns: u64 = shards
                .iter()
                .map(|st| st.executed.load(Ordering::Relaxed))
                .sum();
            out.push_str(&format!(" | {} shard(s) | turns {turns}", shards.len()));
        }
        if self.overload.enabled.load(Ordering::Relaxed) {
            out.push_str(&format!(
                " | overload {}",
                self.overload.describe(self.total_shed())
            ));
        }
        if let Some(net) = self.net_counters() {
            let governed = net.accepts_governed();
            let reaped = net.idle_reaped();
            let deferred = net.writes_deferred();
            if governed > 0 || reaped > 0 || deferred > 0 {
                out.push_str(&format!(
                    " | net admitted {}, governed {governed}, reaped {reaped}, \
                     writes deferred {deferred}",
                    net.accepts_admitted(),
                ));
            }
        }
        if let Some(fanout) = self.fanout.describe() {
            out.push_str(" | ");
            out.push_str(&fanout);
            if let Some(net) = self.net_counters() {
                let evicted = net.slow_consumer_evicted();
                if evicted > 0 {
                    out.push_str(&format!(", {evicted} slow consumer(s) evicted"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_max() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Duration::from_micros(200));
        assert_eq!(h.max(), Duration::from_micros(300));
    }

    #[test]
    fn histogram_quantiles_bracket() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(10));
        let p50 = h.quantile(0.5);
        assert!(p50 <= Duration::from_micros(16), "p50 {p50:?}");
        let p999 = h.quantile(0.999);
        assert!(p999 >= Duration::from_millis(8), "p99.9 {p999:?}");
    }

    #[test]
    fn stats_outcomes_routed() {
        let s = ServerStats::new();
        s.record_end(flux_core::EndKind::Completed, Duration::from_micros(5));
        s.record_end(
            flux_core::EndKind::Errored { node: 0 },
            Duration::from_micros(5),
        );
        s.record_end(
            flux_core::EndKind::Handled {
                node: 0,
                handler: 1,
            },
            Duration::from_micros(5),
        );
        assert_eq!(s.completed.load(Ordering::Relaxed), 1);
        assert_eq!(s.errored.load(Ordering::Relaxed), 1);
        assert_eq!(s.handled.load(Ordering::Relaxed), 1);
        assert_eq!(s.finished(), 3);
    }

    #[test]
    fn server_stats_describe_composes() {
        let s = ServerStats::new();
        s.record_end(flux_core::EndKind::Completed, Duration::from_micros(5));
        let d = s.describe();
        assert!(d.starts_with("flows 1 (completed 1,"), "{d}");
        assert!(d.contains("unpinned"), "{d}");
        assert!(!d.contains("shard(s)"), "no shard block installed: {d}");
        // Installing a shard block surfaces the dispatcher totals.
        let shards: std::sync::Arc<[ShardStat]> = (0..2).map(|_| ShardStat::default()).collect();
        shards[0].executed.fetch_add(4, Ordering::Relaxed);
        s.install_shards(shards);
        let d = s.describe();
        assert!(d.contains("| 2 shard(s) |"), "{d}");
        assert!(d.contains("turns 4"), "{d}");
    }

    #[test]
    fn zero_duration_sample() {
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Duration::ZERO);
    }
}
