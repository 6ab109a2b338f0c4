//! Property tests for bounded shard queues
//! ([`OverloadPolicy::Bounded`]): across random burst shapes, depth
//! caps and shard counts, the conservation invariant
//! `offered == finished + shed` must hold exactly — no admitted event
//! is ever dropped, no shed event goes uncounted or unseen by the
//! registry's `on_shed` handler, and nothing is left stranded on a
//! capped queue at shutdown.

use flux_runtime::{
    start, FluxServer, NodeOutcome, NodeRegistry, OverloadPolicy, RuntimeKind, SourceOutcome,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SRC: &str = "
    Gen () => (int v);
    Work (int v) => (int v);
    Out (int v) => ();
    Flow = Work -> Out;
    source Gen => Flow;
";

/// Builds a server offering `total` events in bursts of `burst`, with a
/// `Work` node that spins just long enough for backlog to form behind
/// a tiny depth cap. Returns the server plus the `on_shed` handler's
/// own count (the application-side view of every refused event).
fn bursty_server(total: u64, burst: u64) -> (Arc<FluxServer<u64>>, Arc<AtomicU64>) {
    let program = flux_core::compile(SRC).unwrap();
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let produced = AtomicU64::new(0);
    reg.source("Gen", move || {
        let start = produced.load(Ordering::SeqCst);
        if start >= total {
            return SourceOutcome::Shutdown;
        }
        let k = burst.min(total - start);
        produced.fetch_add(k, Ordering::SeqCst);
        if k == 1 {
            SourceOutcome::New(start)
        } else {
            SourceOutcome::Batch((start..start + k).collect())
        }
    });
    reg.node("Work", |_v: &mut u64| {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(20) {
            std::hint::spin_loop();
        }
        NodeOutcome::Ok
    });
    reg.node("Out", |_| NodeOutcome::Ok);
    let shed_seen = Arc::new(AtomicU64::new(0));
    let s2 = shed_seen.clone();
    reg.on_shed(move |_v: u64| {
        s2.fetch_add(1, Ordering::Relaxed);
    });
    (Arc::new(FluxServer::new(program, reg).unwrap()), shed_seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// offered == finished + shed, exactly, for any burst/cap/shard mix.
    #[test]
    fn bounded_queues_conserve_events(
        total in 200u64..800,
        burst in 1u64..64,
        cap in 1usize..8,
        shards in 1usize..4,
    ) {
        let (server, shed_seen) = bursty_server(total, burst);
        let handle = start(
            server.clone(),
            RuntimeKind::event_driven_sharded(shards, 1).overload(OverloadPolicy::bounded(cap)),
        );
        handle.join();

        let finished = server.stats.finished();
        let shed = server.stats.total_shed();
        prop_assert_eq!(
            finished + shed,
            total,
            "offered {} != finished {} + shed {}",
            total, finished, shed
        );
        prop_assert_eq!(
            shed_seen.load(Ordering::Relaxed),
            shed,
            "on_shed handler saw a different count than the shard stats"
        );
        prop_assert_eq!(
            server.stats.overload.offered.load(Ordering::Relaxed),
            total,
            "every source submission must be counted as offered"
        );
    }

    /// Unbounded (the default) never sheds, whatever the load shape —
    /// the paper's semantics are untouched.
    #[test]
    fn unbounded_never_sheds(
        total in 200u64..600,
        burst in 1u64..64,
    ) {
        let (server, shed_seen) = bursty_server(total, burst);
        let handle = start(server.clone(), RuntimeKind::event_driven_sharded(2, 1));
        handle.join();
        prop_assert_eq!(server.stats.finished(), total);
        prop_assert_eq!(server.stats.total_shed(), 0u64);
        prop_assert_eq!(shed_seen.load(Ordering::Relaxed), 0u64);
    }
}

/// A cap of 1 with a huge burst is the worst case: most of the burst
/// sheds, yet the numbers still reconcile and the server drains.
#[test]
fn tiny_cap_sheds_most_of_a_flood() {
    let (server, shed_seen) = bursty_server(2_000, 256);
    let handle = start(
        server.clone(),
        RuntimeKind::event_driven_sharded(2, 1).overload(OverloadPolicy::bounded(1)),
    );
    handle.join();
    let finished = server.stats.finished();
    let shed = server.stats.total_shed();
    assert_eq!(finished + shed, 2_000, "conservation");
    assert!(shed > 0, "a cap of 1 under 256-bursts must shed");
    assert_eq!(shed_seen.load(Ordering::Relaxed), shed);
}
