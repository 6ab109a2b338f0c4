//! Integration tests for the sharded event-driven runtime: session
//! affinity (every event runs on its home shard), balance without work
//! stealing, per-shard stats, the idle-dispatcher wake protocol, and
//! clean shutdown with non-empty shard queues.

use flux_runtime::{
    shard_index, start, FluxServer, NodeOutcome, NodeRegistry, RuntimeKind, SourceOutcome,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SESSION_SRC: &str = "
    Gen () => (int sid);
    Work (int sid) => (int sid);
    Out (int sid) => ();
    Flow = Work -> Out;
    source Gen => Flow;
    atomic Work: {state(session)};
";

/// Builds a server producing `total` flows whose session ids cycle
/// through `sessions`.
fn session_server(total: u64, sessions: Arc<Vec<u64>>) -> Arc<FluxServer<u64>> {
    let program = flux_core::compile(SESSION_SRC).unwrap();
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let s2 = sessions.clone();
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(s2[(i % s2.len() as u64) as usize])
        }
    });
    reg.session("Gen", |sid: &u64| *sid);
    reg.node("Work", |_| NodeOutcome::Ok);
    reg.node("Out", |_| NodeOutcome::Ok);
    Arc::new(FluxServer::new(program, reg).unwrap())
}

/// The shard index of the dispatcher thread we are running on, parsed
/// from its `flux-shard-<n>` name; `None` off the dispatcher threads.
fn current_shard() -> Option<usize> {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("flux-shard-"))
        .and_then(|n| n.parse().ok())
}

/// Session ids that all hash to shard 0 under `shards` shards.
fn sessions_on_shard_zero(shards: usize, count: usize) -> Vec<u64> {
    (0u64..)
        .filter(|&k| shard_index(k, shards) == 0)
        .take(count)
        .collect()
}

#[test]
fn routing_hash_is_deterministic_and_spreads() {
    for shards in [1usize, 2, 4, 8] {
        let mut hits = vec![0u64; shards];
        for key in 0..4096u64 {
            let a = shard_index(key, shards);
            assert_eq!(a, shard_index(key, shards), "deterministic");
            assert!(a < shards);
            hits[a] += 1;
        }
        // No shard is starved or dominant (within 2x of uniform).
        let uniform = 4096 / shards as u64;
        for (s, &h) in hits.iter().enumerate() {
            assert!(
                h > uniform / 2 && h < uniform * 2,
                "shard {s}/{shards} got {h} of 4096"
            );
        }
    }
}

/// Same-session cursors are always submitted to their home shard: when
/// every session hashes to shard 0, shard 0 counts each session
/// submission exactly once and no other shard counts any.
#[test]
fn same_session_cursors_land_on_home_shard() {
    const SHARDS: usize = 4;
    let sessions = Arc::new(sessions_on_shard_zero(SHARDS, 3));
    let server = session_server(600, sessions);
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(SHARDS, 1));
    handle.join();
    assert_eq!(server.stats.finished(), 600);
    let stats = server.stats.shard_stats().expect("sharded runtime ran");
    assert_eq!(stats.len(), SHARDS);
    assert_eq!(
        stats[0].affine.load(Ordering::Relaxed),
        600,
        "every session submission routed to home shard 0, counted once"
    );
    for (i, st) in stats.iter().enumerate().skip(1) {
        assert_eq!(
            st.affine.load(Ordering::Relaxed),
            0,
            "shard {i} must receive no affine submissions"
        );
    }
}

/// Without stealing, balance comes from routing alone: two shards
/// running 1000 sessionless flows (spread by the flow-id hash) each
/// execute at least 30% of the turns, and neither takes work from the
/// other.
#[test]
fn sessionless_flows_spread_over_both_shards() {
    const FLOWS: u64 = 1000;
    let program = flux_core::compile(
        "Gen () => (int v); A (int v) => (int v); B (int v) => ();
         Flow = A -> B; source Gen => Flow;",
    )
    .unwrap();
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= FLOWS {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(i)
        }
    });
    reg.node("A", |_| NodeOutcome::Ok);
    reg.node("B", |_| NodeOutcome::Ok);
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(2, 1));
    handle.join();
    assert_eq!(server.stats.finished(), FLOWS);
    let stats = server.stats.shard_stats().unwrap();
    let turns: Vec<u64> = stats
        .iter()
        .map(|s| s.executed.load(Ordering::Relaxed))
        .collect();
    let total: u64 = turns.iter().sum();
    assert_eq!(total, 2 * FLOWS, "one turn per node");
    for (i, st) in stats.iter().enumerate() {
        assert!(
            turns[i] * 10 >= total * 3,
            "shard {i} executed {} of {total} turns",
            turns[i]
        );
        assert_eq!(st.stolen.load(Ordering::Relaxed), 0, "shard {i} stole");
    }
}

/// Batch delivery ordering: a source that hands over bursts via
/// `SourceOutcome::Batch` keeps exact FIFO execution order on a single
/// shard — a burst is appended intact under one queue lock, and
/// cross-batch order follows submission order.
#[test]
fn batched_submission_preserves_fifo_on_single_shard() {
    let program = flux_core::compile(
        "
        Gen () => (int v);
        Work (int v) => ();
        Flow = Work;
        source Gen => Flow;
        ",
    )
    .unwrap();
    let total = 600u64;
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    reg.source("Gen", move || {
        let start = produced.load(Ordering::SeqCst);
        if start >= total {
            return SourceOutcome::Shutdown;
        }
        // Varying batch sizes 1..=7, covering the New/Batch boundary.
        let k = (start % 7 + 1).min(total - start);
        produced.fetch_add(k, Ordering::SeqCst);
        if k == 1 {
            SourceOutcome::New(start)
        } else {
            SourceOutcome::Batch((start..start + k).collect())
        }
    });
    let order: Arc<parking_lot::Mutex<Vec<u64>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let o2 = order.clone();
    reg.node("Work", move |v: &mut u64| {
        o2.lock().push(*v);
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(1, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total);
    let order = order.lock();
    let expect: Vec<u64> = (0..total).collect();
    assert_eq!(*order, expect, "single-shard execution is exact FIFO");
    let stats = server.stats.shard_stats().unwrap();
    assert!(
        stats[0].batch_events.load(Ordering::Relaxed) >= total,
        "every event travelled through a batched append"
    );
    assert!(
        stats[0].batches.load(Ordering::Relaxed) < total,
        "bursts amortize: fewer appends than events"
    );
}

/// The idle-dispatcher wake protocol: flows spaced 500 µs apart each
/// meet a dispatcher parked in its condvar wait, so every hand-off
/// depends on the enqueuer reading `parked == true` under the queue
/// lock and notifying. A lost notify leaves the flow waiting out the
/// 10 ms wait backstop, which shows in the median source-return →
/// node-start wait. Same shape as the repository benchmark's
/// `runtime.dispatch.handoff_us` probe.
#[test]
fn spaced_flows_wake_a_parked_dispatcher_promptly() {
    use std::time::Instant;
    const FLOWS: u64 = 200;
    for shards in [1usize, 4] {
        let program = flux_core::compile(
            "
            Gen () => (int v);
            Sink (int v) => ();
            Flow = Sink;
            source Gen => Flow;
            ",
        )
        .unwrap();
        let produced = AtomicU64::new(0);
        let mut reg: NodeRegistry<Instant> = NodeRegistry::new();
        reg.source("Gen", move || {
            if produced.fetch_add(1, Ordering::SeqCst) >= FLOWS {
                return SourceOutcome::Shutdown;
            }
            std::thread::sleep(Duration::from_micros(500));
            SourceOutcome::New(Instant::now())
        });
        let waits: Arc<parking_lot::Mutex<Vec<Duration>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let w2 = waits.clone();
        reg.node("Sink", move |stamp: &mut Instant| {
            w2.lock().push(stamp.elapsed());
            NodeOutcome::Ok
        });
        let server = Arc::new(FluxServer::new(program, reg).unwrap());
        let handle = start(server.clone(), RuntimeKind::event_driven_sharded(shards, 1));
        handle.join();
        assert_eq!(server.stats.finished(), FLOWS, "shards={shards}");
        let mut waits = std::mem::take(&mut *waits.lock());
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(
            median < Duration::from_millis(2),
            "shards={shards}: median hand-off wait {median:?} — a parked \
             dispatcher is waiting out its timeout instead of being notified"
        );
        let stats = server.stats.shard_stats().unwrap();
        for (i, st) in stats.iter().enumerate() {
            assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {i} drained");
        }
    }
}

/// Requesting shutdown while shard queues are non-empty drains cleanly:
/// every started flow finishes, none is lost in a queue.
#[test]
fn clean_shutdown_drains_non_empty_queues() {
    let program = flux_core::compile(
        "
        Gen () => (int v);
        Slow (int v) => ();
        Flow = Slow;
        source Gen => Flow;
        ",
    )
    .unwrap();
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    // Open-loop source: floods the queues far faster than 1 ms nodes
    // drain them, so queues are guaranteed non-empty at shutdown.
    let produced = Arc::new(AtomicU64::new(0));
    let p2 = produced.clone();
    reg.source("Gen", move || {
        p2.fetch_add(1, Ordering::SeqCst);
        SourceOutcome::New(0)
    });
    reg.node("Slow", |_| {
        std::thread::sleep(Duration::from_millis(1));
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(4, 2));
    // Let a backlog build, then stop: sources quit, shards must drain.
    while produced.load(Ordering::SeqCst) < 200 {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.stop();
    let started = server.stats.started.load(Ordering::SeqCst);
    assert!(started >= 200);
    assert_eq!(
        server.stats.finished(),
        started,
        "every queued flow must finish during drain"
    );
}

/// Per-shard depth accounting: high-water marks are recorded and the
/// final depth is zero everywhere.
#[test]
fn shard_stats_track_depth_and_drain_to_zero() {
    let sessions = Arc::new((0u64..32).collect::<Vec<_>>());
    let server = session_server(2_000, sessions);
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(4, 1));
    handle.join();
    assert_eq!(server.stats.finished(), 2_000);
    let stats = server.stats.shard_stats().unwrap();
    let max: u64 = stats
        .iter()
        .map(|s| s.max_depth.load(Ordering::Relaxed))
        .sum();
    assert!(max > 0, "some queueing must have been observed");
    for (i, st) in stats.iter().enumerate() {
        assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {i} drained");
    }
    let executed: u64 = stats
        .iter()
        .map(|s| s.executed.load(Ordering::Relaxed))
        .sum();
    assert!(executed >= 2_000, "every event dequeued somewhere");
}

/// The dispatcher runs at most one node per queue turn: on one shard
/// (no locks to retry) a three-node chain costs
/// exactly three turns per flow. Running a flow to completion in one
/// turn would read one turn per flow here.
#[test]
fn one_queue_turn_per_node() {
    const FLOWS: u64 = 200;
    let program = flux_core::compile(
        "Gen () => (int v); A (int v) => (int v); B (int v) => (int v);
         C (int v) => (); Flow = A -> B -> C; source Gen => Flow;",
    )
    .unwrap();
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= FLOWS {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(i)
        }
    });
    for node in ["A", "B", "C"] {
        reg.node(node, |_| NodeOutcome::Ok);
    }
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(1, 1));
    handle.join();
    assert_eq!(server.stats.completed.load(Ordering::Relaxed), FLOWS);
    let stats = server.stats.shard_stats().unwrap();
    assert_eq!(stats[0].executed.load(Ordering::Relaxed), 3 * FLOWS);
}

/// Restarting the same server with a different (larger) shard count
/// must not read the first run's smaller counter block: each run
/// installs fresh per-shard stats.
#[test]
fn restart_with_more_shards_installs_fresh_stats() {
    let total_per_run = 300u64;
    let sessions = Arc::new((0u64..16).collect::<Vec<_>>());
    let server = session_server(total_per_run, sessions.clone());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(2, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total_per_run);
    assert_eq!(server.stats.shard_stats().unwrap().len(), 2);

    // Second run on the same server, more shards. The source fn is
    // exhausted (returns Shutdown immediately), but every shard and
    // source thread must still start, route and exit cleanly.
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(8, 1));
    handle.join();
    assert_eq!(
        server.stats.shard_stats().unwrap().len(),
        8,
        "second run must publish its own 8-shard block"
    );
}

/// The sharded runtime preserves single-dispatcher outcome accounting
/// for random shard counts, loads and session mixes (property test).
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sharded_accounting_matches_for_any_shape(
            shards in 1usize..6,
            io_workers in 1usize..4,
            total in 1u64..300,
            sessions in 1u64..12,
        ) {
            let ids = Arc::new((0..sessions).collect::<Vec<_>>());
            let server = session_server(total, ids);
            let handle = start(
                server.clone(),
                RuntimeKind::event_driven_sharded(shards, io_workers),
            );
            handle.join();
            prop_assert_eq!(server.stats.finished(), total);
            let stats = server.stats.shard_stats().unwrap();
            prop_assert_eq!(stats.len(), shards);
            // Every queue drained, and no shard took another's work.
            for (i, st) in stats.iter().enumerate() {
                prop_assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {} drained", i);
                prop_assert_eq!(st.stolen.load(Ordering::Relaxed), 0, "shard {} stole", i);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every event of a session *executes* on
        /// `shard_index(sid, shards)`, read from the dispatcher's
        /// `flux-shard-<n>` thread name, over random session mixes and
        /// source bursts. Keyed state indexed by the session id (the
        /// pub/sub server's topic windows) relies on this.
        #[test]
        fn session_events_execute_on_their_home_shard(
            shards in 2usize..5,
            sessions in proptest::collection::vec(any::<u64>(), 1..12),
            burst in 1u64..32,
        ) {
            const TOTAL: u64 = 400;
            let program = flux_core::compile(SESSION_SRC).unwrap();
            let produced = AtomicU64::new(0);
            let mut reg: NodeRegistry<u64> = NodeRegistry::new();
            let mix = sessions.clone();
            reg.source("Gen", move || {
                let start = produced.load(Ordering::SeqCst);
                if start >= TOTAL {
                    return SourceOutcome::Shutdown;
                }
                let k = burst.min(TOTAL - start);
                produced.fetch_add(k, Ordering::SeqCst);
                let flows: Vec<u64> = (start..start + k)
                    .map(|i| mix[(i % mix.len() as u64) as usize])
                    .collect();
                if flows.len() == 1 {
                    SourceOutcome::New(flows[0])
                } else {
                    SourceOutcome::Batch(flows)
                }
            });
            reg.session("Gen", |sid: &u64| *sid);
            let violations = Arc::new(AtomicU64::new(0));
            let executed = Arc::new(AtomicU64::new(0));
            for node in ["Work", "Out"] {
                let violations = violations.clone();
                let executed = executed.clone();
                reg.node(node, move |sid: &mut u64| {
                    // Spin so a home shard holding most sessions builds
                    // a backlog while its siblings sit idle.
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < Duration::from_micros(20) {
                        std::hint::spin_loop();
                    }
                    executed.fetch_add(1, Ordering::Relaxed);
                    if current_shard() != Some(shard_index(*sid, shards)) {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    NodeOutcome::Ok
                });
            }
            let server = Arc::new(FluxServer::new(program, reg).unwrap());
            let handle = start(server.clone(), RuntimeKind::event_driven_sharded(shards, 1));
            handle.join();
            prop_assert_eq!(server.stats.finished(), TOTAL, "no event lost or doubled");
            prop_assert_eq!(executed.load(Ordering::Relaxed), 2 * TOTAL);
            prop_assert_eq!(
                violations.load(Ordering::Relaxed),
                0,
                "session events executed off their home shard"
            );
        }
    }
}
