//! Integration tests for the sharded event-driven runtime: session
//! affinity, work stealing, per-shard stats, the idle-dispatcher wake
//! protocol, and clean shutdown with non-empty shard queues.

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
/// every session hashes to shard 0, no other shard ever receives an
/// affine (session-carrying) submission — events reach other cores only
/// by stealing.
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
    assert!(
        stats[0].affine.load(Ordering::Relaxed) >= 600,
        "all session submissions routed to home shard 0"
    );
    for (i, st) in stats.iter().enumerate().skip(1) {
        assert_eq!(
            st.affine.load(Ordering::Relaxed),
            0,
            "shard {i} must receive no affine submissions"
        );
    }
}

/// When one shard is saturated (every session homes there), the other
/// shards steal and the backlog still completes.
#[test]
fn work_stealing_makes_progress_from_saturated_shard() {
    const SHARDS: usize = 4;
    let sessions = Arc::new(sessions_on_shard_zero(SHARDS, 8));
    let program = flux_core::compile(
        "
        Gen () => (int sid);
        Spin (int sid) => ();
        Flow = Spin;
        source Gen => Flow;
        ",
    )
    .unwrap();
    let total = 400u64;
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
    reg.node("Spin", |_| {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(200) {
            std::hint::spin_loop();
        }
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(SHARDS, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total);
    assert!(
        server.stats.total_steals() > 0,
        "idle shards must steal from the saturated one"
    );
}

/// Steal batching: a thief takes half the victim's queue per steal, so
/// under a saturated home shard the bulk-transfer counter moves and
/// every event still completes exactly once.
#[test]
fn steals_take_half_the_victims_queue() {
    const SHARDS: usize = 4;
    let sessions = Arc::new(sessions_on_shard_zero(SHARDS, 8));
    let program = flux_core::compile(
        "
        Gen () => (int sid);
        Spin (int sid) => ();
        Flow = Spin;
        source Gen => Flow;
        ",
    )
    .unwrap();
    // A burst far larger than the per-steal unit: with every session
    // homed on shard 0, thieves must move work in bulk to drain it.
    let total = 2_000u64;
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
    reg.node("Spin", |_| {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(100) {
            std::hint::spin_loop();
        }
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(SHARDS, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total, "no event lost or doubled");
    let stats = server.stats.shard_stats().unwrap();
    let steals: u64 = stats.iter().map(|s| s.stolen.load(Ordering::Relaxed)).sum();
    let batched: u64 = stats
        .iter()
        .map(|s| s.stolen_batch.load(Ordering::Relaxed))
        .sum();
    assert!(steals > 0, "thieves must steal from the saturated shard");
    assert!(
        batched > 0,
        "with a deep victim queue, steals must bulk-transfer extra events \
         (steals {steals}, batched {batched})"
    );
    // Conservation: everything dequeued somewhere, queues empty.
    for (i, st) in stats.iter().enumerate() {
        assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {i} drained");
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

/// Batched routing composes with work stealing (the stolen-batch FIFO
/// prepend from PR 3): with every session homed on one shard and the
/// source submitting bursts, thieves bulk-transfer backlog and every
/// event still completes exactly once, leaving all queues empty.
#[test]
fn batched_routing_survives_stealing() {
    const SHARDS: usize = 4;
    let sessions = Arc::new(sessions_on_shard_zero(SHARDS, 8));
    let program = flux_core::compile(
        "
        Gen () => (int sid);
        Spin (int sid) => ();
        Flow = Spin;
        source Gen => Flow;
        ",
    )
    .unwrap();
    let total = 2_000u64;
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let s2 = sessions.clone();
    reg.source("Gen", move || {
        let start = produced.load(Ordering::SeqCst);
        if start >= total {
            return SourceOutcome::Shutdown;
        }
        let k = (start % 5 + 1).min(total - start);
        produced.fetch_add(k, Ordering::SeqCst);
        SourceOutcome::Batch(
            (start..start + k)
                .map(|i| s2[(i % s2.len() as u64) as usize])
                .collect(),
        )
    });
    reg.session("Gen", |sid: &u64| *sid);
    reg.node("Spin", |_| {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(100) {
            std::hint::spin_loop();
        }
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(SHARDS, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total, "no event lost or doubled");
    let stats = server.stats.shard_stats().unwrap();
    let batched: u64 = stats
        .iter()
        .map(|s| s.batch_events.load(Ordering::Relaxed))
        .sum();
    assert!(batched >= total, "all submissions took the batched path");
    assert!(
        server.stats.total_steals() > 0,
        "thieves must steal from the saturated home shard"
    );
    for (i, st) in stats.iter().enumerate() {
        assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {i} drained");
    }
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
        .map(|s| s.executed.load(Ordering::Relaxed) + s.stolen.load(Ordering::Relaxed))
        .sum();
    assert!(executed >= 2_000, "every event dequeued somewhere");
}

/// The dispatcher runs at most one node per queue turn: on one shard
/// (nothing to steal, no locks to retry) a three-node chain costs
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
            // Conservation: every submitted event is dequeued exactly
            // once (own-queue pops + steals cover all submissions).
            for (i, st) in stats.iter().enumerate() {
                prop_assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {} drained", i);
            }
        }
    }
}
