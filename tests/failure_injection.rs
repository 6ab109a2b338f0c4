//! Failure injection across all three runtimes.
//!
//! The paper's error model (§2.4): "Flux expects nodes to follow the
//! standard UNIX convention of returning error codes. Whenever a node
//! returns a non-zero value, Flux checks if an error handler has been
//! declared for the node. If none exists, the current data flow is
//! simply terminated." These tests inject deterministic failures into
//! running servers and check that every flow is accounted for, handlers
//! run exactly as often as their nodes fail, constraint locks never leak
//! across error exits, and the path profiler attributes error paths
//! correctly.

use flux::core::EndKind;
use flux::runtime::{
    start, FluxServer, HotOrder, NodeOutcome, NodeRegistry, OverloadPolicy, RuntimeKind,
    SourceOutcome,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ALL_RUNTIMES: [RuntimeKind; 4] = [
    RuntimeKind::ThreadPerFlow,
    RuntimeKind::ThreadPool { workers: 4 },
    RuntimeKind::EventDriven {
        shards: 1,
        io_workers: 2,
        overload: OverloadPolicy::Unbounded,
    },
    RuntimeKind::Staged { stage_workers: 2 },
];

const PIPELINE: &str = "
    Gen () => (int n);
    Stage1 (int n) => (int n);
    Stage2 (int n) => (int n);
    Commit (int n) => ();
    Recover (int n) => ();
    Flow = Stage1 -> Stage2 -> Commit;
    source Gen => Flow;
    handle error Stage1 => Recover;
    atomic Stage2: {state};
";

struct Counters {
    recovered: AtomicU64,
    committed: AtomicU64,
}

/// Builds the pipeline registry. `fail1(n)` / `fail2(n)` decide whether
/// Stage1 / Stage2 fail for payload `n` — deterministic functions of the
/// payload so tests can assert exact counts.
fn registry(
    total: u64,
    fail1: fn(u64) -> bool,
    fail2: fn(u64) -> bool,
) -> (NodeRegistry<u64>, Arc<Counters>) {
    let counters = Arc::new(Counters {
        recovered: AtomicU64::new(0),
        committed: AtomicU64::new(0),
    });
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let produced = AtomicU64::new(0);
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(i)
        }
    });
    reg.node("Stage1", move |n: &mut u64| {
        if fail1(*n) {
            NodeOutcome::Err(5)
        } else {
            NodeOutcome::Ok
        }
    });
    reg.node("Stage2", move |n: &mut u64| {
        if fail2(*n) {
            NodeOutcome::Err(17)
        } else {
            NodeOutcome::Ok
        }
    });
    let c = counters.clone();
    reg.node("Commit", move |_| {
        c.committed.fetch_add(1, Ordering::SeqCst);
        NodeOutcome::Ok
    });
    let c = counters.clone();
    reg.node("Recover", move |_| {
        c.recovered.fetch_add(1, Ordering::SeqCst);
        NodeOutcome::Ok
    });
    (reg, counters)
}

fn wait_finished(server: &FluxServer<u64>, total: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while server.stats.finished() < total && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Handled failures: every third flow fails at Stage1; the handler runs
/// exactly once per failure and the outcome is `Handled`, on every
/// runtime.
#[test]
fn handled_failures_route_to_handler_exactly() {
    for kind in ALL_RUNTIMES {
        let total = 300u64;
        let program = flux::core::compile(PIPELINE).unwrap();
        let (reg, counters) = registry(total, |n| n % 3 == 0, |_| false);
        let server = Arc::new(FluxServer::new(program, reg).unwrap());
        let handle = start(server.clone(), kind);
        handle.join();
        wait_finished(&server, total);

        let failures = (0..total).filter(|n| n % 3 == 0).count() as u64;
        assert_eq!(
            counters.recovered.load(Ordering::SeqCst),
            failures,
            "{kind:?}: handler executions"
        );
        assert_eq!(
            counters.committed.load(Ordering::SeqCst),
            total - failures,
            "{kind:?}: commits"
        );
        assert_eq!(
            server.stats.handled.load(Ordering::Relaxed),
            failures,
            "{kind:?}"
        );
        assert_eq!(
            server.stats.completed.load(Ordering::Relaxed),
            total - failures,
            "{kind:?}"
        );
        assert_eq!(server.stats.errored.load(Ordering::Relaxed), 0, "{kind:?}");
    }
}

/// Unhandled failures inside a constrained node: the flow terminates, the
/// `state` lock is released, and every remaining flow still finishes —
/// a leaked lock would hang the join on every runtime.
#[test]
fn unhandled_failures_release_constraints() {
    for kind in ALL_RUNTIMES {
        let total = 300u64;
        let program = flux::core::compile(PIPELINE).unwrap();
        let (reg, counters) = registry(total, |_| false, |n| n % 5 == 0);
        let server = Arc::new(FluxServer::new(program, reg).unwrap());
        let handle = start(server.clone(), kind);
        handle.join();
        wait_finished(&server, total);

        let failures = (0..total).filter(|n| n % 5 == 0).count() as u64;
        assert_eq!(
            server.stats.errored.load(Ordering::Relaxed),
            failures,
            "{kind:?}"
        );
        assert_eq!(
            counters.committed.load(Ordering::SeqCst),
            total - failures,
            "{kind:?}"
        );
        assert_eq!(server.stats.finished(), total, "{kind:?}: no flow lost");
    }
}

/// A failing handler: flows whose handler also fails end `Errored`, the
/// rest of the failures end `Handled`, and the split is exact.
#[test]
fn failing_handler_chains_to_error_end() {
    const SRC: &str = "
        Gen () => (int n);
        Work (int n) => (int n);
        Done (int n) => ();
        Fixup (int n) => ();
        Flow = Work -> Done;
        source Gen => Flow;
        handle error Work => Fixup;
    ";
    let total = 200u64;
    let program = flux::core::compile(SRC).unwrap();
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let produced = AtomicU64::new(0);
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(i)
        }
    });
    // Work fails on even payloads; Fixup itself fails when n % 4 == 0.
    reg.node("Work", |n: &mut u64| {
        if (*n).is_multiple_of(2) {
            NodeOutcome::Err(1)
        } else {
            NodeOutcome::Ok
        }
    });
    reg.node("Fixup", |n: &mut u64| {
        if (*n).is_multiple_of(4) {
            NodeOutcome::Err(2)
        } else {
            NodeOutcome::Ok
        }
    });
    reg.node("Done", |_| NodeOutcome::Ok);
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::ThreadPool { workers: 4 });
    handle.join();
    wait_finished(&server, total);

    let work_fails = (0..total).filter(|n| n % 2 == 0).count() as u64;
    let chain_fails = (0..total).filter(|n| n % 4 == 0).count() as u64;
    assert_eq!(
        server.stats.completed.load(Ordering::Relaxed),
        total - work_fails
    );
    assert_eq!(
        server.stats.handled.load(Ordering::Relaxed),
        work_fails - chain_fails
    );
    assert_eq!(server.stats.errored.load(Ordering::Relaxed), chain_fails);
}

/// Any non-zero code is an error — the specific code does not matter
/// (the UNIX convention of §2.4).
#[test]
fn any_nonzero_code_is_an_error() {
    for code in [1, -1, 404, i32::MAX, i32::MIN] {
        let program = flux::core::compile(
            "Gen () => (int n); Work (int n) => (); F = Work; source Gen => F;",
        )
        .unwrap();
        let mut reg: NodeRegistry<u64> = NodeRegistry::new();
        let produced = AtomicU64::new(0);
        reg.source("Gen", move || {
            if produced.fetch_add(1, Ordering::SeqCst) >= 10 {
                SourceOutcome::Shutdown
            } else {
                SourceOutcome::New(0)
            }
        });
        reg.node("Work", move |_| NodeOutcome::from_code(code));
        let server = Arc::new(FluxServer::new(program, reg).unwrap());
        let handle = start(server.clone(), RuntimeKind::ThreadPool { workers: 2 });
        handle.join();
        wait_finished(&server, 10);
        assert_eq!(
            server.stats.errored.load(Ordering::Relaxed),
            10,
            "code {code}"
        );
    }
}

/// The path profiler attributes injected failures to the right paths:
/// the handled path and the success path counts match the injection
/// schedule exactly.
#[test]
fn profiler_counts_error_paths_exactly() {
    let total = 240u64;
    let program = flux::core::compile(PIPELINE).unwrap();
    let (reg, _counters) = registry(total, |n| n % 4 == 0, |_| false);
    let server = Arc::new(FluxServer::with_profiling(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::ThreadPool { workers: 4 });
    handle.join();
    wait_finished(&server, total);

    let failures = (0..total).filter(|n| n % 4 == 0).count() as u64;
    let profiler = server.profiler().expect("profiling enabled");
    let report = profiler.report(server.program(), 0, HotOrder::ByCount);
    let handled: u64 = report
        .iter()
        .filter(|h| matches!(h.info.outcome, EndKind::Handled { .. }))
        .map(|h| h.count)
        .sum();
    let completed: u64 = report
        .iter()
        .filter(|h| h.info.outcome == EndKind::Completed)
        .map(|h| h.count)
        .sum();
    assert_eq!(handled, failures);
    assert_eq!(completed, total - failures);
    // The handled path names the handler node.
    let handled_path = report
        .iter()
        .find(|h| matches!(h.info.outcome, EndKind::Handled { .. }))
        .unwrap();
    assert!(handled_path.info.nodes.contains(&"Recover".to_string()));
    // Observed parameters pick up the injected error probability (~25%).
    let params = profiler.observed_params(server.program());
    let flow = &server.program().flows[0];
    let (stage1_vid, _) = flow
        .flat
        .execs()
        .find(|&(_, nid)| server.program().graph.name(nid) == "Stage1")
        .unwrap();
    let p = params.flows[0].error_prob[&stage1_vid];
    assert!((p - 0.25).abs() < 0.01, "observed error prob {p}");
}

/// Sustained failure storms do not wedge the event runtime: a burst in
/// which *every* flow errors on a blocking node drains completely.
#[test]
fn event_runtime_survives_total_failure_of_blocking_node() {
    const SRC: &str = "
        Gen () => (int n);
        Io (int n) => (int n);
        Done (int n) => ();
        Flow = Io -> Done;
        source Gen => Flow;
        blocking Io;
        atomic Io: {conn};
    ";
    let total = 150u64;
    let program = flux::core::compile(SRC).unwrap();
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let produced = AtomicU64::new(0);
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(i)
        }
    });
    reg.node_blocking("Io", |_| {
        std::thread::sleep(Duration::from_micros(200));
        NodeOutcome::Err(111)
    });
    reg.node("Done", |_| NodeOutcome::Ok);
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(1, 3));
    handle.join();
    wait_finished(&server, total);
    assert_eq!(server.stats.errored.load(Ordering::Relaxed), total);
    assert_eq!(server.stats.completed.load(Ordering::Relaxed), 0);
}
