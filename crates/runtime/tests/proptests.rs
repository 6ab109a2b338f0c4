//! Property-based tests for the runtime: lock-manager invariants under
//! random interleavings, and flow accounting across runtimes for random
//! programs.

use flux_core::ConstraintMode;
use flux_runtime::{
    start, FluxServer, NodeOutcome, NodeRegistry, ReentrantRwLock, RuntimeKind, SourceOutcome,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random sequences of acquire/release on one flow never deadlock
    /// and always leave the lock free (single-flow reentrancy model).
    #[test]
    fn single_flow_lock_sequences(ops in proptest::collection::vec(any::<bool>(), 0..40)) {
        let lock = ReentrantRwLock::new();
        let mut held: Vec<ConstraintMode> = Vec::new();
        for op in ops {
            // Acquire while we can, release otherwise; mode choice must
            // avoid the (compiler-prevented) read->write upgrade.
            let writer_held = held.contains(&ConstraintMode::Writer);
            if op || held.is_empty() {
                let mode = if held.is_empty() {
                    if op { ConstraintMode::Writer } else { ConstraintMode::Reader }
                } else if writer_held {
                    // Re-acquire either way under a writer.
                    if op { ConstraintMode::Writer } else { ConstraintMode::Reader }
                } else {
                    ConstraintMode::Reader
                };
                prop_assert!(lock.try_acquire(1, mode));
                held.push(mode);
            } else if let Some(mode) = held.pop() {
                lock.release(1, mode);
            }
        }
        for mode in held.into_iter().rev() {
            lock.release(1, mode);
        }
        // Fully released: another flow can take a writer.
        prop_assert!(lock.try_acquire(2, ConstraintMode::Writer));
    }

    /// A randomly-shaped dispatch program completes every flow on every
    /// runtime with consistent outcome accounting.
    #[test]
    fn random_dispatch_flow_accounting(
        total in 1u64..120,
        err_mod in 2u64..9,
        small_cut in 1u64..100,
        pool in 1usize..6,
    ) {
        const SRC: &str = "
            Gen () => (int n);
            Check (int n) => (int n);
            Small (int n) => (int n);
            Big (int n) => (int n);
            Done (int n) => ();
            Fail (int n) => ();
            typedef small IsSmall;
            source Gen => Flow;
            Flow = Check -> Route -> Done;
            Route:[small] = Small;
            Route:[_] = Big;
            handle error Check => Fail;
            atomic Done: {tally};
        ";
        let program = flux_core::compile(SRC).unwrap();
        let produced = AtomicU64::new(0);
        let small = Arc::new(AtomicU64::new(0));
        let big = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        let mut reg: NodeRegistry<u64> = NodeRegistry::new();
        reg.source("Gen", move || {
            let i = produced.fetch_add(1, Ordering::SeqCst);
            if i >= total { SourceOutcome::Shutdown } else { SourceOutcome::New(i) }
        });
        let em = err_mod;
        reg.node("Check", move |n: &mut u64| {
            if (*n).is_multiple_of(em) { NodeOutcome::Err(1) } else { NodeOutcome::Ok }
        });
        let sc = small_cut;
        reg.predicate("IsSmall", move |n: &u64| *n < sc);
        {
            let small = small.clone();
            reg.node("Small", move |_| { small.fetch_add(1, Ordering::Relaxed); NodeOutcome::Ok });
        }
        {
            let big = big.clone();
            reg.node("Big", move |_| { big.fetch_add(1, Ordering::Relaxed); NodeOutcome::Ok });
        }
        reg.node("Done", |_| NodeOutcome::Ok);
        {
            let failed = failed.clone();
            reg.node("Fail", move |_| { failed.fetch_add(1, Ordering::Relaxed); NodeOutcome::Ok });
        }
        let server = Arc::new(FluxServer::new(program, reg).unwrap());
        let handle = start(server.clone(), RuntimeKind::ThreadPool { workers: pool });
        handle.join();
        prop_assert_eq!(server.stats.finished(), total);
        let s = small.load(Ordering::Relaxed);
        let b = big.load(Ordering::Relaxed);
        let f = failed.load(Ordering::Relaxed);
        prop_assert_eq!(s + b + f, total, "every flow routed exactly once");
        let expect_failed = (0..total).filter(|n| n % err_mod == 0).count() as u64;
        prop_assert_eq!(f, expect_failed);
        let expect_small = (0..total)
            .filter(|n| n % err_mod != 0 && *n < small_cut)
            .count() as u64;
        prop_assert_eq!(s, expect_small);
    }
}
