//! # flux-runtime — runtime systems for Flux programs
//!
//! Executes programs compiled by `flux-core` on any of the paper's three
//! runtime systems (thread-per-flow, thread-pool, event-driven), with the
//! atomicity-constraint lock manager and optional Ball–Larus path
//! profiling.
//!
//! The sharded event-driven runtime's steady-state event path is
//! **batched and allocation-free**: sources may return a whole burst of
//! flows per poll ([`SourceOutcome::Batch`] — the web server hands over
//! one reactor round's readiness batch at a time), and the runtime
//! routes the burst to its home shards with one queue lock and at most
//! one condvar notify per destination shard (`route_home_batch`). A
//! per-shard *parked* flag, maintained under the shard's queue lock,
//! lets enqueuers skip the notify entirely when the dispatcher is
//! provably awake. [`ShardStat::batches`]/[`ShardStat::batch_events`]
//! expose the amortization factor, and on multi-core hosts each
//! `flux-shard-N` thread pins itself to core `N mod host_cores`
//! ([`affinity`]), with the resulting state
//! recorded in [`ServerStats::pinning`].
//!
//! ## Overload invariants
//!
//! Past saturation a staged pipeline is only as robust as the bounds on
//! each stage's queue, so the sharded runtime can run under
//! [`OverloadPolicy::Bounded`]: a hard depth cap on every shard queue.
//! The rules for where shedding may and may not happen:
//!
//! * **Shedding happens only at the source-submission boundary**
//!   (`route_home_batch`, the path that admits a source's burst into
//!   the shard queues). A group whose destination shard stands at the
//!   cap is truncated; the overflow payloads are counted in
//!   [`ShardStat::shed`] and handed to the registry's
//!   [`NodeRegistry::on_shed`] handler on the source thread, *before*
//!   they enter any queue — servers answer a cheap prebuilt 503/BUSY
//!   there instead of queueing doomed work.
//! * **Admitted events are never dropped.** Requeues
//!   (`Step::WouldBlock`, one-node-per-turn fairness) and I/O-pool
//!   completions move events that already passed admission; neither
//!   path consults the cap, so a flow that entered the graph always
//!   reaches an `End`.
//! * **Every shed is counted.** The conservation invariant `offered ==
//!   admitted + shed` is exposed through
//!   [`ServerStats::overload`](stats::OverloadStat) /
//!   [`ServerStats::total_shed`] and proptested across random
//!   interleavings.
//! * [`OverloadPolicy::Unbounded`] (the default) is the paper's
//!   semantics: no cap, no shedding, queues grow with demand.
//!
//! Edge admission (accept governing, idle reaping) lives one layer
//! down, in `flux-net`'s `ConnDriver` — see that crate's "Overload
//! invariants" docs.
//!
//! ## One node per queue turn
//!
//! The event dispatcher runs at most one node execution per queue turn:
//! an event that has run a node and stands at another goes to the back
//! of its shard's queue, as in the paper's runtime, where every node
//! input is an event of its own. Lock and dispatch vertices between
//! two nodes run in the same turn. `flux-core`'s fusion pass still
//! finds the straight-line segments a flow could run in one turn, but
//! only as analysis for `fluxc fused` and the DOT renderer; no runtime
//! executes them.
//!
//! ```
//! use flux_runtime::{NodeOutcome, NodeRegistry, SourceOutcome, FluxServer};
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! const PROGRAM: &str = "
//!     Gen () => (int v);
//!     Double (int v) => (int v);
//!     Print (int v) => ();
//!     Flow = Double -> Print;
//!     source Gen => Flow;
//! ";
//!
//! struct Payload { v: u32 }
//!
//! let program = flux_core::compile(PROGRAM).unwrap();
//! let mut reg: NodeRegistry<Payload> = NodeRegistry::new();
//! let n = AtomicU32::new(0);
//! reg.source("Gen", move || {
//!     match n.fetch_add(1, Ordering::SeqCst) {
//!         0..=9 => SourceOutcome::New(Payload { v: n.load(Ordering::SeqCst) }),
//!         _ => SourceOutcome::Shutdown,
//!     }
//! });
//! reg.node("Double", |p: &mut Payload| { p.v *= 2; NodeOutcome::Ok });
//! reg.node("Print", |_p: &mut Payload| NodeOutcome::Ok);
//!
//! let server = std::sync::Arc::new(FluxServer::new(program, reg).unwrap());
//! let handle = flux_runtime::start(
//!     server.clone(),
//!     flux_runtime::RuntimeKind::ThreadPool { workers: 2 },
//! );
//! handle.join();
//! assert_eq!(server.stats.finished(), 10);
//! ```

pub mod affinity;
pub mod locks;
pub mod profile;
pub mod profile_socket;
pub mod registry;
pub mod runtimes;
pub mod server;
pub mod stats;

pub use locks::{FlowId, LockManager, ReentrantRwLock};
pub use profile::{HotOrder, HotPath, PathProfiler};
pub use profile_socket::handle_profile_conn;
pub use registry::{NodeOutcome, NodeRegistry, SourceOutcome};
pub use runtimes::{shard_index, start, OverloadConfig, OverloadPolicy, RuntimeKind, ServerHandle};
pub use server::{FlowCursor, FluxServer, LockWait, Step};
pub use stats::{
    CachePadded, FanoutStat, LatencyHistogram, NetCounters, OverloadStat, PinningStat, ServerStats,
    ShardStat,
};
