//! The Flux server core: resolved programs and stepwise flow execution.
//!
//! A [`FluxServer`] binds a compiled program to a [`NodeRegistry`] and
//! executes flows by interpreting the flattened vertex graph. Execution
//! is *stepwise*: [`FluxServer::step`] advances a [`FlowCursor`] by one
//! vertex, so the thread runtimes can drive a flow to completion on one
//! stack while the event runtime interleaves thousands of cursors on a
//! single dispatcher thread. Every node is its own step, as in the
//! paper's event-driven runtime (§3.2); the straight-line segments
//! `flux_core::fuse` finds are compile-time analysis for `fluxc`, not an
//! execution mode.

use crate::locks::{FlowId, HeldLock, LockManager};
use crate::profile::PathProfiler;
use crate::registry::{NodeEntry, NodeOutcome, NodeRegistry, SourceOutcome};
use crate::stats::ServerStats;
use flux_core::{CompiledProgram, ConstraintRef, EndKind, FlatVertex, PatElem, VertexId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A vertex with every name resolved to callables — no hash lookups on
/// the hot path.
enum ResolvedVertex<P> {
    Acquire {
        cs: Arc<[ConstraintRef]>,
        next: VertexId,
    },
    Release {
        count: usize,
        next: VertexId,
    },
    Exec {
        entry: NodeEntry<P>,
        may_block: bool,
        on_ok: VertexId,
        on_err: VertexId,
    },
    Dispatch {
        /// For each arm: the predicates that must all hold, and the entry.
        arms: Vec<(Vec<Arc<dyn Fn(&P) -> bool + Send + Sync>>, VertexId)>,
        on_nomatch: VertexId,
    },
    End {
        outcome: EndKind,
    },
}

struct ResolvedFlow<P> {
    verts: Vec<ResolvedVertex<P>>,
    entry: VertexId,
    source_fn: Arc<dyn Fn() -> SourceOutcome<P> + Send + Sync>,
    session_fn: Option<Arc<dyn Fn(&P) -> u64 + Send + Sync>>,
    source_name: String,
}

/// The position and bookkeeping of one in-flight flow.
pub struct FlowCursor {
    /// Index into the program's flows (which `source` this came from).
    pub flow_idx: usize,
    /// Current vertex.
    pub vertex: VertexId,
    /// Ball–Larus path sum accumulated so far.
    pub path_sum: u64,
    /// Lock-ownership identity.
    pub flow_id: FlowId,
    /// Session id, if the source has a session function.
    pub session: Option<u64>,
    /// Flow start time (latency measurement, path timing).
    pub started: Instant,
    held: Vec<HeldLock>,
    acquire_progress: usize,
}

/// Result of advancing a cursor one step.
pub enum Step {
    /// The cursor moved; call `step` again.
    Continue,
    /// A `try` lock acquisition failed; the cursor is unchanged and the
    /// caller should retry later (event runtime re-queues).
    WouldBlock,
    /// The flow finished.
    Done(EndKind),
}

/// How `step` should wait for constraint locks.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum LockWait {
    /// Block the calling thread (thread runtimes).
    Block,
    /// Fail with [`Step::WouldBlock`] (event runtime).
    Try,
}

/// A compiled Flux program bound to its node implementations.
pub struct FluxServer<P> {
    program: Arc<CompiledProgram>,
    flows: Vec<ResolvedFlow<P>>,
    locks: LockManager,
    profiler: Option<PathProfiler>,
    pub stats: ServerStats,
    next_flow_id: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    /// The registry's shed handler (see `NodeRegistry::on_shed`),
    /// invoked by the sharded runtime for every payload shed at the
    /// source under a bounded overload policy.
    shed_handler: Option<Arc<dyn Fn(P) + Send + Sync>>,
}

impl<P: Send + 'static> FluxServer<P> {
    /// Binds `program` to `registry`, resolving every node, predicate and
    /// session function. Fails with the list of missing implementations.
    pub fn new(program: CompiledProgram, registry: NodeRegistry<P>) -> Result<Self, Vec<String>> {
        Self::build(program, registry, false)
    }

    /// Like [`FluxServer::new`] but with Ball–Larus path profiling
    /// enabled (the paper's `-profile` compiler switch).
    pub fn with_profiling(
        program: CompiledProgram,
        registry: NodeRegistry<P>,
    ) -> Result<Self, Vec<String>> {
        Self::build(program, registry, true)
    }

    fn build(
        program: CompiledProgram,
        registry: NodeRegistry<P>,
        profile: bool,
    ) -> Result<Self, Vec<String>> {
        registry.validate(&program)?;
        let program = Arc::new(program);
        let graph = &program.graph;
        let mut flows = Vec::with_capacity(program.flows.len());
        for flow in &program.flows {
            let mut verts = Vec::with_capacity(flow.flat.verts.len());
            for v in &flow.flat.verts {
                verts.push(match v {
                    FlatVertex::Acquire { node, next } => ResolvedVertex::Acquire {
                        cs: graph.nodes[*node].constraints.clone().into(),
                        next: *next,
                    },
                    FlatVertex::Release { node, next } => ResolvedVertex::Release {
                        count: graph.nodes[*node].constraints.len(),
                        next: *next,
                    },
                    FlatVertex::Exec {
                        node,
                        on_ok,
                        on_err,
                    } => {
                        let name = graph.name(*node);
                        let entry = registry.node_entry(name).expect("validated above").clone();
                        let may_block = entry.may_block || graph.nodes[*node].blocking;
                        ResolvedVertex::Exec {
                            entry,
                            may_block,
                            on_ok: *on_ok,
                            on_err: *on_err,
                        }
                    }
                    FlatVertex::Dispatch {
                        node,
                        arms,
                        on_nomatch,
                    } => {
                        let variants = graph.variants(*node);
                        let arms = arms
                            .iter()
                            .map(|arm| {
                                let preds = match &variants[arm.variant].pattern {
                                    None => Vec::new(),
                                    Some(pat) => pat
                                        .iter()
                                        .filter_map(|el| match el {
                                            PatElem::Wildcard => None,
                                            PatElem::Pred(ty) => {
                                                let func = &graph.predicates[ty];
                                                Some(registry.predicates[func].clone())
                                            }
                                        })
                                        .collect(),
                                };
                                (preds, arm.entry)
                            })
                            .collect();
                        ResolvedVertex::Dispatch {
                            arms,
                            on_nomatch: *on_nomatch,
                        }
                    }
                    FlatVertex::End { outcome } => ResolvedVertex::End { outcome: *outcome },
                });
            }
            let source_name = graph.name(flow.flat.source).to_string();
            flows.push(ResolvedFlow {
                verts,
                entry: flow.flat.entry,
                source_fn: registry.sources[&source_name].clone(),
                session_fn: registry.session_fns.get(&source_name).cloned(),
                source_name,
            });
        }
        let profiler = profile.then(|| PathProfiler::new(&program));
        Ok(FluxServer {
            program,
            flows,
            locks: LockManager::new(),
            profiler,
            stats: ServerStats::new(),
            next_flow_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            shed_handler: registry.shed_handler.clone(),
        })
    }

    /// The shed handler registered on the node registry, if any.
    pub(crate) fn shed_handler(&self) -> Option<Arc<dyn Fn(P) + Send + Sync>> {
        self.shed_handler.clone()
    }

    /// The compiled program this server runs.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The profiler, when profiling is enabled.
    pub fn profiler(&self) -> Option<&PathProfiler> {
        self.profiler.as_ref()
    }

    /// Number of source flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The source node's name for flow `fi`.
    pub fn source_name(&self, fi: usize) -> &str {
        &self.flows[fi].source_name
    }

    /// Requests cooperative shutdown: source loops stop after their next
    /// return and runtimes drain.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Pulls one unit of work from source `fi`. Returns `None` to stop
    /// the source loop. Only valid for sources that never return
    /// [`SourceOutcome::Batch`] (a batch cannot be squeezed into one
    /// pair without losing events); runtimes use
    /// [`FluxServer::poll_source_batch`], which handles both.
    pub fn poll_source(&self, fi: usize) -> Option<Option<(FlowCursor, P)>> {
        let mut out = Vec::with_capacity(1);
        if !self.poll_source_batch(fi, &mut out) {
            return None;
        }
        match out.len() {
            0 => Some(None),
            1 => Some(out.pop()),
            n => panic!(
                "poll_source cannot carry a batch of {n}; use poll_source_batch \
                 for sources that return SourceOutcome::Batch"
            ),
        }
    }

    /// Pulls the next unit(s) of work from source `fi`, appending a
    /// cursor/payload pair per new flow to `out` (zero pairs on a
    /// skip). Returns `false` when the source loop should stop. This is
    /// the batch-aware source protocol: a [`SourceOutcome::Batch`] of N
    /// flows costs one poll, and the caller hands the whole vector to
    /// the runtime's batched submission path.
    pub fn poll_source_batch(&self, fi: usize, out: &mut Vec<(FlowCursor, P)>) -> bool {
        if self.is_shutting_down() {
            return false;
        }
        match (self.flows[fi].source_fn)() {
            SourceOutcome::Shutdown => false,
            SourceOutcome::Skip => true,
            SourceOutcome::New(payload) => {
                let cursor = self.new_cursor(fi, &payload);
                out.push((cursor, payload));
                true
            }
            SourceOutcome::Batch(payloads) => {
                out.reserve(payloads.len());
                for payload in payloads {
                    let cursor = self.new_cursor(fi, &payload);
                    out.push((cursor, payload));
                }
                true
            }
        }
    }

    /// Creates the cursor for a new flow carrying `payload`.
    pub fn new_cursor(&self, fi: usize, payload: &P) -> FlowCursor {
        let now = Instant::now();
        self.stats.started.fetch_add(1, Ordering::Relaxed);
        if let Some(prof) = &self.profiler {
            prof.record_arrival(fi, now);
        }
        FlowCursor {
            flow_idx: fi,
            vertex: self.flows[fi].entry,
            path_sum: 0,
            flow_id: self.next_flow_id.fetch_add(1, Ordering::Relaxed),
            session: self.flows[fi].session_fn.as_ref().map(|f| f(payload)),
            started: now,
            held: Vec::new(),
            acquire_progress: 0,
        }
    }

    /// True when the cursor's current vertex is a node execution that may
    /// block (the event runtime off-loads these to its I/O pool).
    pub fn at_blocking_exec(&self, cur: &FlowCursor) -> bool {
        matches!(
            self.flows[cur.flow_idx].verts[cur.vertex],
            ResolvedVertex::Exec {
                may_block: true,
                ..
            }
        )
    }

    /// True when some flow executes a node that may block — a
    /// `blocking` node, or one registered with `node_blocking`. The
    /// event runtime starts its I/O pool only then.
    pub fn can_block(&self) -> bool {
        self.flows.iter().flat_map(|f| &f.verts).any(|v| {
            matches!(
                v,
                ResolvedVertex::Exec {
                    may_block: true,
                    ..
                }
            )
        })
    }

    /// Node executions the next `step` at this cursor performs: 1 at an
    /// `Exec` vertex, 0 at bookkeeping vertices. The event dispatcher
    /// gives each node execution its own queue turn with this.
    pub fn exec_cost(&self, cur: &FlowCursor) -> usize {
        match self.flows[cur.flow_idx].verts[cur.vertex] {
            ResolvedVertex::Exec { .. } => 1,
            _ => 0,
        }
    }

    /// The concrete node the cursor is about to execute, if it stands at
    /// an `Exec` vertex (used by the staged runtime to pick a stage).
    pub fn exec_node(&self, cur: &FlowCursor) -> Option<flux_core::NodeId> {
        match self.program.flows[cur.flow_idx].flat.verts[cur.vertex] {
            flux_core::FlatVertex::Exec { node, .. } => Some(node),
            _ => None,
        }
    }

    #[inline]
    fn take_edge(&self, cur: &mut FlowCursor, k: usize, to: VertexId) {
        let inc = self.program.flows[cur.flow_idx].paths.inc[cur.vertex][k];
        if let Some(prof) = &self.profiler {
            prof.record_edge(cur.flow_idx, cur.vertex, k);
        }
        cur.path_sum += inc;
        cur.vertex = to;
    }

    fn release_all(&self, cur: &mut FlowCursor) {
        while let Some(h) = cur.held.pop() {
            h.lock.release(cur.flow_id, h.mode);
        }
    }

    /// Advances the flow one vertex.
    pub fn step(&self, cur: &mut FlowCursor, payload: &mut P, wait: LockWait) -> Step {
        let rf = &self.flows[cur.flow_idx];
        match &rf.verts[cur.vertex] {
            ResolvedVertex::Acquire { cs, next } => {
                while cur.acquire_progress < cs.len() {
                    let c = &cs[cur.acquire_progress];
                    let lock = self.locks.lock_for(&c.name, c.scope, cur.session);
                    let acquired = match wait {
                        LockWait::Block => {
                            lock.acquire(cur.flow_id, c.mode);
                            true
                        }
                        LockWait::Try => lock.try_acquire(cur.flow_id, c.mode),
                    };
                    if !acquired {
                        return Step::WouldBlock;
                    }
                    cur.held.push(HeldLock { lock, mode: c.mode });
                    cur.acquire_progress += 1;
                }
                cur.acquire_progress = 0;
                self.take_edge(cur, 0, *next);
                Step::Continue
            }
            ResolvedVertex::Release { count, next } => {
                for _ in 0..*count {
                    let h = cur
                        .held
                        .pop()
                        .expect("release vertex with empty held stack");
                    h.lock.release(cur.flow_id, h.mode);
                }
                self.take_edge(cur, 0, *next);
                Step::Continue
            }
            ResolvedVertex::Exec {
                entry,
                on_ok,
                on_err,
                ..
            } => {
                let profiling = self.profiler.is_some();
                let t0 = profiling.then(Instant::now);
                let outcome = (entry.f)(payload);
                if let (Some(prof), Some(t0)) = (&self.profiler, t0) {
                    prof.record_exec(cur.flow_idx, cur.vertex, t0.elapsed().as_nanos() as u64);
                }
                match outcome {
                    NodeOutcome::Ok => self.take_edge(cur, 0, *on_ok),
                    NodeOutcome::Err(_) => {
                        // The flow is terminating (possibly via a
                        // handler): two-phase locking's shrink phase
                        // happens now, before any handler runs.
                        self.release_all(cur);
                        self.take_edge(cur, 1, *on_err);
                    }
                }
                Step::Continue
            }
            ResolvedVertex::Dispatch { arms, on_nomatch } => {
                for (k, (preds, entry)) in arms.iter().enumerate() {
                    if preds.iter().all(|p| p(payload)) {
                        self.take_edge(cur, k, *entry);
                        return Step::Continue;
                    }
                }
                self.take_edge(cur, arms.len(), *on_nomatch);
                Step::Continue
            }
            ResolvedVertex::End { outcome } => {
                self.release_all(cur);
                let elapsed = cur.started.elapsed();
                self.stats.record_end(*outcome, elapsed);
                if let Some(prof) = &self.profiler {
                    prof.record_path(cur.flow_idx, cur.path_sum, elapsed.as_nanos() as u64);
                }
                Step::Done(*outcome)
            }
        }
    }

    /// Drives a flow to completion on the current thread (thread
    /// runtimes), blocking on locks as needed.
    pub fn run_flow(&self, mut cursor: FlowCursor, mut payload: P) -> EndKind {
        loop {
            match self.step(&mut cursor, &mut payload, LockWait::Block) {
                Step::Continue => {}
                Step::Done(end) => return end,
                Step::WouldBlock => unreachable!("LockWait::Block never yields WouldBlock"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SourceOutcome;
    use parking_lot::Mutex;

    #[derive(Default)]
    struct P {
        valid: bool,
        trace: Vec<&'static str>,
        fail_parse: bool,
    }

    fn registry(events: Arc<Mutex<Vec<String>>>) -> NodeRegistry<P> {
        let mut r = NodeRegistry::new();
        r.source("Listen", || SourceOutcome::Shutdown);
        let ev = events.clone();
        r.node("Parse", move |p: &mut P| {
            ev.lock().push("Parse".into());
            p.trace.push("Parse");
            if p.fail_parse {
                NodeOutcome::Err(1)
            } else {
                NodeOutcome::Ok
            }
        });
        for n in ["Respond", "Retry", "Close", "Oops"] {
            let ev = events.clone();
            r.node(n, move |p: &mut P| {
                ev.lock().push(n.into());
                p.trace.push(n);
                NodeOutcome::Ok
            });
        }
        r.predicate("IsValid", |p: &P| p.valid);
        r
    }

    fn server(events: Arc<Mutex<Vec<String>>>) -> FluxServer<P> {
        let program = flux_core::compile(flux_core::fixtures::MINI_PIPELINE).unwrap();
        FluxServer::with_profiling(program, registry(events)).unwrap()
    }

    #[test]
    fn valid_path_takes_first_arm() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let s = server(events.clone());
        let payload = P {
            valid: true,
            ..P::default()
        };
        let cursor = s.new_cursor(0, &payload);
        let end = s.run_flow(cursor, payload);
        assert_eq!(end, EndKind::Completed);
        assert_eq!(*events.lock(), vec!["Parse", "Respond", "Close"]);
    }

    #[test]
    fn invalid_path_takes_catch_all() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let s = server(events.clone());
        let payload = P::default();
        let cursor = s.new_cursor(0, &payload);
        let end = s.run_flow(cursor, payload);
        assert_eq!(end, EndKind::Completed);
        assert_eq!(*events.lock(), vec!["Parse", "Respond", "Retry", "Close"]);
    }

    #[test]
    fn error_routes_to_handler() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let s = server(events.clone());
        let payload = P {
            fail_parse: true,
            ..P::default()
        };
        let cursor = s.new_cursor(0, &payload);
        let end = s.run_flow(cursor, payload);
        assert!(matches!(end, EndKind::Handled { .. }));
        assert_eq!(*events.lock(), vec!["Parse", "Oops"]);
        assert_eq!(s.stats.handled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn profiler_distinguishes_paths() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let s = server(events);
        for (valid, fail) in [(true, false), (true, false), (false, false), (false, true)] {
            let payload = P {
                valid,
                fail_parse: fail,
                ..P::default()
            };
            let cursor = s.new_cursor(0, &payload);
            s.run_flow(cursor, payload);
        }
        let report =
            s.profiler()
                .unwrap()
                .report(s.program(), 0, crate::profile::HotOrder::ByCount);
        assert_eq!(report.len(), 3, "three distinct paths executed");
        assert_eq!(report[0].count, 2);
        let display = report[0]
            .info
            .display(&s.program().graph, &s.program().flows[0].flat);
        assert!(display.starts_with("Listen -> Parse -> Respond"));
    }

    #[test]
    fn missing_impl_rejected() {
        let program = flux_core::compile(flux_core::fixtures::MINI_PIPELINE).unwrap();
        let r: NodeRegistry<P> = NodeRegistry::new();
        let missing = FluxServer::new(program, r).err().unwrap();
        assert!(!missing.is_empty());
    }
}
