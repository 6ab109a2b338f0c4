//! The Flux server core: resolved programs and stepwise flow execution.
//!
//! A [`FluxServer`] binds a compiled program to a [`NodeRegistry`] and
//! executes flows by interpreting the flattened vertex graph. Execution
//! is *stepwise*: [`FluxServer::step`] advances a [`FlowCursor`] by one
//! vertex, so the thread runtimes can drive a flow to completion on one
//! stack while the event runtime interleaves thousands of cursors on a
//! single dispatcher thread.
//!
//! Under [`FusionMode::On`] (the default), straight-line chains of
//! `Exec`/`Release` vertices are compiled into [`ResolvedVertex::FusedExec`]
//! segments that one `step` call executes end to end — one queue turn per
//! segment instead of one per node. Fusion is re-derived here (not taken
//! verbatim from the compiler) because the registry knows about
//! `node_blocking` nodes the program text doesn't declare; see
//! `flux_core::fuse` for the boundary rules. Fused execution is
//! observation-equivalent to the unfused walk: the same nodes run in the
//! same order, a mid-segment `NodeOutcome::Err` releases locks and lands
//! on the same `on_err` vertex, and the same Ball–Larus edges are
//! recorded, so `path_sum` is bit-identical.

use crate::locks::{FlowId, HeldLock, LockManager};
use crate::profile::PathProfiler;
use crate::registry::{NodeEntry, NodeOutcome, NodeRegistry, SourceOutcome};
use crate::stats::ServerStats;
use flux_core::fuse::FusedFlow;
use flux_core::{CompiledProgram, ConstraintRef, EndKind, FlatVertex, PatElem, VertexId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Whether the server fuses straight-line vertex chains into single-step
/// segments. `Off` keeps the per-node interpreter — the semantic oracle
/// differential tests and ablations compare against. The `FLUX_FUSE`
/// env var (`0`/`off` or `1`/`on`) overrides whatever the builder chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionMode {
    /// Fuse chains; one queue turn executes a whole segment.
    #[default]
    On,
    /// Interpret vertex by vertex (paper-faithful baseline).
    Off,
}

impl FusionMode {
    /// The `FLUX_FUSE` operator override, if set to something
    /// recognizable.
    pub fn from_env() -> Option<FusionMode> {
        match std::env::var("FLUX_FUSE").ok()?.trim() {
            "0" | "off" | "false" => Some(FusionMode::Off),
            "1" | "on" | "true" => Some(FusionMode::On),
            _ => None,
        }
    }
}

/// One member of a fused segment, carrying its original vertex id so
/// edge bookkeeping (Ball–Larus increments, profiler edge counters) is
/// identical to the unfused walk.
enum FusedOp<P> {
    Exec {
        vertex: VertexId,
        entry: NodeEntry<P>,
        on_ok: VertexId,
        on_err: VertexId,
    },
    Release {
        vertex: VertexId,
        count: usize,
        next: VertexId,
    },
}

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
    /// A fused straight-line segment: `ops[0]`'s vertex is this vertex,
    /// and each op's ok/next edge leads to the next op. One `step`
    /// executes the whole chain (a mid-chain error exits early through
    /// its own `on_err` edge).
    FusedExec {
        ops: Box<[FusedOp<P>]>,
        /// Number of `Exec` ops (the segment's node-execution cost,
        /// pre-computed for the dispatcher's step budget).
        execs: usize,
    },
}

struct ResolvedFlow<P> {
    verts: Vec<ResolvedVertex<P>>,
    entry: VertexId,
    source_fn: Arc<dyn Fn() -> SourceOutcome<P> + Send + Sync>,
    session_fn: Option<Arc<dyn Fn(&P) -> u64 + Send + Sync>>,
    /// Flows from this source are pinned to their session's home shard
    /// (see `NodeRegistry::session_pinned`).
    session_pinned: bool,
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
    /// Pinned flows execute only on their session's home shard: the
    /// sharded event dispatchers forward a pinned event home instead of
    /// running it where stealing surfaced it.
    pub pinned: bool,
    /// Flow start time (latency measurement, path timing).
    pub started: Instant,
    held: Vec<HeldLock>,
    acquire_progress: usize,
    /// Node executions the most recent `step` performed inside a fused
    /// segment (0 for every other vertex kind). The event dispatcher
    /// drains this via [`FlowCursor::take_fused_execs`] for its step
    /// budget and the per-shard `fused_execs` counter.
    fused_step_execs: u32,
}

impl FlowCursor {
    /// Returns and resets the fused-execution count of the most recent
    /// `step` (see `fused_step_execs`).
    pub fn take_fused_execs(&mut self) -> u64 {
        std::mem::replace(&mut self.fused_step_execs, 0) as u64
    }
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
    fusion: FusionMode,
    /// Largest node-execution count of any fused segment (1 when fusion
    /// is off or every segment is a singleton): the default dispatcher
    /// step budget.
    max_fused_execs: usize,
    /// The registry's shed handler (see `NodeRegistry::on_shed`),
    /// invoked by the sharded runtime for every payload shed at the
    /// source under a bounded overload policy.
    shed_handler: Option<Arc<dyn Fn(P) + Send + Sync>>,
}

impl<P: Send + 'static> FluxServer<P> {
    /// Binds `program` to `registry`, resolving every node, predicate and
    /// session function. Fails with the list of missing implementations.
    pub fn new(program: CompiledProgram, registry: NodeRegistry<P>) -> Result<Self, Vec<String>> {
        Self::build(program, registry, false, FusionMode::default())
    }

    /// Like [`FluxServer::new`] but with Ball–Larus path profiling
    /// enabled (the paper's `-profile` compiler switch).
    pub fn with_profiling(
        program: CompiledProgram,
        registry: NodeRegistry<P>,
    ) -> Result<Self, Vec<String>> {
        Self::build(program, registry, true, FusionMode::default())
    }

    /// [`FluxServer::new`]/[`FluxServer::with_profiling`] with an
    /// explicit [`FusionMode`] (the builder's fusion knob; `FLUX_FUSE`
    /// still wins when set).
    pub fn with_options(
        program: CompiledProgram,
        registry: NodeRegistry<P>,
        profile: bool,
        fusion: FusionMode,
    ) -> Result<Self, Vec<String>> {
        Self::build(program, registry, profile, fusion)
    }

    fn build(
        program: CompiledProgram,
        registry: NodeRegistry<P>,
        profile: bool,
        fusion: FusionMode,
    ) -> Result<Self, Vec<String>> {
        let fusion = FusionMode::from_env().unwrap_or(fusion);
        registry.validate(&program)?;
        let program = Arc::new(program);
        let graph = &program.graph;
        let mut flows = Vec::with_capacity(program.flows.len());
        let mut max_fused_execs = 1usize;
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
            if fusion == FusionMode::On {
                // Re-fuse with registry knowledge on top of the compiler's
                // pass: `node_blocking` registrations break chains the
                // program text alone would fuse (the `blocking` keyword is
                // already a compile-time boundary).
                let fused = FusedFlow::build_with(&flow.flat, graph, |node| {
                    registry
                        .node_entry(graph.name(node))
                        .is_some_and(|e| e.may_block)
                });
                for seg in &fused.segments {
                    if seg.verts.len() < 2 {
                        continue; // a singleton gains nothing from fusing
                    }
                    let ops: Box<[FusedOp<P>]> = seg
                        .verts
                        .iter()
                        .map(|&vid| match &flow.flat.verts[vid] {
                            FlatVertex::Exec {
                                node,
                                on_ok,
                                on_err,
                            } => FusedOp::Exec {
                                vertex: vid,
                                entry: registry
                                    .node_entry(graph.name(*node))
                                    .expect("validated above")
                                    .clone(),
                                on_ok: *on_ok,
                                on_err: *on_err,
                            },
                            FlatVertex::Release { node, next } => FusedOp::Release {
                                vertex: vid,
                                count: graph.nodes[*node].constraints.len(),
                                next: *next,
                            },
                            other => unreachable!("non-fusable segment member {other:?}"),
                        })
                        .collect();
                    max_fused_execs = max_fused_execs.max(seg.execs);
                    verts[seg.verts[0]] = ResolvedVertex::FusedExec {
                        ops,
                        execs: seg.execs,
                    };
                }
            }
            let source_name = graph.name(flow.flat.source).to_string();
            flows.push(ResolvedFlow {
                verts,
                entry: flow.flat.entry,
                source_fn: registry.sources[&source_name].clone(),
                session_fn: registry.session_fns.get(&source_name).cloned(),
                session_pinned: registry.pinned_sources.contains(&source_name),
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
            fusion,
            max_fused_execs,
            shed_handler: registry.shed_handler.clone(),
        })
    }

    /// The shed handler registered on the node registry, if any.
    pub(crate) fn shed_handler(&self) -> Option<Arc<dyn Fn(P) + Send + Sync>> {
        self.shed_handler.clone()
    }

    /// The effective fusion mode this server was built with (builder
    /// choice after the `FLUX_FUSE` override).
    pub fn fusion_mode(&self) -> FusionMode {
        self.fusion
    }

    /// Largest node-execution count of any fused segment (1 under
    /// [`FusionMode::Off`]): the event dispatcher's default step budget,
    /// so the longest segment still fits in one queue turn.
    pub fn max_segment_execs(&self) -> usize {
        self.max_fused_execs
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
        let session = self.flows[fi].session_fn.as_ref().map(|f| f(payload));
        FlowCursor {
            flow_idx: fi,
            vertex: self.flows[fi].entry,
            path_sum: 0,
            flow_id: self.next_flow_id.fetch_add(1, Ordering::Relaxed),
            pinned: session.is_some() && self.flows[fi].session_pinned,
            session,
            started: now,
            held: Vec::new(),
            acquire_progress: 0,
            fused_step_execs: 0,
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

    /// True when the cursor's current vertex is any node execution
    /// (plain or fused).
    pub fn at_exec(&self, cur: &FlowCursor) -> bool {
        matches!(
            self.flows[cur.flow_idx].verts[cur.vertex],
            ResolvedVertex::Exec { .. } | ResolvedVertex::FusedExec { .. }
        )
    }

    /// Node executions the next `step` at this cursor intends to perform:
    /// 0 for bookkeeping vertices, 1 for a plain `Exec`, the member count
    /// for a fused segment (an upper bound — a mid-segment error exits
    /// early). The event dispatcher budgets queue turns with this.
    pub fn exec_cost(&self, cur: &FlowCursor) -> usize {
        match &self.flows[cur.flow_idx].verts[cur.vertex] {
            ResolvedVertex::Exec { .. } => 1,
            ResolvedVertex::FusedExec { execs, .. } => *execs,
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
            ResolvedVertex::FusedExec { ops, .. } => {
                debug_assert!(matches!(
                    ops[0],
                    FusedOp::Exec { vertex, .. } | FusedOp::Release { vertex, .. }
                        if vertex == cur.vertex
                ));
                let mut ran = 0u32;
                for op in ops.iter() {
                    match op {
                        FusedOp::Exec {
                            entry,
                            on_ok,
                            on_err,
                            ..
                        } => {
                            let t0 = self.profiler.is_some().then(Instant::now);
                            let outcome = (entry.f)(payload);
                            if let (Some(prof), Some(t0)) = (&self.profiler, t0) {
                                prof.record_exec(
                                    cur.flow_idx,
                                    cur.vertex,
                                    t0.elapsed().as_nanos() as u64,
                                );
                            }
                            ran += 1;
                            match outcome {
                                NodeOutcome::Ok => self.take_edge(cur, 0, *on_ok),
                                NodeOutcome::Err(_) => {
                                    // Identical to the unfused Exec arm:
                                    // shrink-phase release, then the error
                                    // edge — the cursor leaves the segment
                                    // and rests on the handler chain (or
                                    // error end), itself a segment head.
                                    self.release_all(cur);
                                    self.take_edge(cur, 1, *on_err);
                                    cur.fused_step_execs = ran;
                                    return Step::Continue;
                                }
                            }
                        }
                        FusedOp::Release { count, next, .. } => {
                            for _ in 0..*count {
                                let h = cur.held.pop().expect("release op with empty held stack");
                                h.lock.release(cur.flow_id, h.mode);
                            }
                            self.take_edge(cur, 0, *next);
                        }
                    }
                }
                cur.fused_step_execs = ran;
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

    fn server_with(events: Arc<Mutex<Vec<String>>>, fusion: FusionMode) -> FluxServer<P> {
        let program = flux_core::compile(flux_core::fixtures::MINI_PIPELINE).unwrap();
        FluxServer::with_options(program, registry(events), true, fusion).unwrap()
    }

    /// The fused interpreter is observation-equivalent to the unfused
    /// oracle on every MINI_PIPELINE path — including the mid-segment
    /// error path — with bit-identical Ball–Larus path sums.
    #[test]
    fn fused_matches_unfused_oracle() {
        let cases = [(true, false), (false, false), (true, true), (false, true)];
        let mut reports = Vec::new();
        for fusion in [FusionMode::On, FusionMode::Off] {
            let events = Arc::new(Mutex::new(Vec::new()));
            let s = server_with(events.clone(), fusion);
            assert_eq!(s.fusion_mode(), fusion);
            let mut ends = Vec::new();
            for (valid, fail_parse) in cases {
                let payload = P {
                    valid,
                    fail_parse,
                    ..P::default()
                };
                let cursor = s.new_cursor(0, &payload);
                ends.push(s.run_flow(cursor, payload));
            }
            let report =
                s.profiler()
                    .unwrap()
                    .report(s.program(), 0, crate::profile::HotOrder::ByCount);
            let paths: Vec<(u64, u64)> = report.iter().map(|p| (p.info.id, p.count)).collect();
            reports.push((events.lock().clone(), ends, paths));
        }
        let (fused, unfused) = (&reports[0], &reports[1]);
        assert_eq!(fused.0, unfused.0, "identical node execution order");
        assert_eq!(fused.1, unfused.1, "identical end kinds");
        assert_eq!(fused.2, unfused.2, "identical path ids and counts");
    }

    #[test]
    fn fusion_budget_hint_reflects_segments() {
        let events = Arc::new(Mutex::new(Vec::new()));
        // MINI_PIPELINE's longest chain is Respond -> Retry (2 execs).
        assert_eq!(
            server_with(events.clone(), FusionMode::On).max_segment_execs(),
            2
        );
        assert_eq!(server_with(events, FusionMode::Off).max_segment_execs(), 1);
    }

    #[test]
    fn missing_impl_rejected() {
        let program = flux_core::compile(flux_core::fixtures::MINI_PIPELINE).unwrap();
        let r: NodeRegistry<P> = NodeRegistry::new();
        let missing = FluxServer::new(program, r).err().unwrap();
        assert!(!missing.is_empty());
    }
}
