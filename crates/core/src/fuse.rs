//! Stage fusion analysis (compiler pass, after flattening).
//!
//! The flattened graph makes every runtime step explicit, and the event
//! runtime pays one queue turn per `Exec` vertex — a 5-node straight-line
//! pipeline costs 5 shard-queue round-trips per request. This pass
//! *describes* the maximal straight-line chains of `Exec`/`Release`
//! vertices as [`FusedSegment`]s, for `fluxc fused`, the DOT renderer and
//! the Rust codegen labels; no runtime executes them. A segment boundary
//! sits wherever the paper's semantics require the scheduler to be able
//! to observe (or re-route) the flow:
//!
//! - **dispatch**: predicate dispatch picks an arm at runtime, so every
//!   arm entry (and the dispatch vertex itself) starts a new segment;
//! - **error arms**: `on_err` targets must stay addressable so a mid-chain
//!   `NodeOutcome::Err` can land exactly on its handler chain;
//! - **constraints**: an `Acquire` can `WouldBlock` and be re-queued on
//!   the flow's home shard (session affinity), so the cursor must be able
//!   to rest exactly on the `Acquire` vertex — it is never fused, and the
//!   vertex after it starts a new segment (the post-acquire re-entry
//!   point);
//! - **blocking nodes**: nodes declared `blocking` are off-loaded to the
//!   I/O pool one at a time;
//! - **joins**: a vertex with two or more predecessors (a post-dispatch
//!   continuation, a memoized handler entry) can be entered from outside
//!   any one chain, so it heads its own segment.
//!
//! Within a segment every interior member has exactly one predecessor —
//! the previous member — so execution can only enter a segment at its
//! head and then runs the whole chain without a scheduling decision.

use crate::flat::{FlatProgram, FlatVertex, VertexId};
use crate::graph::ProgramGraph;

/// Why an edge crosses a segment boundary (used by the dot renderer and
/// the `--dump-fused` listing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakReason {
    /// The edge reaches a flow-end vertex.
    End,
    /// The edge reaches a dispatch vertex (arm chosen at runtime).
    Dispatch,
    /// The edge leaves a dispatch vertex (an arm entry).
    DispatchArm,
    /// The edge is (or its target is also reachable by) an `on_err` edge.
    ErrorArm,
    /// The edge enters or leaves an `Acquire` (constraint boundary and
    /// `WouldBlock` re-route point).
    Acquire,
    /// The edge enters or leaves a blocking node execution (I/O pool
    /// off-load boundary).
    Blocking,
    /// The target has two or more predecessors (shared continuation).
    Join,
}

impl std::fmt::Display for BreakReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakReason::End => "end",
            BreakReason::Dispatch => "dispatch",
            BreakReason::DispatchArm => "dispatch arm",
            BreakReason::ErrorArm => "error arm",
            BreakReason::Acquire => "acquire",
            BreakReason::Blocking => "blocking",
            BreakReason::Join => "join",
        })
    }
}

/// One maximal straight-line chain of `Exec`/`Release` vertices, in
/// execution order (each member's ok/next edge points to the next).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedSegment {
    /// Member vertices in chain order; `verts[0]` is the segment head
    /// (the only member reachable from outside the segment).
    pub verts: Vec<VertexId>,
    /// How many members are `Exec` vertices (node executions); the rest
    /// are `Release` bookkeeping.
    pub execs: usize,
}

/// The fusion of one flattened flow: a partition of its fusable vertices
/// into segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedFlow {
    /// Segments ordered by head vertex id, descending — roughly source
    /// order, since flat ids are reverse-topological.
    pub segments: Vec<FusedSegment>,
    /// Per-vertex segment index (`None` for Acquire/Dispatch/End and
    /// blocking Exec vertices, which are never fused).
    pub seg_of: Vec<Option<usize>>,
    /// Per-vertex predecessor counts over the flat graph.
    preds: Vec<usize>,
    /// Per-vertex "blocking Exec" flags (nodes declared `blocking`).
    blocking: Vec<bool>,
}

impl FusedFlow {
    /// Fuses `flat`, treating the nodes the program text declares
    /// `blocking` as boundaries.
    pub fn build(flat: &FlatProgram, graph: &ProgramGraph) -> FusedFlow {
        let n = flat.verts.len();
        let blocking: Vec<bool> = flat
            .verts
            .iter()
            .map(|v| match v {
                FlatVertex::Exec { node, .. } => graph.nodes[*node].blocking,
                _ => false,
            })
            .collect();
        let fusable = |i: VertexId| {
            !blocking[i]
                && matches!(
                    flat.verts[i],
                    FlatVertex::Exec { .. } | FlatVertex::Release { .. }
                )
        };

        let mut preds = vec![0usize; n];
        let mut err_target = vec![false; n];
        let mut single_pred = vec![usize::MAX; n];
        for (i, v) in flat.verts.iter().enumerate() {
            for (k, &s) in v.successors().iter().enumerate() {
                preds[s] += 1;
                single_pred[s] = i;
                if matches!(v, FlatVertex::Exec { .. }) && k == 1 {
                    err_target[s] = true;
                }
            }
        }

        // A fusable vertex heads its own segment unless its unique
        // predecessor is a fusable vertex whose ok/next edge reaches it.
        let is_head = |i: VertexId| {
            i == flat.entry || preds[i] != 1 || err_target[i] || !fusable(single_pred[i])
        };
        // The edge a chain continues through: Exec's on_ok, Release's next.
        let chain_succ = |i: VertexId| match &flat.verts[i] {
            FlatVertex::Exec { on_ok, .. } => Some(*on_ok),
            FlatVertex::Release { next, .. } => Some(*next),
            _ => None,
        };

        let mut seg_of: Vec<Option<usize>> = vec![None; n];
        let mut segments = Vec::new();
        for head in (0..n).rev() {
            if !fusable(head) || !is_head(head) || seg_of[head].is_some() {
                continue;
            }
            let idx = segments.len();
            let mut verts = Vec::new();
            let mut execs = 0usize;
            let mut cur = head;
            loop {
                seg_of[cur] = Some(idx);
                verts.push(cur);
                if matches!(flat.verts[cur], FlatVertex::Exec { .. }) {
                    execs += 1;
                }
                match chain_succ(cur) {
                    Some(next) if fusable(next) && !is_head(next) => cur = next,
                    _ => break,
                }
            }
            segments.push(FusedSegment { verts, execs });
        }
        debug_assert!(
            (0..n).all(|i| fusable(i) == seg_of[i].is_some()),
            "every fusable vertex belongs to exactly one segment"
        );
        FusedFlow {
            segments,
            seg_of,
            preds,
            blocking,
        }
    }

    /// The largest number of node executions in any one segment, or 0
    /// for a flow with no executable vertices.
    pub fn max_execs(&self) -> usize {
        self.segments.iter().map(|s| s.execs).max().unwrap_or(0)
    }

    /// Why the edge `u --k--> v` crosses a segment boundary, or `None`
    /// when both endpoints are members of the same segment (a fused
    /// interior edge).
    pub fn break_reason(
        &self,
        flat: &FlatProgram,
        u: VertexId,
        k: usize,
        v: VertexId,
    ) -> Option<BreakReason> {
        if let (Some(a), Some(b)) = (self.seg_of[u], self.seg_of[v]) {
            if a == b {
                return None;
            }
        }
        Some(match (&flat.verts[u], &flat.verts[v]) {
            (_, FlatVertex::End { .. }) => BreakReason::End,
            (_, FlatVertex::Dispatch { .. }) => BreakReason::Dispatch,
            (_, FlatVertex::Acquire { .. }) => BreakReason::Acquire,
            (FlatVertex::Exec { .. }, _) if k == 1 => BreakReason::ErrorArm,
            (FlatVertex::Dispatch { .. }, _) => BreakReason::DispatchArm,
            (FlatVertex::Acquire { .. }, _) => BreakReason::Acquire,
            _ if self.blocking[u] || self.blocking[v] => BreakReason::Blocking,
            _ if self.preds[v] >= 2 => BreakReason::Join,
            // Target of someone else's error edge (single-predecessor
            // case is fused; reachable only when u itself is the error
            // source, covered above — keep a stable answer regardless).
            _ => BreakReason::Join,
        })
    }
}

/// A short human-readable label for a flat vertex (shared by the fused
/// dump and the dot renderer).
pub fn vertex_label(graph: &ProgramGraph, flat: &FlatProgram, v: VertexId) -> String {
    match &flat.verts[v] {
        FlatVertex::Acquire { node, .. } => format!("acquire({})", graph.name(*node)),
        FlatVertex::Release { node, .. } => format!("release({})", graph.name(*node)),
        FlatVertex::Exec { node, .. } => graph.name(*node).to_string(),
        FlatVertex::Dispatch { node, .. } => format!("dispatch({})", graph.name(*node)),
        FlatVertex::End { outcome } => match outcome {
            crate::flat::EndKind::Completed => "end(completed)".into(),
            crate::flat::EndKind::Errored { node } => {
                format!("end(errored {})", graph.name(*node))
            }
            crate::flat::EndKind::Handled { node, handler } => format!(
                "end(handled {} -> {})",
                graph.name(*node),
                graph.name(*handler)
            ),
            crate::flat::EndKind::NoMatch { node } => {
                format!("end(nomatch {})", graph.name(*node))
            }
        },
    }
}

/// Renders the fused-segment structure of every flow as deterministic
/// text (the `fluxc --dump-fused` output).
pub fn render(p: &crate::compile::CompiledProgram) -> String {
    let mut out = String::new();
    for flow in &p.flows {
        let g = &p.graph;
        let flat = &flow.flat;
        let fused = &flow.fused;
        let fused_verts: usize = fused.segments.iter().map(|s| s.verts.len()).sum();
        out.push_str(&format!(
            "flow {} (source {}): {} segment(s) over {} fused vertice(s), max {} exec(s)/segment\n",
            g.name(flat.target),
            g.name(flat.source),
            fused.segments.len(),
            fused_verts,
            fused.max_execs(),
        ));
        for (i, seg) in fused.segments.iter().enumerate() {
            let chain: Vec<String> = seg
                .verts
                .iter()
                .map(|&v| format!("v{v}:{}", vertex_label(g, flat, v)))
                .collect();
            out.push_str(&format!("  seg {i}: {}\n", chain.join(" -> ")));
        }
        let mut breaks = Vec::new();
        for u in (0..flat.verts.len()).rev() {
            for (k, &v) in flat.verts[u].successors().iter().enumerate() {
                if let Some(reason) = fused.break_reason(flat, u, k, v) {
                    breaks.push(format!(
                        "    v{u}:{} -> v{v}:{} [{reason}]\n",
                        vertex_label(g, flat, u),
                        vertex_label(g, flat, v),
                    ));
                }
            }
        }
        if !breaks.is_empty() {
            out.push_str("  boundaries:\n");
            for b in breaks {
                out.push_str(&b);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn exec_names<'g>(g: &'g ProgramGraph, flat: &FlatProgram, seg: &FusedSegment) -> Vec<&'g str> {
        seg.verts
            .iter()
            .filter_map(|&v| match flat.verts[v] {
                FlatVertex::Exec { node, .. } => Some(g.name(node)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn image_server_segments() {
        let p = compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let flow = &p.flows[0];
        let (g, flat, fused) = (&p.graph, &flow.flat, &flow.fused);
        // ReadRequest | CheckCache+release | RIFD->Compress | FourOhFour
        // | StoreInCache+release | Write | Complete+release.
        assert_eq!(fused.segments.len(), 7);
        let chains: Vec<Vec<&str>> = fused
            .segments
            .iter()
            .map(|s| exec_names(g, flat, s))
            .collect();
        assert!(chains.contains(&vec!["ReadInFromDisk", "Compress"]));
        assert_eq!(fused.max_execs(), 2);
        // The miss arm fuses the handler-protected RIFD with Compress but
        // breaks before the Acquire of StoreInCache's {cache} constraint.
        let rifd_seg = fused
            .segments
            .iter()
            .find(|s| exec_names(g, flat, s) == ["ReadInFromDisk", "Compress"])
            .unwrap();
        let last = *rifd_seg.verts.last().unwrap();
        let FlatVertex::Exec { on_ok, .. } = flat.verts[last] else {
            panic!("chain ends at Compress exec");
        };
        assert!(matches!(flat.verts[on_ok], FlatVertex::Acquire { .. }));
        assert_eq!(
            fused.break_reason(flat, last, 0, on_ok),
            Some(BreakReason::Acquire)
        );
    }

    #[test]
    fn mini_pipeline_fuses_catch_all_arm() {
        let p = compile(crate::fixtures::MINI_PIPELINE).unwrap();
        let flow = &p.flows[0];
        let (g, flat, fused) = (&p.graph, &flow.flat, &flow.fused);
        // Parse | Oops | Respond (valid arm) | Respond->Retry | Close.
        assert_eq!(fused.segments.len(), 5);
        let chains: Vec<Vec<&str>> = fused
            .segments
            .iter()
            .map(|s| exec_names(g, flat, s))
            .collect();
        assert!(chains.contains(&vec!["Respond", "Retry"]));
        // Close is the shared continuation of both arms: a join head.
        let close_seg = fused
            .segments
            .iter()
            .find(|s| exec_names(g, flat, s) == ["Close"])
            .unwrap();
        let close = close_seg.verts[0];
        assert!(fused.preds[close] >= 2);
    }

    #[test]
    fn blocking_nodes_never_fuse() {
        let src = "Gen () => (int x); A (int x) => (int x); Io (int x) => (int x);\
                   B (int x) => (); source Gen => F; F = A -> Io -> B; blocking Io;";
        let p = compile(src).unwrap();
        let flow = &p.flows[0];
        let fused = &flow.fused;
        for seg in &fused.segments {
            for &v in &seg.verts {
                assert!(!fused.blocking[v], "blocking vertex fused: v{v}");
            }
        }
        // Io splits the 3-node chain into three singleton segments (A's
        // successor is blocking; B follows a blocking node).
        assert_eq!(fused.segments.len(), 2, "A and B fuse alone; Io is out");
        assert!(fused.segments.iter().all(|s| s.execs == 1));
    }

    #[test]
    fn interior_members_have_one_predecessor() {
        for src in [
            crate::fixtures::IMAGE_SERVER,
            crate::fixtures::MINI_PIPELINE,
            crate::fixtures::DEADLOCK_EXAMPLE,
        ] {
            let p = compile(src).unwrap();
            for flow in &p.flows {
                let fused = &flow.fused;
                for seg in &fused.segments {
                    for &v in &seg.verts[1..] {
                        assert_eq!(
                            fused.preds[v], 1,
                            "interior member v{v} must be unreachable from outside its chain"
                        );
                    }
                    // Chain edges connect consecutive members.
                    for w in seg.verts.windows(2) {
                        let succ = match &flow.flat.verts[w[0]] {
                            FlatVertex::Exec { on_ok, .. } => *on_ok,
                            FlatVertex::Release { next, .. } => *next,
                            other => panic!("non-fusable member {other:?}"),
                        };
                        assert_eq!(succ, w[1]);
                    }
                }
            }
        }
    }

    #[test]
    fn error_arm_targets_head_segments() {
        let p = compile(crate::fixtures::MINI_PIPELINE).unwrap();
        let flow = &p.flows[0];
        let (flat, fused) = (&flow.flat, &flow.fused);
        for (u, v) in flat.verts.iter().enumerate() {
            if let FlatVertex::Exec { on_err, .. } = v {
                if let Some(si) = fused.seg_of[*on_err] {
                    assert_eq!(
                        fused.segments[si].verts[0], *on_err,
                        "an on_err target must head its segment"
                    );
                    assert_eq!(
                        fused.break_reason(flat, u, 1, *on_err),
                        Some(BreakReason::ErrorArm)
                    );
                }
            }
        }
    }

    #[test]
    fn render_is_deterministic_and_labeled() {
        let p = compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let a = render(&p);
        let b = render(&compile(crate::fixtures::IMAGE_SERVER).unwrap());
        assert_eq!(a, b);
        assert!(a.contains("flow Image (source Listen)"), "{a}");
        assert!(a.contains("ReadInFromDisk -> v"), "{a}");
        assert!(a.contains("[dispatch]"), "{a}");
        assert!(a.contains("[error arm]"), "{a}");
        assert!(a.contains("[acquire]"), "{a}");
    }
}
