//! CSIM-style simulator source generation (paper §5.1, Figure 5).
//!
//! The paper transforms a Flux program into CSIM process code in which
//! CPUs are resources each node reserves for an exponentially-distributed
//! service time, and atomicity constraints are reader-writer locks held
//! for the node's execution. This generator emits that C-like source
//! (useful for inspection and as the Figure 5 golden); the *executable*
//! discrete-event model lives in `flux-sim`, which interprets the same
//! flattened graph directly.

use crate::ast::ConstraintMode;
use crate::codegen::CodeGenerator;
use crate::compile::CompiledProgram;
use crate::flat::{EndKind, FlatVertex};
use std::fmt::Write as _;

/// Emits CSIM-like process source for every flow.
#[derive(Debug, Clone, Default)]
pub struct SimGenerator;

impl CodeGenerator for SimGenerator {
    fn target(&self) -> &'static str {
        "csim"
    }

    fn generate(&self, p: &CompiledProgram) -> String {
        let g = &p.graph;
        let mut out = String::new();
        let _ = writeln!(out, "/* Generated by flux-core: CSIM-style model. */");
        let _ = writeln!(
            out,
            "/* CPUs are a k-server resource; constraints are rw-locks. */"
        );
        let mut lock_names: Vec<&str> = g
            .nodes
            .iter()
            .flat_map(|n| n.constraints.iter().map(|c| c.name.as_str()))
            .collect();
        lock_names.sort_unstable();
        lock_names.dedup();
        for l in &lock_names {
            let _ = writeln!(out, "rw_lock {l};");
        }
        let _ = writeln!(out);
        for flow in &p.flows {
            let src_name = g.name(flow.flat.source);
            let _ = writeln!(out, "/* flow originated by source {src_name} */");
            let _ = writeln!(out, "void source_{src_name}() {{");
            let _ = writeln!(
                out,
                "    hold(exponential(INTERARRIVAL_{}));",
                upper(src_name)
            );
            let _ = writeln!(out, "    {}();", vname(flow, flow.flat.entry, p));
            let _ = writeln!(out, "}}");
            let _ = writeln!(out);
            // Interior members of a multi-vertex fused segment are
            // inlined into their head's function (no scheduling decision
            // falls inside a segment); only heads and unfused vertices
            // get functions.
            let interior: Vec<bool> = (0..flow.flat.verts.len())
                .map(|vid| {
                    flow.fused.seg_of[vid]
                        .map(|s| {
                            let seg = &flow.fused.segments[s];
                            seg.verts.len() >= 2 && seg.verts[0] != vid
                        })
                        .unwrap_or(false)
                })
                .collect();
            for (vid, vert) in flow.flat.verts.iter().enumerate() {
                if interior[vid] {
                    continue;
                }
                let name = vname_at(flow, vid, p);
                match vert {
                    FlatVertex::Acquire { node, next } => {
                        let _ = writeln!(out, "void {name}() {{");
                        for c in &g.nodes[*node].constraints {
                            let op = match c.mode {
                                ConstraintMode::Reader => "rw_read_lock",
                                ConstraintMode::Writer => "rw_write_lock",
                            };
                            let _ = writeln!(out, "    {op}({});", c.name);
                        }
                        let _ = writeln!(out, "    {}();", vname(flow, *next, p));
                        let _ = writeln!(out, "}}");
                    }
                    FlatVertex::Release { .. } | FlatVertex::Exec { .. } => {
                        let seg_len = flow.fused.seg_of[vid]
                            .map(|s| flow.fused.segments[s].verts.len())
                            .unwrap_or(1);
                        let _ = writeln!(out, "void {name}() {{");
                        if seg_len >= 2 {
                            let seg = &flow.fused.segments[flow.fused.seg_of[vid].unwrap()];
                            let _ = writeln!(
                                out,
                                "    /* fused segment: {} vertices, {} exec{} in one turn */",
                                seg.verts.len(),
                                seg.execs,
                                if seg.execs == 1 { "" } else { "s" }
                            );
                            for (mi, &member) in seg.verts.iter().enumerate() {
                                let _ = writeln!(
                                    out,
                                    "    /* v{member}: {} */",
                                    vname_at(flow, member, p)
                                );
                                let last = mi + 1 == seg.verts.len();
                                straightline_body(&mut out, p, flow, member, last);
                            }
                        } else {
                            straightline_body(&mut out, p, flow, vid, true);
                        }
                        let _ = writeln!(out, "}}");
                    }
                    FlatVertex::Dispatch {
                        node,
                        arms,
                        on_nomatch,
                    } => {
                        let n = g.name(*node);
                        let _ = writeln!(out, "void {name}() {{");
                        let _ = writeln!(out, "    double u = uniform(0.0, 1.0);");
                        let _ = writeln!(out, "    double acc = 0.0;");
                        for arm in arms {
                            let _ = writeln!(
                                out,
                                "    acc += BRANCH_PROB_{}_{}; if (u < acc) {{ {}(); return; }}",
                                upper(n),
                                arm.variant,
                                vname(flow, arm.entry, p)
                            );
                        }
                        let _ = writeln!(out, "    {}();", vname(flow, *on_nomatch, p));
                        let _ = writeln!(out, "}}");
                    }
                    FlatVertex::End { outcome } => {
                        let _ = writeln!(out, "void {name}() {{");
                        let what = match outcome {
                            EndKind::Completed => "completed",
                            EndKind::Errored { .. } => "errored",
                            EndKind::Handled { .. } => "handled",
                            EndKind::NoMatch { .. } => "nomatch",
                        };
                        let _ = writeln!(out, "    record_flow_{what}(clock - start_time);");
                        let _ = writeln!(out, "}}");
                    }
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

fn upper(s: &str) -> String {
    s.to_ascii_uppercase()
}

/// Emits the statements of one straight-line vertex (`Exec` or
/// `Release`) without the enclosing function. Non-`last` members fall
/// through to the next inlined member; the `last` member calls its
/// successor function (the segment boundary). An `Exec`'s error branch
/// always calls out — `on_err` targets are segment heads by
/// construction.
fn straightline_body(
    out: &mut String,
    p: &CompiledProgram,
    flow: &crate::compile::Flow,
    vid: usize,
    last: bool,
) {
    let g = &p.graph;
    match &flow.flat.verts[vid] {
        FlatVertex::Release { node, next } => {
            for c in g.nodes[*node].constraints.iter().rev() {
                let op = match c.mode {
                    ConstraintMode::Reader => "rw_read_unlock",
                    ConstraintMode::Writer => "rw_write_unlock",
                };
                let _ = writeln!(out, "    {op}({});", c.name);
            }
            if last {
                let _ = writeln!(out, "    {}();", vname(flow, *next, p));
            }
        }
        FlatVertex::Exec {
            node,
            on_ok,
            on_err,
        } => {
            let n = g.name(*node);
            let _ = writeln!(out, "    processor->reserve();");
            let _ = writeln!(out, "    hold(exponential(CMP_TIME_CPU_{}));", upper(n));
            let _ = writeln!(out, "    processor->release();");
            let _ = writeln!(
                out,
                "    if (bernoulli(ERROR_PROB_{})) {{ {}(); return; }}",
                upper(n),
                vname(flow, *on_err, p)
            );
            if last {
                let _ = writeln!(out, "    // Call the next Node");
                let _ = writeln!(out, "    {}();", vname(flow, *on_ok, p));
            }
        }
        _ => unreachable!("fused segments contain only Exec/Release vertices"),
    }
}

fn vname(flow: &crate::compile::Flow, vid: usize, p: &CompiledProgram) -> String {
    vname_at(flow, vid, p)
}

fn vname_at(flow: &crate::compile::Flow, vid: usize, p: &CompiledProgram) -> String {
    let g = &p.graph;
    let src = g.name(flow.flat.source);
    match &flow.flat.verts[vid] {
        FlatVertex::Acquire { node, .. } => format!("{src}_v{vid}_acquire_{}", g.name(*node)),
        FlatVertex::Release { node, .. } => format!("{src}_v{vid}_release_{}", g.name(*node)),
        FlatVertex::Exec { node, .. } => format!("{src}_v{vid}_{}", g.name(*node)),
        FlatVertex::Dispatch { node, .. } => format!("{src}_v{vid}_dispatch_{}", g.name(*node)),
        FlatVertex::End { .. } => format!("{src}_v{vid}_end"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generated code must have the same shape as the paper's
    /// Figure 5: a reader-writer lock around a CPU reservation with an
    /// exponential hold, then a call to the next node.
    #[test]
    fn figure5_shape() {
        let p = crate::compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let src = SimGenerator.generate(&p);
        assert!(src.contains("rw_write_lock(cache);"));
        assert!(src.contains("processor->reserve();"));
        assert!(src.contains("hold(exponential(CMP_TIME_CPU_COMPRESS));"));
        assert!(src.contains("processor->release();"));
        assert!(src.contains("rw_write_unlock(cache);"));
        assert!(src.contains("// Call the next Node"));
    }

    #[test]
    fn dispatch_uses_branch_probabilities() {
        let p = crate::compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let src = SimGenerator.generate(&p);
        assert!(src.contains("BRANCH_PROB_HANDLER_0"));
        assert!(src.contains("BRANCH_PROB_HANDLER_1"));
    }

    #[test]
    fn every_vertex_has_a_function() {
        let p = crate::compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let src = SimGenerator.generate(&p);
        for vid in 0..p.flows[0].flat.verts.len() {
            assert!(src.contains(&format!("_v{vid}_")), "missing vertex {vid}");
        }
    }

    /// Fused segments collapse to one function per segment: interior
    /// members are inlined under `/* v{vid}: ... */` markers instead of
    /// getting their own `void` function, mirroring the runtime's one
    /// queue turn per segment.
    #[test]
    fn fused_segments_emit_one_function_each() {
        let p = crate::compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let src = SimGenerator.generate(&p);
        let flow = &p.flows[0];
        let mut saw_multi = false;
        for seg in &flow.fused.segments {
            if seg.verts.len() < 2 {
                continue;
            }
            saw_multi = true;
            assert!(src.contains("/* fused segment:"), "segment banner");
            for (mi, &member) in seg.verts.iter().enumerate() {
                let func = format!("void {}()", super::vname_at(flow, member, &p));
                if mi == 0 {
                    assert!(src.contains(&func), "head keeps its function: {func}");
                } else {
                    assert!(!src.contains(&func), "interior inlined, not {func}");
                    assert!(src.contains(&format!("/* v{member}: ")), "inline marker");
                }
            }
        }
        assert!(saw_multi, "IMAGE_SERVER has fused chains");
    }
}
