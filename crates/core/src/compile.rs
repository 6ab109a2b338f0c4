//! End-to-end compilation: parse → link → type-check → constraint
//! analysis → flatten → path numbering.

use crate::error::{CompileError, CompileErrors, Warning};
use crate::flat::FlatProgram;
use crate::fuse::FusedFlow;
use crate::graph::ProgramGraph;
use crate::parser;
use crate::paths::PathTable;
use crate::typecheck::{self, TypeTable};

/// A fully compiled Flux program, ready for any runtime, the profiler or
/// the simulator.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The linked program graph with effective (post-hoisting) constraints.
    pub graph: ProgramGraph,
    /// Inferred positional types for every node.
    pub types: TypeTable,
    /// One flattened flow per `source` declaration, in declaration order.
    pub flows: Vec<Flow>,
    /// Warnings produced during compilation (hoists, promotions,
    /// unreachable nodes).
    pub warnings: Vec<Warning>,
}

/// One source flow with its path numbering and stage fusion.
#[derive(Debug, Clone)]
pub struct Flow {
    pub flat: FlatProgram,
    pub paths: PathTable,
    /// Straight-line `Exec`/`Release` chains grouped into segments
    /// (analysis for `fluxc fused`, the DOT renderer and codegen labels).
    pub fused: FusedFlow,
}

impl CompiledProgram {
    /// Finds the flow whose source node has the given name.
    pub fn flow_for_source(&self, source: &str) -> Option<&Flow> {
        self.flows
            .iter()
            .find(|f| self.graph.name(f.flat.source) == source)
    }

    /// Names of all concrete nodes the runtime must implement (reachable
    /// from any flow, including error handlers), in flat-graph order.
    pub fn required_nodes(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for flow in &self.flows {
            let src = self.graph.name(flow.flat.source);
            if seen.insert(src.to_string()) {
                out.push(src.to_string());
            }
            for (_, node) in flow.flat.execs() {
                let name = self.graph.name(node);
                if seen.insert(name.to_string()) {
                    out.push(name.to_string());
                }
            }
        }
        out
    }

    /// Names of all predicate functions the runtime must implement.
    pub fn required_predicates(&self) -> Vec<String> {
        let mut v: Vec<String> = self.graph.predicates.values().cloned().collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Compiles Flux source text.
pub fn compile(src: &str) -> Result<CompiledProgram, CompileErrors> {
    let program = parser::parse(src).map_err(single)?;
    let (mut graph, mut warnings) = ProgramGraph::build(&program)?;
    let types = typecheck::check(&graph)?;
    warnings.extend(crate::constraints::analyze(&mut graph)?);
    let mut flows = Vec::with_capacity(graph.sources.len());
    for spec in graph.sources.clone() {
        let flat = FlatProgram::build(&graph, spec).map_err(single)?;
        let paths = PathTable::build(&flat).map_err(|m| {
            single(CompileError::new(
                crate::error::ErrorKind::Other(m),
                crate::span::Span::DUMMY,
            ))
        })?;
        let fused = FusedFlow::build(&flat, &graph);
        flows.push(Flow { flat, paths, fused });
    }
    Ok(CompiledProgram {
        graph,
        types,
        flows,
        warnings,
    })
}

fn single(e: CompileError) -> CompileErrors {
    CompileErrors(vec![e])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_image_server() {
        let p = compile(crate::fixtures::IMAGE_SERVER).unwrap();
        assert_eq!(p.flows.len(), 1);
        assert!(p.warnings.is_empty());
        let required = p.required_nodes();
        assert!(required.contains(&"Listen".to_string()));
        assert!(required.contains(&"FourOhFour".to_string()));
        assert_eq!(p.required_predicates(), vec!["TestInCache"]);
    }

    #[test]
    fn compiles_deadlock_example_with_warning() {
        let p = compile(crate::fixtures::DEADLOCK_EXAMPLE).unwrap();
        assert!(p
            .warnings
            .iter()
            .any(|w| matches!(w, Warning::ConstraintHoisted { .. })));
        let (_, c) = p.graph.node("C").unwrap();
        let names: Vec<_> = c.constraints.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn reports_all_undefined_names() {
        let err = compile("F = A -> B; source S => F;").unwrap_err();
        assert!(err.0.len() >= 3, "A, B and S are all undefined: {err}");
    }

    #[test]
    fn flow_lookup_by_source() {
        let p = compile(crate::fixtures::MINI_PIPELINE).unwrap();
        assert!(p.flow_for_source("Listen").is_some());
        assert!(p.flow_for_source("Nope").is_none());
    }
}
