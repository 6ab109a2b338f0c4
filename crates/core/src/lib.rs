//! # flux-core — the Flux coordination language
//!
//! A from-scratch Rust implementation of the Flux language from
//! *Flux: A Language for Programming High-Performance Servers*
//! (Burns, Grimaldi, Kostadinov, Berger, Corner — USENIX ATC 2006).
//!
//! Flux composes off-the-shelf sequential functions into concurrent
//! servers. A program declares typed *concrete nodes*, composes them into
//! *abstract nodes* with `->` arrows, routes flows with *predicate
//! dispatch*, attaches *error handlers*, and controls shared state with
//! declarative *atomicity constraints*. The compiler type-checks the
//! composition, guarantees deadlock freedom by canonical lock ordering
//! (hoisting constraints when nesting would acquire out of order), and
//! hands a flattened, path-numbered flow graph to the runtimes in
//! `flux-runtime`, the profiler, and the simulator in `flux-sim`.
//!
//! ## Fusion boundaries
//!
//! After flattening and path numbering, the [`fuse`] pass groups each
//! flow's maximal straight-line `Exec`/`Release` chains into
//! [`FusedSegment`]s: the chains a flow could run without a scheduling
//! decision. This is analysis only — the runtimes execute one node per
//! step. A chain breaks at every semantic boundary and nowhere else:
//!
//! - **dispatch** vertices and each **dispatch arm** entry (control
//!   flow re-converges per arm, not across the dispatch);
//! - **error-arm** targets (an `on_err` edge must land on a segment
//!   head so mid-segment errors route exactly like unfused execution);
//! - **acquire** vertices (lock acquisition can block or fail, so it
//!   stays its own scheduling point);
//! - nodes declared **blocking** (the runtime off-loads them to the I/O
//!   pool one at a time);
//! - **join** points (any vertex with more than one predecessor, which
//!   includes session-affinity re-route targets).
//!
//! [`BreakReason`] names each boundary; `fluxc fused` (alias
//! `--dump-fused`) renders segments and boundary reasons per flow.
//!
//! ## Quickstart
//!
//! ```
//! let program = flux_core::compile(flux_core::fixtures::IMAGE_SERVER).unwrap();
//! assert_eq!(program.flows.len(), 1);
//! // Every node the runtime must supply an implementation for:
//! assert!(program.required_nodes().contains(&"Compress".to_string()));
//! // Straight-line chains are found at compile time:
//! assert!(program.flows[0].fused.segments.iter().any(|s| s.verts.len() >= 2));
//! ```

pub mod ast;
pub mod codegen;
pub mod compile;
pub mod constraints;
pub mod error;
pub mod fixtures;
pub mod flat;
pub mod fuse;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod paths;
pub mod place;
pub mod span;
pub mod token;
pub mod typecheck;

pub use ast::{ConstraintMode, ConstraintRef, ConstraintScope, PatElem, Program};
pub use compile::{compile, CompiledProgram, Flow};
pub use error::{CompileError, CompileErrors, ErrorKind, Warning};
pub use flat::{DispatchArm, EndKind, FlatProgram, FlatVertex, VertexId};
pub use fuse::{BreakReason, FusedFlow, FusedSegment};
pub use graph::{NodeId, NodeInfo, NodeKind, ProgramGraph, SourceSpec, Variant};
pub use paths::{PathInfo, PathTable};
pub use place::{place, round_robin, PlaceConfig, PlaceError, Placement, TrafficMatrix};
pub use typecheck::{NodeTypes, TypeTable};
