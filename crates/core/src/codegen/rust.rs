//! Rust code generation: node stubs and registry wiring.
//!
//! The paper's compiler generated C dispatch code, a Makefile, and stubs
//! "for all of the functions that provide the server logic ... these
//! stubs ensure that the programmer uses the appropriate signatures".
//! This generator emits the equivalent for the Rust runtime: one stub
//! function per required concrete node with its Flux signature in a doc
//! comment, one stub per predicate, a `build_registry()` function that
//! wires everything into a `flux_runtime::NodeRegistry`, and — when the
//! original program text is supplied — a `main()` that compiles the
//! embedded program and launches it on the thread-pool runtime (the
//! moral equivalent of the paper's generated Makefile target).

use crate::codegen::CodeGenerator;
use crate::compile::CompiledProgram;
use crate::graph::NodeKind;
use std::fmt::Write as _;

/// Generates a Rust skeleton for a compiled Flux program.
#[derive(Debug, Clone, Default)]
pub struct RustGenerator {
    /// Name for the payload struct (defaults to `Payload`).
    pub payload_name: Option<String>,
    /// The original Flux source text. When present, the skeleton embeds
    /// it and gains a runnable `main()`; when absent, only the library
    /// part (stubs + `build_registry`) is emitted.
    pub source_text: Option<String>,
}

impl CodeGenerator for RustGenerator {
    fn target(&self) -> &'static str {
        "rust"
    }

    fn generate(&self, p: &CompiledProgram) -> String {
        let payload = self.payload_name.as_deref().unwrap_or("Payload");
        let g = &p.graph;
        let mut out = String::new();
        let _ = writeln!(out, "//! Generated by flux-core; fill in the stubs.");
        let _ = writeln!(
            out,
            "use flux_runtime::{{NodeOutcome, NodeRegistry, SourceOutcome}};"
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "/// Per-flow payload: the union of every field flowing between nodes."
        );
        let _ = writeln!(out, "#[derive(Debug, Default)]");
        let _ = writeln!(out, "pub struct {payload} {{");
        // Union of all parameters mentioned in any signature, de-duplicated
        // by name, typed from the AST annotations: builtin value types map
        // to Rust primitives, pointer types to `Option<Box<_>>` over a
        // generated opaque struct the user replaces with a real one.
        let mut seen = std::collections::BTreeMap::new();
        for node in &g.nodes {
            if let NodeKind::Concrete { inputs, outputs } = &node.kind {
                for param in inputs.iter().chain(outputs) {
                    seen.entry(param.name.clone()).or_insert(param.ty.clone());
                }
            }
        }
        let mut opaque: std::collections::BTreeMap<String, String> =
            std::collections::BTreeMap::new();
        for (name, ty) in &seen {
            let _ = writeln!(out, "    /// Flux type: `{ty}`.");
            let _ = writeln!(out, "    pub {name}: {},", rust_type(ty, &mut opaque));
        }
        let _ = writeln!(out, "}}");
        let _ = writeln!(out);
        for (flux_ty, rust_name) in &opaque {
            let _ = writeln!(
                out,
                "/// Opaque stand-in for Flux pointer type `{flux_ty}*`; replace\n\
                 /// with your real payload type."
            );
            let _ = writeln!(out, "#[derive(Debug, Default)]");
            let _ = writeln!(out, "pub struct {rust_name};");
            let _ = writeln!(out);
        }

        let sources: std::collections::HashSet<usize> =
            g.sources.iter().map(|s| s.source).collect();
        for name in p.required_nodes() {
            let (id, node) = g.node(&name).expect("required node exists");
            let NodeKind::Concrete { inputs, outputs } = &node.kind else {
                continue;
            };
            let ins: Vec<String> = inputs.iter().map(|x| x.to_string()).collect();
            let outs: Vec<String> = outputs.iter().map(|x| x.to_string()).collect();
            let _ = writeln!(
                out,
                "/// Flux node `{name} ({}) => ({})`.",
                ins.join(", "),
                outs.join(", ")
            );
            if sources.contains(&id) {
                let _ = writeln!(
                    out,
                    "/// Source node: called from its implicit infinite loop; each\n\
                     /// `SourceOutcome::New` starts one flow."
                );
                let _ = writeln!(
                    out,
                    "pub fn {}() -> SourceOutcome<{payload}> {{",
                    snake(&name)
                );
            } else {
                if node.blocking {
                    let _ = writeln!(
                        out,
                        "/// Declared `blocking`: the event runtime off-loads it to the I/O pool."
                    );
                }
                let _ = writeln!(
                    out,
                    "pub fn {}(_data: &mut {payload}) -> NodeOutcome {{",
                    snake(&name)
                );
            }
            let _ = writeln!(out, "    todo!(\"implement node {name}\")");
            let _ = writeln!(out, "}}");
            let _ = writeln!(out);
        }
        for pred in p.required_predicates() {
            let _ = writeln!(out, "/// Flux predicate function `{pred}`.");
            let _ = writeln!(out, "pub fn {}(_data: &{payload}) -> bool {{", snake(&pred));
            let _ = writeln!(out, "    todo!(\"implement predicate {pred}\")");
            let _ = writeln!(out, "}}");
            let _ = writeln!(out);
        }

        let _ = writeln!(
            out,
            "/// Wires every node and predicate into a registry for the runtime."
        );
        let _ = writeln!(out, "pub fn build_registry() -> NodeRegistry<{payload}> {{");
        let _ = writeln!(out, "    let mut r = NodeRegistry::new();");
        for name in p.required_nodes() {
            let (id, node) = g.node(&name).expect("required node exists");
            if !node.is_concrete() {
                continue;
            }
            if sources.contains(&id) {
                let _ = writeln!(out, "    r.source(\"{name}\", {});", snake(&name));
            } else if node.blocking {
                let _ = writeln!(out, "    r.node_blocking(\"{name}\", {});", snake(&name));
            } else {
                let _ = writeln!(out, "    r.node(\"{name}\", {});", snake(&name));
            }
        }
        for pred in p.required_predicates() {
            let _ = writeln!(out, "    r.predicate(\"{pred}\", {});", snake(&pred));
        }
        let _ = writeln!(out, "    r");
        let _ = writeln!(out, "}}");

        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "/// Straight-line chains the compiler's fusion analysis found:\n\
             /// `(source, [vertex, ...])` per multi-vertex segment. Analysis\n\
             /// only: the runtimes still execute one node per step."
        );
        let _ = writeln!(out, "pub const FUSED_SEGMENTS: &[(&str, &[&str])] = &[");
        for flow in &p.flows {
            let src_name = g.name(flow.flat.source);
            for seg in &flow.fused.segments {
                if seg.verts.len() < 2 {
                    continue;
                }
                let labels: Vec<String> = seg
                    .verts
                    .iter()
                    .map(|&v| format!("\"{}\"", crate::fuse::vertex_label(g, &flow.flat, v)))
                    .collect();
                let _ = writeln!(out, "    (\"{src_name}\", &[{}]),", labels.join(", "));
            }
        }
        let _ = writeln!(out, "];");

        if let Some(src) = &self.source_text {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "/// The Flux program this skeleton was generated from."
            );
            let _ = writeln!(out, "pub const PROGRAM_SRC: &str = r#\"{src}\"#;");
            let _ = writeln!(out);
            let _ = writeln!(out, "fn main() {{");
            let _ = writeln!(
                out,
                "    let program = flux_core::compile(PROGRAM_SRC).expect(\"program compiles\");"
            );
            let _ = writeln!(out, "    let server = std::sync::Arc::new(");
            let _ = writeln!(
                out,
                "        flux_runtime::FluxServer::new(program, build_registry()).expect(\"registry complete\"),"
            );
            let _ = writeln!(out, "    );");
            let _ = writeln!(
                out,
                "    let handle = flux_runtime::start(server, flux_runtime::RuntimeKind::ThreadPool {{ workers: 8 }});"
            );
            let _ = writeln!(out, "    handle.join();");
            let _ = writeln!(out, "}}");
        }
        out
    }
}

/// Maps a normalized Flux type annotation to a Rust field type.
///
/// Builtin value types become primitives; `T*` pointer types become
/// `Option<Box<T>>` over an opaque generated struct recorded in
/// `opaque` (Flux pointers are nullable until the producing node runs,
/// exactly like the paper's per-flow C structs of pointers).
fn rust_type(flux_ty: &str, opaque: &mut std::collections::BTreeMap<String, String>) -> String {
    if let Some(base) = flux_ty.strip_suffix('*') {
        let base = base.trim();
        let rust_name = match base {
            "char" => return "Option<String>".into(),
            _ => camel(base),
        };
        opaque
            .entry(base.to_string())
            .or_insert_with(|| rust_name.clone());
        return format!("Option<Box<{rust_name}>>");
    }
    match flux_ty {
        "int" | "long" => "i64".into(),
        "uint" | "unsigned" | "size_t" => "u64".into(),
        "short" => "i16".into(),
        "char" => "u8".into(),
        "bool" => "bool".into(),
        "float" | "double" => "f64".into(),
        "string" => "String".into(),
        other => {
            // Unknown value type: carry it as an opaque struct by value.
            let rust_name = camel(other);
            opaque
                .entry(other.to_string())
                .or_insert_with(|| rust_name.clone());
            rust_name
        }
    }
}

/// Converts `snake_or_lower name` to `CamelCase` (for generated type
/// names).
fn camel(name: &str) -> String {
    name.split(|c: char| c == '_' || c.is_whitespace())
        .filter(|s| !s.is_empty())
        .map(|word| {
            let mut cs = word.chars();
            match cs.next() {
                Some(first) => first.to_ascii_uppercase().to_string() + cs.as_str(),
                None => String::new(),
            }
        })
        .collect()
}

/// Converts `CamelCaseName` to `snake_case_name`.
pub fn snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    let mut prev_lower = false;
    for c in name.chars() {
        if c.is_ascii_uppercase() {
            if prev_lower {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
            prev_lower = false;
        } else {
            prev_lower = c.is_ascii_lowercase() || c.is_ascii_digit();
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_case_conversion() {
        assert_eq!(snake("ReadRequest"), "read_request");
        assert_eq!(snake("FourOhFour"), "four_oh_four");
        assert_eq!(snake("CheckCache"), "check_cache");
        assert_eq!(snake("listen"), "listen");
        assert_eq!(snake("HTTPServer"), "httpserver");
    }

    #[test]
    fn stub_generation_covers_all_nodes() {
        let p = crate::compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let src = RustGenerator::default().generate(&p);
        for n in p.required_nodes() {
            assert!(
                src.contains(&format!("pub fn {}(", snake(&n)))
                    || src.contains(&format!("pub fn {}()", snake(&n))),
                "missing stub for {n}"
            );
            assert!(
                src.contains(&format!("r.node(\"{n}\""))
                    || src.contains(&format!("r.source(\"{n}\""))
            );
        }
        assert!(src.contains("pub fn test_in_cache"));
        assert!(src.contains("pub struct Payload"));
        assert!(src.contains("Flux type: `image_tag*`"));
    }

    #[test]
    fn payload_fields_are_typed_from_annotations() {
        let p = crate::compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let src = RustGenerator::default().generate(&p);
        // Pointer types become nullable boxed opaque structs...
        assert!(src.contains("pub request: Option<Box<ImageTag>>"), "{src}");
        assert!(src.contains("pub struct ImageTag;"), "{src}");
        // ...and builtin value types become primitives.
        let p2 = crate::compile(
            "Gen () => (int n, bool ok, float ratio);\
             Use (int n, bool ok, float ratio) => ();\
             source Gen => F; F = Use;",
        )
        .unwrap();
        let src2 = RustGenerator::default().generate(&p2);
        assert!(src2.contains("pub n: i64,"), "{src2}");
        assert!(src2.contains("pub ok: bool,"), "{src2}");
        assert!(src2.contains("pub ratio: f64,"), "{src2}");
        assert!(!src2.contains("TODO: choose a Rust type"));
    }

    #[test]
    fn source_nodes_get_source_outcome_signature() {
        let p = crate::compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let src = RustGenerator::default().generate(&p);
        assert!(src.contains("pub fn listen() -> SourceOutcome<Payload>"));
        assert!(src.contains("r.source(\"Listen\", listen);"));
        assert!(src.contains("r.node(\"Compress\", compress);"));
    }

    #[test]
    fn blocking_nodes_wired_as_blocking() {
        let p = crate::compile(
            "Gen () => (int x); Io (int x) => (); source Gen => F; F = Io; blocking Io;",
        )
        .unwrap();
        let src = RustGenerator::default().generate(&p);
        assert!(src.contains("r.node_blocking(\"Io\", io);"), "{src}");
    }

    #[test]
    fn fused_segment_table_lists_chains() {
        let p = crate::compile(crate::fixtures::IMAGE_SERVER).unwrap();
        let src = RustGenerator::default().generate(&p);
        assert!(src.contains("pub const FUSED_SEGMENTS"), "{src}");
        // CheckCache holds constraints, so its release fuses behind it.
        assert!(
            src.contains("(\"Listen\", &[\"CheckCache\", \"release(CheckCache)\"])"),
            "{src}"
        );
        // Chain across an abstract-node boundary fuses too.
        assert!(src.contains("&[\"ReadInFromDisk\", \"Compress\"]"), "{src}");
    }

    #[test]
    fn embedded_source_gains_main() {
        let p = crate::compile(crate::fixtures::MINI_PIPELINE).unwrap();
        let gen = RustGenerator {
            source_text: Some(crate::fixtures::MINI_PIPELINE.to_string()),
            ..RustGenerator::default()
        };
        let src = gen.generate(&p);
        assert!(src.contains("fn main()"));
        assert!(src.contains("PROGRAM_SRC"));
        assert!(src.contains("RuntimeKind::ThreadPool"));
        // Library-only mode has no main.
        let lib = RustGenerator::default().generate(&p);
        assert!(!lib.contains("fn main()"));
    }
}
