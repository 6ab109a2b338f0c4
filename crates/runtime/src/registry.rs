//! The node registry: binds Flux node names to Rust implementations.
//!
//! The paper's compiler links generated dispatch code against C functions
//! by symbol name; here, user code registers closures under the node
//! names a compiled program references. There is deliberately no "Flux
//! API" the implementations must adhere to beyond the paper's UNIX
//! convention: a node receives the flow's payload and returns zero for
//! success or a non-zero error code.

use flux_core::CompiledProgram;
use std::collections::HashMap;
use std::sync::Arc;

/// What a concrete node reports back (the UNIX error-code convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOutcome {
    /// Success: the flow continues along the success edge.
    Ok,
    /// A non-zero error code: the flow takes the error edge (handler or
    /// termination).
    Err(i32),
}

impl NodeOutcome {
    /// Maps a raw C-style return code.
    pub fn from_code(code: i32) -> Self {
        if code == 0 {
            NodeOutcome::Ok
        } else {
            NodeOutcome::Err(code)
        }
    }
}

/// What a source node produces on each iteration of its implicit loop.
pub enum SourceOutcome<P> {
    /// A new flow carrying this payload.
    New(P),
    /// Several new flows from one poll — a source that multiplexes a
    /// batched readiness stream (`flux-net`'s `next_events`) hands the
    /// whole burst over at once, and the sharded event runtime routes
    /// it to each home shard under a single queue lock and wake-up.
    Batch(Vec<P>),
    /// Nothing right now (e.g. accept timeout); loop again.
    Skip,
    /// Stop the server's source loop.
    Shutdown,
}

type NodeFn<P> = Arc<dyn Fn(&mut P) -> NodeOutcome + Send + Sync>;
type SourceFn<P> = Arc<dyn Fn() -> SourceOutcome<P> + Send + Sync>;
type PredFn<P> = Arc<dyn Fn(&P) -> bool + Send + Sync>;
type SessionFn<P> = Arc<dyn Fn(&P) -> u64 + Send + Sync>;

pub(crate) struct NodeEntry<P> {
    pub f: NodeFn<P>,
    /// True when the node may perform blocking calls; the event-driven
    /// runtime off-loads such nodes to its I/O pool (the substitute for
    /// the paper's LD_PRELOAD interception of blocking syscalls).
    pub may_block: bool,
}

impl<P> Clone for NodeEntry<P> {
    fn clone(&self) -> Self {
        NodeEntry {
            f: self.f.clone(),
            may_block: self.may_block,
        }
    }
}

/// All user-supplied implementations for one server.
pub struct NodeRegistry<P> {
    pub(crate) nodes: HashMap<String, NodeEntry<P>>,
    pub(crate) sources: HashMap<String, SourceFn<P>>,
    pub(crate) predicates: HashMap<String, PredFn<P>>,
    pub(crate) session_fns: HashMap<String, SessionFn<P>>,
    /// Sources whose session ids *pin* flows to the session's home
    /// shard (see [`NodeRegistry::session_pinned`]).
    pub(crate) pinned_sources: std::collections::HashSet<String>,
    /// Invoked with each payload the sharded runtime sheds at the
    /// source under a bounded `OverloadPolicy` (see
    /// [`NodeRegistry::on_shed`]).
    pub(crate) shed_handler: Option<Arc<dyn Fn(P) + Send + Sync>>,
}

impl<P> Default for NodeRegistry<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> NodeRegistry<P> {
    pub fn new() -> Self {
        NodeRegistry {
            nodes: HashMap::new(),
            sources: HashMap::new(),
            predicates: HashMap::new(),
            session_fns: HashMap::new(),
            pinned_sources: std::collections::HashSet::new(),
            shed_handler: None,
        }
    }

    /// Registers the shed handler: when the sharded event runtime runs
    /// under a bounded [`crate::OverloadPolicy`] and a source batch
    /// finds its destination shard queue at the depth cap, the overflow
    /// payloads are handed here (still on the source thread, *before*
    /// they enter any queue) instead of queueing doomed work. Servers
    /// use it to answer a cheap prebuilt 503/BUSY and close. Shedding
    /// only ever happens at the source boundary — never mid-graph — and
    /// every shed payload is counted; without a handler the payloads
    /// are still counted and dropped at the same boundary.
    pub fn on_shed(&mut self, f: impl Fn(P) + Send + Sync + 'static) -> &mut Self {
        self.shed_handler = Some(Arc::new(f));
        self
    }

    /// Registers a non-blocking node implementation.
    pub fn node(
        &mut self,
        name: &str,
        f: impl Fn(&mut P) -> NodeOutcome + Send + Sync + 'static,
    ) -> &mut Self {
        self.nodes.insert(
            name.to_string(),
            NodeEntry {
                f: Arc::new(f),
                may_block: false,
            },
        );
        self
    }

    /// Registers a node that may perform blocking calls (disk or network
    /// I/O). Thread runtimes treat it identically; the event runtime
    /// off-loads it so the dispatcher never stalls.
    pub fn node_blocking(
        &mut self,
        name: &str,
        f: impl Fn(&mut P) -> NodeOutcome + Send + Sync + 'static,
    ) -> &mut Self {
        self.nodes.insert(
            name.to_string(),
            NodeEntry {
                f: Arc::new(f),
                may_block: true,
            },
        );
        self
    }

    /// Registers a source node. The closure is called repeatedly from the
    /// source's implicit infinite loop.
    pub fn source(
        &mut self,
        name: &str,
        f: impl Fn() -> SourceOutcome<P> + Send + Sync + 'static,
    ) -> &mut Self {
        self.sources.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Registers the boolean function behind a `typedef` predicate type.
    pub fn predicate(
        &mut self,
        name: &str,
        f: impl Fn(&P) -> bool + Send + Sync + 'static,
    ) -> &mut Self {
        self.predicates.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Registers the session-id function for a source (paper §2.5.1):
    /// applied to each new flow's payload to scope `(session)`
    /// constraints.
    pub fn session(
        &mut self,
        source: &str,
        f: impl Fn(&P) -> u64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.session_fns.insert(source.to_string(), Arc::new(f));
        self
    }

    /// Like [`NodeRegistry::session`], but additionally *pins* each
    /// flow to its session's home shard in the sharded event runtime:
    /// a pinned event that surfaces anywhere else — via work stealing —
    /// is forwarded home instead of executing there. Keyed state indexed by the session id (e.g. a
    /// pub/sub topic's aggregation window) therefore only ever runs on
    /// one dispatcher at a time and stays effectively lock-free. Other
    /// runtimes treat this exactly like [`NodeRegistry::session`].
    pub fn session_pinned(
        &mut self,
        source: &str,
        f: impl Fn(&P) -> u64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.pinned_sources.insert(source.to_string());
        self.session(source, f)
    }

    pub(crate) fn node_entry(&self, name: &str) -> Option<&NodeEntry<P>> {
        self.nodes.get(name)
    }

    /// Checks that every node, source and predicate the compiled program
    /// requires has an implementation; returns the missing names.
    pub fn validate(&self, program: &CompiledProgram) -> Result<(), Vec<String>> {
        let mut missing = Vec::new();
        for flow in &program.flows {
            let src = program.graph.name(flow.flat.source);
            if !self.sources.contains_key(src) {
                missing.push(format!("source `{src}`"));
            }
            for (_, nid) in flow.flat.execs() {
                let name = program.graph.name(nid);
                if !self.nodes.contains_key(name) {
                    missing.push(format!("node `{name}`"));
                }
            }
        }
        for pred in program.required_predicates() {
            if !self.predicates.contains_key(&pred) {
                missing.push(format!("predicate `{pred}`"));
            }
        }
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(missing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct P {
        x: i32,
    }

    #[test]
    fn validate_reports_missing() {
        let program = flux_core::compile(flux_core::fixtures::MINI_PIPELINE).unwrap();
        let mut r: NodeRegistry<P> = NodeRegistry::new();
        r.node("Parse", |_| NodeOutcome::Ok);
        let missing = r.validate(&program).unwrap_err();
        assert!(missing.iter().any(|m| m.contains("source `Listen`")));
        assert!(missing.iter().any(|m| m.contains("node `Respond`")));
        assert!(missing.iter().any(|m| m.contains("predicate `IsValid`")));
        assert!(!missing.iter().any(|m| m.contains("`Parse`")));
    }

    #[test]
    fn validate_passes_when_complete() {
        let program = flux_core::compile(flux_core::fixtures::MINI_PIPELINE).unwrap();
        let mut r: NodeRegistry<P> = NodeRegistry::new();
        r.source("Listen", || SourceOutcome::New(P::default()));
        for n in ["Parse", "Respond", "Retry", "Close", "Oops"] {
            r.node(n, |_| NodeOutcome::Ok);
        }
        r.predicate("IsValid", |p: &P| p.x > 0);
        assert!(r.validate(&program).is_ok());
    }

    #[test]
    fn node_outcome_from_code() {
        assert_eq!(NodeOutcome::from_code(0), NodeOutcome::Ok);
        assert_eq!(NodeOutcome::from_code(404), NodeOutcome::Err(404));
    }

    #[test]
    fn blocking_flag_tracked() {
        let mut r: NodeRegistry<P> = NodeRegistry::new();
        r.node("A", |_| NodeOutcome::Ok);
        r.node_blocking("B", |_| NodeOutcome::Ok);
        assert!(!r.node_entry("A").unwrap().may_block);
        assert!(r.node_entry("B").unwrap().may_block);
    }
}
