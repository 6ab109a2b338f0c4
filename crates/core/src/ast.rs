//! Abstract syntax tree for Flux programs (paper §2).

use crate::span::Span;
use std::fmt;

/// A complete parsed Flux program: an ordered list of declarations.
///
/// Order matters in two places: dispatch variants are tried in declaration
/// order (§2.3), and diagnostics refer back to declaration sites.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub items: Vec<Item>,
}

/// One top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `Name (in...) => (out...);` — a concrete node's type signature.
    NodeSig(NodeSig),
    /// `source Listen => Image;`
    Source(SourceDecl),
    /// `Name = A -> B -> C;` or `Name:[_, hit] = A -> B;` or `Name:[_,_] = ;`
    Abstract(AbstractDef),
    /// `typedef hit TestInCache;` — binds predicate type `hit` to the
    /// user-supplied boolean function `TestInCache`.
    Typedef(TypedefDecl),
    /// `handle error ReadInFromDisk => FourOhFour;`
    ErrorHandler(HandlerDecl),
    /// `atomic CheckCache:{cache};`
    Atomic(AtomicDecl),
    /// `blocking ReadInFromDisk;` — extension standing in for the paper's
    /// LD_PRELOAD interception: the node performs blocking calls and must
    /// be off-loaded by the event runtime.
    Blocking(BlockingDecl),
}

impl Item {
    /// The source span of the whole declaration.
    pub fn span(&self) -> Span {
        match self {
            Item::NodeSig(x) => x.span,
            Item::Source(x) => x.span,
            Item::Abstract(x) => x.span,
            Item::Typedef(x) => x.span,
            Item::ErrorHandler(x) => x.span,
            Item::Atomic(x) => x.span,
            Item::Blocking(x) => x.span,
        }
    }
}

/// A typed parameter in a node signature, e.g. `image_tag *request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Normalized type text: words joined by spaces, `*` appended without
    /// spaces (`image_tag*`, `unsigned int`).
    pub ty: String,
    /// The parameter name (for documentation and stub generation only; type
    /// checking uses positions and types, as in the paper).
    pub name: String,
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.ty, self.name)
    }
}

/// `Name (inputs) => (outputs);`
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSig {
    pub name: String,
    pub inputs: Vec<Param>,
    pub outputs: Vec<Param>,
    pub span: Span,
}

/// `source Listen => Image;`
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDecl {
    /// The source node (must be a concrete node with no inputs).
    pub source: String,
    /// The node each new flow is handed to.
    pub target: String,
    pub span: Span,
}

/// One element of a dispatch pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatElem {
    /// `_` — matches anything.
    Wildcard,
    /// A predicate type name bound by a `typedef`; the bound boolean
    /// function is applied to the argument in this position.
    Pred(String),
}

impl fmt::Display for PatElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatElem::Wildcard => f.write_str("_"),
            PatElem::Pred(p) => f.write_str(p),
        }
    }
}

/// One abstract-node definition. Multiple definitions with the same name
/// and distinct patterns form the node's dispatch variants, tried in order.
#[derive(Debug, Clone, PartialEq)]
pub struct AbstractDef {
    pub name: String,
    /// `None` for an unconditional definition (`Image = ...`).
    pub pattern: Option<Vec<PatElem>>,
    /// The `->`-separated body; empty means pass-through (`Handler:[..] = ;`).
    pub body: Vec<String>,
    pub span: Span,
}

/// `typedef hit TestInCache;`
#[derive(Debug, Clone, PartialEq)]
pub struct TypedefDecl {
    /// The predicate type name used in patterns (`hit`).
    pub ty_name: String,
    /// The boolean function the runtime must supply (`TestInCache`).
    pub func: String,
    pub span: Span,
}

/// `handle error Node => Handler;`
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerDecl {
    pub node: String,
    pub handler: String,
    pub span: Span,
}

/// Reader or writer mode of an atomicity constraint (§2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstraintMode {
    /// `name?` — multiple readers may hold the constraint together.
    Reader,
    /// `name` or `name!` — exclusive (the default).
    Writer,
}

/// Program-wide or per-session scope of a constraint (§2.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintScope {
    /// One lock for the whole server (the default).
    Program,
    /// One lock per session, keyed by the user-supplied session-id function
    /// applied to the source node's output.
    Session,
}

/// A single named constraint with its mode and scope, e.g. `cache?`,
/// `state(session)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConstraintRef {
    pub name: String,
    pub mode: ConstraintMode,
    pub scope: ConstraintScope,
}

impl fmt::Display for ConstraintRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        match self.mode {
            ConstraintMode::Reader => f.write_str("?")?,
            ConstraintMode::Writer => {}
        }
        if self.scope == ConstraintScope::Session {
            f.write_str("(session)")?;
        }
        Ok(())
    }
}

/// `atomic Node:{c1, c2?};`
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicDecl {
    pub node: String,
    pub constraints: Vec<ConstraintRef>,
    pub span: Span,
}

/// `blocking Node;` (extension).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingDecl {
    pub node: String,
    pub span: Span,
}

impl Program {
    /// Iterates over all concrete-node signatures.
    pub fn node_sigs(&self) -> impl Iterator<Item = &NodeSig> {
        self.items.iter().filter_map(|i| match i {
            Item::NodeSig(s) => Some(s),
            _ => None,
        })
    }

    /// Iterates over all abstract definitions (variants included).
    pub fn abstract_defs(&self) -> impl Iterator<Item = &AbstractDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Abstract(a) => Some(a),
            _ => None,
        })
    }

    /// Iterates over all source declarations.
    pub fn sources(&self) -> impl Iterator<Item = &SourceDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Source(s) => Some(s),
            _ => None,
        })
    }
}
