//! Tokens produced by the Flux lexer.

use crate::span::Span;
use std::fmt;

/// The kinds of token in a Flux program.
///
/// The surface syntax is tiny (paper §2): identifiers, a handful of
/// punctuation marks, and five keywords. `error` and `session` are
/// contextual (they only mean anything after `handle` and inside `(...)`
/// respectively) but lexing them as keywords is harmless because they are
/// not legal node names in the paper's grammar either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// A C-style identifier: `[A-Za-z_][A-Za-z0-9_]*`.
    Ident(String),
    /// An integer literal (used only inside type strings such as `__u8`
    /// handled as identifiers; kept for future extensions).
    Int(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `=` (abstract node definition)
    Eq,
    /// `->` (flow arrow)
    Arrow,
    /// `=>` (signature / source / handler arrow)
    FatArrow,
    /// `?` (reader constraint)
    Question,
    /// `!` (writer constraint)
    Bang,
    /// `*` (pointer in type position)
    Star,
    /// `_` (wildcard in dispatch patterns)
    Underscore,
    /// `source`
    KwSource,
    /// `typedef`
    KwTypedef,
    /// `handle`
    KwHandle,
    /// `error` (contextual, after `handle`)
    KwError,
    /// `atomic`
    KwAtomic,
    /// `session` (contextual, in constraint scope)
    KwSession,
    /// `blocking` — extension: marks a node as performing blocking calls so
    /// the event-driven runtime off-loads it (substitute for the paper's
    /// LD_PRELOAD interception of blocking system calls, which a Rust
    /// program cannot rely on).
    KwBlocking,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(n) => format!("integer `{n}`"),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::LBracket => "`[`".into(),
            TokenKind::RBracket => "`]`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Semi => "`;`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Arrow => "`->`".into(),
            TokenKind::FatArrow => "`=>`".into(),
            TokenKind::Question => "`?`".into(),
            TokenKind::Bang => "`!`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Underscore => "`_`".into(),
            TokenKind::KwSource => "`source`".into(),
            TokenKind::KwTypedef => "`typedef`".into(),
            TokenKind::KwHandle => "`handle`".into(),
            TokenKind::KwError => "`error`".into(),
            TokenKind::KwAtomic => "`atomic`".into(),
            TokenKind::KwSession => "`session`".into(),
            TokenKind::KwBlocking => "`blocking`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A token plus its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}
