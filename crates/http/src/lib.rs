//! # flux-http — HTTP/1.1 substrate and the FluxScript page engine
//!
//! Everything the paper's web server needs from an HTTP stack:
//! request parsing with keep-alive semantics (§4.2's SPECweb-like load
//! sends five requests per connection), response serialization, MIME
//! types, an in-memory document root, and **FluxScript** — a small
//! PHP-flavoured template interpreter standing in for the PHP engine the
//! paper plugs in behind its web server (embedding PHP itself is out of
//! reach of a self-contained Rust build).

pub mod content;
pub mod fluxscript;
pub mod message;

pub use content::{mime_for, DocRoot};
pub use fluxscript::{eval as fxs_eval, render as fxs_render, ScriptError, Value};
pub use message::{
    percent_decode, read_request, read_request_buffered, read_response, sanitize_path, Method,
    ParseError, Request, Response,
};
