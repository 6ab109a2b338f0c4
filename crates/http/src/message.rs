//! HTTP/1.1 request parsing and response serialization.
//!
//! Implements the subset the paper's web server needs: GET/POST/HEAD,
//! header parsing, `Content-Length` bodies, keep-alive semantics
//! (HTTP/1.1 defaults to persistent connections; `Connection: close`
//! or HTTP/1.0 without `keep-alive` closes), and standard responses.

use std::collections::HashMap;
use std::io::{self, Read, Write};

/// Hard limits protecting the parser.
const MAX_HEAD_BYTES: usize = 64 * 1024;
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// An HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Head,
    Post,
    Other,
}

impl Method {
    fn parse(s: &str) -> Method {
        match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            _ => Method::Other,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    /// Decoded path without the query string (e.g. `/images/cat.ppm`).
    pub path: String,
    /// Raw query string (without `?`), empty if none.
    pub query: String,
    /// `true` for HTTP/1.1, `false` for 1.0.
    pub http11: bool,
    /// Header names are lower-cased.
    pub headers: HashMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    /// Query parameters as key/value pairs (no percent-decoding beyond
    /// `%XX` and `+`).
    pub fn query_params(&self) -> Vec<(String, String)> {
        self.query
            .split('&')
            .filter(|s| !s.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (percent_decode(k), percent_decode(v)),
                None => (percent_decode(kv), String::new()),
            })
            .collect()
    }

    /// Whether the connection should stay open after this exchange.
    pub fn keep_alive(&self) -> bool {
        match self
            .headers
            .get("connection")
            .map(|s| s.to_ascii_lowercase())
        {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why parsing failed.
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed before sending a complete request.
    ConnectionClosed,
    /// Malformed request line or headers.
    Malformed(&'static str),
    /// Request exceeded a size limit.
    TooLarge,
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed"),
            ParseError::Malformed(why) => write!(f, "malformed request: {why}"),
            ParseError::TooLarge => write!(f, "request too large"),
            ParseError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads and parses one request from `r`.
pub fn read_request(r: &mut dyn Read) -> Result<Request, ParseError> {
    let mut head = Vec::with_capacity(512);
    read_request_buffered(r, &mut head)
}

/// Like [`read_request`], but accumulates the request head into a
/// caller-supplied buffer (cleared first). Keep-alive servers pass a
/// per-connection scratch buffer so steady-state request parsing reuses
/// one allocation across every request on the connection.
pub fn read_request_buffered(r: &mut dyn Read, head: &mut Vec<u8>) -> Result<Request, ParseError> {
    // Accumulate until the blank line.
    head.clear();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                return Err(if head.is_empty() {
                    ParseError::ConnectionClosed
                } else {
                    ParseError::Malformed("eof inside request head")
                });
            }
            Ok(_) => {
                head.push(byte[0]);
                if head.len() > MAX_HEAD_BYTES {
                    return Err(ParseError::TooLarge);
                }
                if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    let head_str = std::str::from_utf8(head).map_err(|_| ParseError::Malformed("non-utf8 head"))?;
    let mut lines = head_str.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().ok_or(ParseError::Malformed("empty head"))?;
    let mut parts = request_line.split_whitespace();
    let method = Method::parse(parts.next().ok_or(ParseError::Malformed("no method"))?);
    let target = parts.next().ok_or(ParseError::Malformed("no target"))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    let http11 = version == "HTTP/1.1";

    let (raw_path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q.to_string()),
        None => (target, String::new()),
    };
    let path = sanitize_path(&percent_decode(raw_path))
        .ok_or(ParseError::Malformed("path escapes root"))?;

    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header without colon"))?;
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }

    let mut body = Vec::new();
    if let Some(len) = headers.get("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| ParseError::Malformed("bad content-length"))?;
        if len > MAX_BODY_BYTES {
            return Err(ParseError::TooLarge);
        }
        body.resize(len, 0);
        let mut read = 0;
        while read < len {
            match r.read(&mut body[read..]) {
                Ok(0) => return Err(ParseError::Malformed("eof inside body")),
                Ok(n) => read += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ParseError::Io(e)),
            }
        }
    }

    Ok(Request {
        method,
        path,
        query,
        http11,
        headers,
        body,
    })
}

/// Decodes `%XX` escapes and `+` as space.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                if i + 2 < bytes.len() {
                    if let (Some(h), Some(l)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                        out.push(h * 16 + l);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Normalizes a request path, rejecting traversal outside the root.
pub fn sanitize_path(p: &str) -> Option<String> {
    let mut stack: Vec<&str> = Vec::new();
    for seg in p.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                stack.pop()?;
            }
            s => stack.push(s),
        }
    }
    Ok::<_, ()>(()).ok()?;
    Some(format!("/{}", stack.join("/")))
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub reason: &'static str,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a content type.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            reason: "OK",
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// A standard error page.
    pub fn error(status: u16) -> Response {
        let reason = reason_for(status);
        Response {
            status,
            reason,
            headers: vec![("Content-Type".into(), "text/html".into())],
            body: format!(
                "<html><head><title>{status} {reason}</title></head>\
                 <body><h1>{status} {reason}</h1></body></html>"
            )
            .into_bytes(),
        }
    }

    /// The classic 404, used by the paper's `FourOhFour` node.
    pub fn not_found() -> Response {
        Response::error(404)
    }

    /// Adds a header.
    pub fn header(mut self, k: &str, v: &str) -> Response {
        self.headers.push((k.into(), v.into()));
        self
    }

    /// Serializes status line, headers (adding `Content-Length`,
    /// `Connection` and `Server`) and the body.
    pub fn write_to(&self, w: &mut dyn Write, keep_alive: bool) -> io::Result<()> {
        self.write_head_to(w, keep_alive, self.body.len())?;
        w.write_all(&self.body)?;
        w.flush()
    }

    /// Serializes the head alone, announcing a body of `body_len`
    /// bytes: for a caller that holds the body elsewhere (a shared
    /// cache entry) and appends it itself, so it need not be cloned
    /// into `self.body` first.
    pub fn write_head_to(
        &self,
        w: &mut dyn Write,
        keep_alive: bool,
        body_len: usize,
    ) -> io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason);
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {body_len}\r\n"));
        head.push_str("Server: flux-rs/0.1\r\n");
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        head.push_str("\r\n");
        w.write_all(head.as_bytes())
    }

    /// Total bytes `write_to` will emit (for throughput accounting).
    pub fn wire_len(&self, keep_alive: bool) -> usize {
        let mut n = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).len();
        for (k, v) in &self.headers {
            n += k.len() + 2 + v.len() + 2;
        }
        n += format!("Content-Length: {}\r\n", self.body.len()).len();
        n += "Server: flux-rs/0.1\r\n".len();
        n += if keep_alive {
            "Connection: keep-alive\r\n".len()
        } else {
            "Connection: close\r\n".len()
        };
        n += 2 + self.body.len();
        n
    }
}

/// Standard reason phrases.
pub fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Reads one full response (for test clients): returns (status, body).
pub fn read_response(r: &mut dyn Read) -> Result<(u16, Vec<u8>), ParseError> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Err(ParseError::ConnectionClosed),
            Ok(_) => {
                head.push(byte[0]);
                if head.len() > MAX_HEAD_BYTES {
                    return Err(ParseError::TooLarge);
                }
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    let head_str =
        std::str::from_utf8(&head).map_err(|_| ParseError::Malformed("non-utf8 head"))?;
    let status: u16 = head_str
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(ParseError::Malformed("no status"))?;
    let mut content_length = 0usize;
    for line in head_str.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Malformed("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    let mut read = 0;
    while read < content_length {
        match r.read(&mut body[read..]) {
            Ok(0) => return Err(ParseError::Malformed("eof inside body")),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        let mut cursor = io::Cursor::new(raw.to_vec());
        read_request(&mut cursor)
    }

    #[test]
    fn parses_simple_get() {
        let req = parse(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/index.html");
        assert!(req.http11);
        assert!(req.keep_alive());
        assert_eq!(req.headers["host"], "x");
    }

    #[test]
    fn parses_query_string() {
        let req = parse(b"GET /page.fxs?n=5&name=a+b%21 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/page.fxs");
        let params = req.query_params();
        assert_eq!(params[0], ("n".into(), "5".into()));
        assert_eq!(params[1], ("name".into(), "a b!".into()));
    }

    #[test]
    fn connection_close_overrides_11() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn reads_post_body() {
        let req = parse(b"POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_traversal() {
        assert!(matches!(
            parse(b"GET /../etc/passwd HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn sanitize_keeps_inner_dotdot_safe() {
        assert_eq!(sanitize_path("/a/b/../c"), Some("/a/c".into()));
        assert_eq!(sanitize_path("/a/./b"), Some("/a/b".into()));
        assert_eq!(sanitize_path("/.."), None);
    }

    #[test]
    fn closed_before_any_bytes() {
        assert!(matches!(parse(b""), Err(ParseError::ConnectionClosed)));
    }

    #[test]
    fn eof_mid_request() {
        assert!(matches!(parse(b"GET / HT"), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok("text/plain", b"body!".to_vec()).header("X-Test", "1");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        assert_eq!(wire.len(), resp.wire_len(true));
        let mut cursor = io::Cursor::new(wire);
        let (status, body) = read_response(&mut cursor).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"body!");
    }

    #[test]
    fn error_pages_have_reason() {
        let resp = Response::not_found();
        assert_eq!(resp.status, 404);
        assert!(String::from_utf8_lossy(&resp.body).contains("404 Not Found"));
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a%2"), "a%2");
        assert_eq!(percent_decode("a%zzb"), "a%zzb");
        assert_eq!(percent_decode("100%"), "100%");
    }
}
