//! HTTP/1.1 request parsing and response serialization.
//!
//! Implements the subset the paper's web server needs: GET/POST/HEAD,
//! header parsing, `Content-Length` bodies, keep-alive semantics
//! (HTTP/1.1 defaults to persistent connections; `Connection: close`
//! or HTTP/1.0 without `keep-alive` closes), and standard responses.

use flux_net::SharedPayload;
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
///
/// The body is a refcounted [`SharedPayload`]: a static file's response
/// shares the document root's buffer instead of copying it, and a
/// dynamic or error page wraps the `Vec<u8>` it was rendered into
/// (`From<Vec<u8>>`) — one body type for both.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub reason: &'static str,
    pub headers: Vec<(String, String)>,
    pub body: SharedPayload,
}

const STATUS_LINE_PREFIX: &str = "HTTP/1.1 ";
const CONTENT_LENGTH: &str = "Content-Length: ";
const SERVER_LINE: &str = "Server: flux-rs/0.1\r\n";

fn connection_line(keep_alive: bool) -> &'static str {
    if keep_alive {
        "Connection: keep-alive\r\n"
    } else {
        "Connection: close\r\n"
    }
}

/// Decimal digits in `n`.
fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

impl Response {
    /// 200 with a content type.
    pub fn ok(content_type: &str, body: impl Into<SharedPayload>) -> Response {
        Response {
            status: 200,
            reason: "OK",
            headers: vec![("Content-Type".into(), content_type.into())],
            body: body.into(),
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
            .into_bytes()
            .into(),
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
    /// `Connection` and `Server`) and the body to any writer, as two
    /// writes. A server that can transmit the body by reference
    /// serializes [`Response::write_head_to`] alone instead.
    pub fn write_to(&self, w: &mut dyn Write, keep_alive: bool) -> io::Result<()> {
        let body_len = self.body.len();
        let mut head = Vec::with_capacity(self.head_len(keep_alive, body_len));
        self.write_head_to(&mut head, keep_alive, body_len);
        w.write_all(&head)?;
        w.write_all(&self.body)?;
        w.flush()
    }

    /// Appends the head alone to `out`, announcing a body of `body_len`
    /// bytes: for a caller that sends the body from where it already is
    /// (this response's shared payload, a cache entry). Formats straight
    /// into `out`; allocates only if `out` must grow.
    pub fn write_head_to(&self, out: &mut Vec<u8>, keep_alive: bool, body_len: usize) {
        out.reserve(self.head_len(keep_alive, body_len));
        out.extend_from_slice(STATUS_LINE_PREFIX.as_bytes());
        write!(out, "{} {}\r\n", self.status, self.reason).expect("writing to a Vec cannot fail");
        for (k, v) in &self.headers {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(CONTENT_LENGTH.as_bytes());
        write!(out, "{body_len}\r\n").expect("writing to a Vec cannot fail");
        out.extend_from_slice(SERVER_LINE.as_bytes());
        out.extend_from_slice(connection_line(keep_alive).as_bytes());
        out.extend_from_slice(b"\r\n");
    }

    /// Bytes [`Response::write_head_to`] emits for a body of `body_len`.
    pub fn head_len(&self, keep_alive: bool, body_len: usize) -> usize {
        let headers: usize = self
            .headers
            .iter()
            .map(|(k, v)| k.len() + 2 + v.len() + 2)
            .sum();
        STATUS_LINE_PREFIX.len()
            + decimal_len(self.status as usize)
            + 1
            + self.reason.len()
            + 2
            + headers
            + CONTENT_LENGTH.len()
            + decimal_len(body_len)
            + 2
            + SERVER_LINE.len()
            + connection_line(keep_alive).len()
            + 2
    }

    /// Total bytes `write_to` will emit (for throughput accounting).
    pub fn wire_len(&self, keep_alive: bool) -> usize {
        self.head_len(keep_alive, self.body.len()) + self.body.len()
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

    /// The head serializer before it wrote straight into the caller's
    /// buffer, kept as the oracle for the wire format.
    fn reference_wire(resp: &Response, keep_alive: bool) -> Vec<u8> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason);
        for (k, v) in &resp.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", resp.body.len()));
        head.push_str("Server: flux-rs/0.1\r\n");
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&resp.body);
        wire
    }

    /// Golden test: for every status with a reason phrase (and one
    /// without), keep-alive on and off, with and without extra headers,
    /// and body lengths on both sides of each digit-count step the
    /// sizes are computed from, the wire bytes are what the reference
    /// serializer produced and the arithmetic lengths agree with them.
    #[test]
    fn wire_bytes_match_the_reference_serializer() {
        let statuses = [
            200u16, 204, 301, 302, 304, 400, 403, 404, 405, 413, 500, 501, 503, 299,
        ];
        for status in statuses {
            for body_len in [0usize, 9, 10, 1_048_576] {
                for extra in [false, true] {
                    for keep_alive in [false, true] {
                        let mut resp = Response::error(status);
                        resp.body = vec![b'x'; body_len].into();
                        if extra {
                            resp = resp
                                .header("X-Test", "1")
                                .header("Cache-Control", "no-store");
                        }
                        let want = reference_wire(&resp, keep_alive);
                        let mut wire = Vec::new();
                        resp.write_to(&mut wire, keep_alive).unwrap();
                        let case = format!("{status} len={body_len} extra={extra} ka={keep_alive}");
                        assert!(wire == want, "wire bytes differ: {case}");
                        assert_eq!(resp.wire_len(keep_alive), want.len(), "{case}");
                        let mut head = b"prefix".to_vec();
                        resp.write_head_to(&mut head, keep_alive, body_len);
                        assert!(head[6..] == want[..want.len() - body_len], "{case}");
                        assert_eq!(
                            head.len() - 6,
                            resp.head_len(keep_alive, body_len),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    /// A head written into a buffer with room performs no allocation:
    /// the buffer is neither moved nor grown.
    #[test]
    fn head_is_written_in_place() {
        let resp = Response::ok("text/html", vec![0u8; 10]).header("X-Test", "1");
        let mut out = Vec::with_capacity(512);
        let (at, cap) = (out.as_ptr(), out.capacity());
        resp.write_head_to(&mut out, true, resp.body.len());
        assert_eq!((out.as_ptr(), out.capacity()), (at, cap));
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
