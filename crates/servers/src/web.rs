//! The Flux web server (paper §4.2): HTTP/1.1 with static files and
//! FluxScript dynamic pages (the PHP substitute).
//!
//! Flux programs are acyclic, so a keep-alive connection is not a loop
//! in the graph: the `Listen` source multiplexes readiness over all
//! connections (via [`flux_net::ConnDriver`]) and emits one flow per
//! ready request; `Complete` either closes the connection (deferred
//! until the response drains) or re-arms it for the next request. This
//! mirrors the paper's web and BitTorrent servers, whose source nodes
//! select over existing clients.
//!
//! A response leaves in two parts and is copied nowhere: the `Write`
//! node serializes the *head* into one of the driver's pooled buffers
//! and submits it together with the body — a refcounted
//! [`flux_net::SharedPayload`], for a static file the document root's
//! own buffer — through [`ConnDriver::submit_response`]. The transport
//! hands both to one `sendmsg`; whatever the socket does not take at
//! once is buffered *by reference* and drained by the reactor on
//! `POLLOUT`, so the node completes immediately, no I/O worker is ever
//! parked in `send(2)`, no connection lock is held across a send, and
//! `ReadFromDisk` costs a reference-count increment — the paper's
//! `http_response *resp` handed from node to node.
//!
//! Events arrive in batches: `Listen` drains a whole reactor round per
//! poll and hands the burst to the runtime as one
//! `SourceOutcome::Batch` (one shard-queue lock downstream), and
//! request heads parse into per-connection scratch that is reused
//! across a keep-alive connection's requests.

use crate::builder::{RunningServer, ServerSpec};
use flux_core::CompiledProgram;
use flux_http::{mime_for, read_request_buffered, DocRoot, ParseError, Request, Response, Value};
use flux_net::{
    ConnDriver, DriverEvent, Listener, NetConfig, SharedConn, SharedPayload, Token, IO_TIMEOUT,
};
use flux_runtime::{NodeOutcome, NodeRegistry, SourceOutcome};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The Flux program, as the paper would write it (~36 lines): the text
/// of `programs/web_server.flux`.
pub const FLUX_SRC: &str = include_str!("../../../programs/web_server.flux");

/// Per-flow payload: the union of fields flowing between nodes, exactly
/// like the paper's per-flow C struct.
pub struct WebFlow {
    pub token: Token,
    pub close: bool,
    pub request: Option<Request>,
    pub response: Option<Response>,
    conn: Option<SharedConn>,
}

/// Shared server context captured by the node closures.
pub struct WebCtx {
    pub driver: Arc<ConnDriver>,
    pub docroot: DocRoot,
    /// Total response bytes written (throughput accounting).
    pub bytes_out: AtomicU64,
    /// Requests served (any status).
    pub requests: AtomicU64,
    /// Prebuilt `503 Service Unavailable` wire bytes (Connection:
    /// close), serialized once at build time so the shed path costs a
    /// reference-count increment: no formatting, no copy.
    busy_response: SharedPayload,
}

impl WebCtx {
    fn conn(&self, token: Token) -> Option<SharedConn> {
        self.driver.get(token)
    }

    fn finish(&self, token: Token, close: bool) {
        if close {
            // Deferred close: the connection goes away only after the
            // reactor has drained any still-buffered response bytes.
            self.driver.remove_when_flushed(token);
        } else {
            self.driver.arm(token);
        }
    }

    /// Transmits a response: the head, serialized into a pooled
    /// buffer, and the body, by reference, as one submission on the
    /// driver's non-blocking write path. Completion (and any failure)
    /// arrives on the event stream as `WriteDone`/`WriteFailed`.
    /// `bytes_out` counts bytes *accepted for transmission*; a write
    /// that later fails mid-drain is still counted (benchmark goodput
    /// is measured client-side, so this only affects the server's own
    /// gauge).
    fn send_response(&self, token: Token, resp: &Response, close: bool) -> bool {
        let mut head = self.driver.take_write_buf();
        resp.write_head_to(&mut head, !close, resp.body.len());
        let len = (head.len() + resp.body.len()) as u64;
        let ok = self.driver.submit_response(token, head, &resp.body);
        if ok {
            self.bytes_out.fetch_add(len, Ordering::Relaxed);
        }
        ok
    }

    /// The shed path: answers the prebuilt 503 and closes once it
    /// drains. Runs on the source thread, *before* the flow enters any
    /// shard queue, so an overloaded server refuses work at the edge for
    /// the cost of one write.
    fn shed_busy(&self, token: Token) {
        if self.driver.submit_write_shared(token, &self.busy_response) {
            self.driver.remove_when_flushed(token);
        } else {
            self.driver.remove(token);
        }
    }
}

/// The web server's build spec: what [`crate::ServerBuilder`] consumes.
pub struct WebSpec {
    pub listener: Box<dyn Listener>,
    pub docroot: DocRoot,
}

impl WebSpec {
    /// A web server on `listener` serving `docroot`.
    pub fn new(listener: Box<dyn Listener>, docroot: DocRoot) -> Self {
        WebSpec { listener, docroot }
    }
}

impl ServerSpec for WebSpec {
    type Flow = WebFlow;
    type Ctx = Arc<WebCtx>;

    fn build(self, net: &NetConfig) -> (CompiledProgram, NodeRegistry<WebFlow>, Arc<WebCtx>) {
        build_spec(self, net)
    }

    fn driver(ctx: &Arc<WebCtx>) -> Option<Arc<ConnDriver>> {
        Some(ctx.driver.clone())
    }
}

/// Builds the compiled program, node registry and shared context with
/// the default network configuration.
pub fn build(
    listener: Box<dyn Listener>,
    docroot: DocRoot,
) -> (CompiledProgram, NodeRegistry<WebFlow>, Arc<WebCtx>) {
    build_spec(WebSpec::new(listener, docroot), &NetConfig::default())
}

/// Builds the compiled program, node registry and shared context.
///
/// [`flux_net::IO_TIMEOUT`] bounds how long `Listen` blocks before
/// yielding (`SourceOutcome::Skip`) so shutdown stays responsive.
pub fn build_with(
    listener: Box<dyn Listener>,
    docroot: DocRoot,
    net: &NetConfig,
) -> (CompiledProgram, NodeRegistry<WebFlow>, Arc<WebCtx>) {
    build_spec(WebSpec::new(listener, docroot), net)
}

/// How many driver events one `Listen` poll may drain. Bounds a single
/// shard-queue append (and the flow vector) without ever splitting a
/// typical reactor round.
const LISTEN_BATCH: usize = 128;

fn build_spec(
    spec: WebSpec,
    net: &NetConfig,
) -> (CompiledProgram, NodeRegistry<WebFlow>, Arc<WebCtx>) {
    let WebSpec { listener, docroot } = spec;
    let program = flux_core::compile(FLUX_SRC).expect("web server Flux program compiles");
    let driver = Arc::new(ConnDriver::with_config(net));
    driver.spawn_acceptor(listener);
    let mut busy_response = Vec::new();
    Response::error(503)
        .write_to(&mut busy_response, false)
        .expect("serializing a response to memory cannot fail");
    let ctx = Arc::new(WebCtx {
        driver,
        docroot,
        bytes_out: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        busy_response: busy_response.into(),
    });

    let mut reg: NodeRegistry<WebFlow> = NodeRegistry::new();

    // Source: the readiness multiplexer. New connections are armed for
    // their first request; readable connections become flows. Write
    // completions need no action here — the driver already retired the
    // submission (and performed any deferred close on the final
    // `WriteDone`, or removed the connection on `WriteFailed`).
    //
    // One poll drains a whole reactor round; the burst of readable
    // connections becomes one SourceOutcome::Batch, which the sharded
    // runtime appends to each home shard under a single queue lock. The
    // event buffer is reused across polls (the source closure is shared
    // state, hence the mutex — it is only ever locked from the one
    // source thread, so it is never contended).
    let c = ctx.clone();
    let events: Mutex<Vec<DriverEvent>> = Mutex::new(Vec::new());
    reg.source("Listen", move || {
        let mut buf = events.lock();
        buf.clear();
        if c.driver.next_events(&mut buf, LISTEN_BATCH, IO_TIMEOUT) == 0 {
            return SourceOutcome::Skip;
        }
        let mut flows: Vec<WebFlow> = Vec::with_capacity(buf.len());
        for ev in buf.drain(..) {
            match ev {
                DriverEvent::Incoming(token) => c.driver.arm(token),
                DriverEvent::WriteDone(_) | DriverEvent::WriteFailed(_) => {}
                DriverEvent::Readable(token) => flows.push(WebFlow {
                    token,
                    close: false,
                    request: None,
                    response: None,
                    conn: c.driver.get(token),
                }),
            }
        }
        match flows.len() {
            0 => SourceOutcome::Skip,
            1 => SourceOutcome::New(flows.pop().expect("len checked")),
            _ => SourceOutcome::Batch(flows),
        }
    });

    let c = ctx.clone();
    reg.node("ReadRequest", move |f: &mut WebFlow| {
        let Some(conn) = f.conn.clone().or_else(|| c.conn(f.token)) else {
            return NodeOutcome::Err(1); // connection already gone
        };
        f.conn = Some(conn.clone());
        let mut guard = conn.lock();
        // The request head parses into the connection's scratch buffer,
        // reused across every request on a keep-alive connection (slot
        // lock under conn lock is the crate-wide order, so taking it
        // here is safe).
        let mut scratch = c.driver.take_read_buf(f.token);
        let parsed = read_request_buffered(&mut **guard, &mut scratch);
        c.driver.put_read_buf(f.token, scratch);
        match parsed {
            Ok(req) => {
                drop(guard);
                // A complete request head is application progress: the
                // idle sweep's deadline resets. Trickled partial heads
                // deliberately don't reset it (slow-loris reapability).
                c.driver.mark_progress(f.token);
                c.requests.fetch_add(1, Ordering::Relaxed);
                f.close = !req.keep_alive();
                f.request = Some(req);
                NodeOutcome::Ok
            }
            Err(ParseError::ConnectionClosed) => {
                drop(guard);
                c.driver.remove(f.token);
                NodeOutcome::Err(2)
            }
            Err(_) => {
                drop(guard);
                NodeOutcome::Err(3)
            }
        }
    });

    reg.predicate("IsScript", |f: &WebFlow| {
        f.request.as_ref().is_some_and(|r| r.path.ends_with(".fxs"))
    });

    let c = ctx.clone();
    reg.node("ReadFromDisk", move |f: &mut WebFlow| {
        let req = f.request.as_ref().expect("ReadRequest ran");
        match c.docroot.get(&req.path) {
            Some(body) => {
                // The response shares the document root's buffer.
                f.response = Some(Response::ok(mime_for(&req.path), body.clone()));
                NodeOutcome::Ok
            }
            None => NodeOutcome::Err(404),
        }
    });

    let c = ctx.clone();
    reg.node("RunScript", move |f: &mut WebFlow| {
        let req = f.request.as_ref().expect("ReadRequest ran");
        let Some(template) = c.docroot.get(&req.path) else {
            return NodeOutcome::Err(404);
        };
        let template = String::from_utf8_lossy(template).into_owned();
        let mut vars: HashMap<String, Value> = HashMap::new();
        for (k, v) in req.query_params() {
            let val = v
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Str(v.clone()));
            vars.insert(k, val);
        }
        match flux_http::fxs_render(&template, &vars) {
            Ok(html) => {
                f.response = Some(Response::ok("text/html", html.into_bytes()));
                NodeOutcome::Ok
            }
            Err(_) => NodeOutcome::Err(500),
        }
    });

    // Enqueue-and-complete: the node returns as soon as the response is
    // submitted; the reactor drains what the socket did not take via
    // POLLOUT. Runs on a dispatcher shard, never the I/O pool.
    let c = ctx.clone();
    reg.node("Write", move |f: &mut WebFlow| {
        debug_assert!(
            !std::thread::current()
                .name()
                .unwrap_or("")
                .starts_with("flux-io-"),
            "Write must not occupy an I/O worker"
        );
        let resp = f.response.as_ref().expect("handler set a response");
        if !c.send_response(f.token, resp, f.close) {
            f.close = true; // connection already gone
        }
        NodeOutcome::Ok // delivery failure still completes the flow
    });

    let c = ctx.clone();
    reg.node("Complete", move |f: &mut WebFlow| {
        c.finish(f.token, f.close);
        NodeOutcome::Ok
    });

    // Overload shedding (OverloadPolicy::Bounded): a readable
    // connection whose home shard stands at the depth cap gets the
    // prebuilt 503 instead of queueing doomed work.
    let c = ctx.clone();
    reg.on_shed(move |f: WebFlow| c.shed_busy(f.token));

    // Error handlers enqueue a diagnostic response and close or re-arm
    // (the driver's non-blocking write path works on every runtime, so
    // these are non-blocking nodes).
    let c = ctx.clone();
    reg.node("BadRequest", move |f: &mut WebFlow| {
        if c.send_response(f.token, &Response::error(400), true) {
            c.driver.remove_when_flushed(f.token);
        } else {
            c.driver.remove(f.token);
        }
        NodeOutcome::Ok
    });
    let c = ctx.clone();
    reg.node("FourOhFour", move |f: &mut WebFlow| {
        if c.send_response(f.token, &Response::not_found(), f.close) {
            c.finish(f.token, f.close);
        } else {
            c.driver.remove(f.token);
        }
        NodeOutcome::Ok
    });
    let c = ctx.clone();
    reg.node("FiveHundred", move |f: &mut WebFlow| {
        if c.send_response(f.token, &Response::error(500), f.close) {
            c.finish(f.token, f.close);
        } else {
            c.driver.remove(f.token);
        }
        NodeOutcome::Ok
    });

    (program, reg, ctx)
}

/// A running Flux web server plus its context — what
/// [`crate::ServerBuilder::spawn`] returns for a [`WebSpec`].
pub type WebServer = RunningServer<WebFlow, Arc<WebCtx>>;

/// Stops a web server: shuts down sources, the driver and runtime.
pub fn stop(server: WebServer) {
    server.ctx.driver.stop();
    server.handle.server().request_shutdown();
    server.handle.stop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_http::read_response;
    use flux_net::MemNet;
    use flux_runtime::RuntimeKind;
    use std::io::Write;

    fn docroot() -> DocRoot {
        let mut root = DocRoot::new();
        root.insert("/index.html", "<h1>home</h1>");
        root.insert("/a.txt", "alpha");
        root.insert(
            "/sum.fxs",
            "<?fx $t = 0; for ($i = 1; $i <= $n; $i = $i + 1) { $t = $t + $i; } echo $t; ?>",
        );
        root.insert("/bad.fxs", "<?fx echo $undefined_variable; ?>");
        root
    }

    fn get(net: &Arc<MemNet>, path: &str) -> (u16, Vec<u8>) {
        let mut conn = net.connect("web").unwrap();
        write!(
            conn,
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        read_response(&mut conn).unwrap()
    }

    fn run_web_test(runtime: RuntimeKind) {
        let net = MemNet::new();
        let listener = net.listen("web").unwrap();
        let server = crate::ServerBuilder::new(WebSpec::new(Box::new(listener), docroot()))
            .runtime(runtime)
            .spawn();

        let (status, body) = get(&net, "/index.html");
        assert_eq!((status, body.as_slice()), (200, b"<h1>home</h1>".as_ref()));

        let (status, body) = get(&net, "/sum.fxs?n=10");
        assert_eq!(status, 200);
        assert_eq!(body, b"55");

        let (status, _) = get(&net, "/missing.html");
        assert_eq!(status, 404);

        let (status, _) = get(&net, "/bad.fxs");
        assert_eq!(status, 500);

        assert!(server.ctx.requests.load(Ordering::Relaxed) >= 4);
        stop(server);
    }

    #[test]
    fn serves_on_thread_pool() {
        run_web_test(RuntimeKind::ThreadPool { workers: 4 });
    }

    #[test]
    fn serves_on_event_runtime() {
        run_web_test(RuntimeKind::event_driven_sharded(1, 4));
    }

    #[test]
    fn serves_on_sharded_event_runtime() {
        run_web_test(RuntimeKind::event_driven_sharded(4, 4));
    }

    #[test]
    fn serves_on_thread_per_flow() {
        run_web_test(RuntimeKind::ThreadPerFlow);
    }

    #[test]
    fn keep_alive_serves_five_requests_per_connection() {
        let net = MemNet::new();
        let listener = net.listen("web").unwrap();
        let server = crate::ServerBuilder::new(WebSpec::new(Box::new(listener), docroot()))
            .runtime(RuntimeKind::ThreadPool { workers: 2 })
            .spawn();
        let mut conn = net.connect("web").unwrap();
        for i in 0..5 {
            let last = i == 4;
            let connection = if last { "close" } else { "keep-alive" };
            write!(
                conn,
                "GET /a.txt HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\n\r\n"
            )
            .unwrap();
            let (status, body) = read_response(&mut conn).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, b"alpha");
        }
        assert_eq!(server.ctx.requests.load(Ordering::Relaxed), 5);
        stop(server);
    }

    /// The hermetic transport runs the same reply path as TCP: head and
    /// body are one submission, the body a reference to the document
    /// root's buffer that nothing holds once the reply has left.
    #[test]
    fn static_bodies_are_submitted_by_reference() {
        let net = MemNet::new();
        let listener = net.listen("web").unwrap();
        let server = crate::ServerBuilder::new(WebSpec::new(Box::new(listener), docroot())).spawn();
        for _ in 0..3 {
            assert_eq!(get(&net, "/a.txt"), (200, b"alpha".to_vec()));
        }
        let counters = server.ctx.driver.counters();
        assert_eq!(counters.writes_submitted.load(Ordering::Relaxed), 3);
        assert_eq!(counters.writes_shared.load(Ordering::Relaxed), 3);
        let file = server.ctx.docroot.get("/a.txt").unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while file.ref_count() > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(file.ref_count(), 1, "the last flow released the file");
        stop(server);
    }

    #[test]
    fn program_compiles_and_is_small() {
        let program = flux_core::compile(FLUX_SRC).unwrap();
        assert_eq!(program.flows.len(), 1);
        // Table 1: the paper's web server is 36 lines of Flux.
        let lines = FLUX_SRC
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim().starts_with("//"))
            .count();
        assert!(lines <= 40, "Flux web server stays small: {lines} lines");
    }
}
