//! A Knot-like hand-written web server (substitute for Capriccio's knot,
//! the paper's fastest comparator in Figure 3).
//!
//! Architecture: an accept thread plus a fixed pool of workers, each
//! *owning* a connection for its lifetime — read request, write
//! response, repeat until close. No coordination language, no per-node
//! queues: the minimal-overhead threaded design Flux is measured
//! against.

use crossbeam::channel::{bounded, Receiver, Sender};
use flux_http::{mime_for, read_request, DocRoot, ParseError, Response, Value};
use flux_net::{Conn, Listener};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Shared stats, comparable with the Flux web server's.
#[derive(Default)]
pub struct KnotStats {
    pub requests: AtomicU64,
    pub bytes_out: AtomicU64,
}

/// A running knot-like server.
pub struct KnotServer {
    pub stats: Arc<KnotStats>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KnotServer {
    /// Starts `workers` connection-owning workers behind an acceptor.
    pub fn start(listener: Box<dyn Listener>, docroot: DocRoot, workers: usize) -> KnotServer {
        let stats = Arc::new(KnotStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<Box<dyn Conn>>, Receiver<Box<dyn Conn>>) = bounded(1024);
        let docroot = Arc::new(docroot);
        let mut threads = Vec::new();
        for _ in 0..workers.max(1) {
            let rx = rx.clone();
            let docroot = docroot.clone();
            let stats = stats.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("knot-worker".into())
                    .spawn(move || {
                        while let Ok(mut conn) = rx.recv() {
                            serve_connection(&mut *conn, &docroot, &stats);
                        }
                    })
                    .expect("spawn knot worker"),
            );
        }
        {
            let stop = stop.clone();
            listener.set_accept_timeout(Some(Duration::from_millis(50)));
            threads.push(
                std::thread::Builder::new()
                    .name("knot-accept".into())
                    .spawn(move || loop {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        match listener.accept() {
                            Ok(conn) => {
                                if tx.send(conn).is_err() {
                                    return;
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => continue,
                            Err(_) => return,
                        }
                    })
                    .expect("spawn knot acceptor"),
            );
        }
        KnotServer {
            stats,
            stop,
            threads,
        }
    }

    /// Stops the server.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Serves one connection to completion (the worker's whole job).
pub fn serve_connection(conn: &mut dyn Conn, docroot: &DocRoot, stats: &KnotStats) {
    loop {
        let req = match read_request(conn) {
            Ok(r) => r,
            Err(ParseError::ConnectionClosed) => return,
            Err(_) => {
                let _ = Response::error(400).write_to(conn, false);
                return;
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let keep = req.keep_alive();
        let resp = handle_request(&req.path, &req.query_params(), docroot);
        let len = resp.wire_len(keep) as u64;
        if resp.write_to(conn, keep).is_err() {
            return;
        }
        stats.bytes_out.fetch_add(len, Ordering::Relaxed);
        if !keep {
            return;
        }
    }
}

/// The request handler shared with the SEDA baseline: static files plus
/// FluxScript pages, same semantics as the Flux web server.
pub fn handle_request(path: &str, params: &[(String, String)], docroot: &DocRoot) -> Response {
    let Some(content) = docroot.get(path) else {
        return Response::not_found();
    };
    if path.ends_with(".fxs") {
        let template = String::from_utf8_lossy(content).into_owned();
        let mut vars: HashMap<String, Value> = HashMap::new();
        for (k, v) in params {
            let val = v
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Str(v.clone()));
            vars.insert(k.clone(), val);
        }
        match flux_http::fxs_render(&template, &vars) {
            Ok(html) => Response::ok("text/html", html.into_bytes()),
            Err(_) => Response::error(500),
        }
    } else {
        let effective = if path == "/" { "/index.html" } else { path };
        Response::ok(mime_for(effective), content.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_http::read_response;
    use flux_net::MemNet;
    use std::io::Write as _;

    fn docroot() -> DocRoot {
        let mut root = DocRoot::new();
        root.insert("/index.html", "<h1>knot</h1>");
        root.insert("/calc.fxs", "<?fx echo $a * $b; ?>");
        root
    }

    #[test]
    fn serves_static_and_dynamic() {
        let net = MemNet::new();
        let listener = net.listen("knot").unwrap();
        let server = KnotServer::start(Box::new(listener), docroot(), 2);

        let mut conn = net.connect("knot").unwrap();
        write!(conn, "GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut conn).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"<h1>knot</h1>");

        write!(
            conn,
            "GET /calc.fxs?a=6&b=7 HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, body) = read_response(&mut conn).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"42");

        let mut conn = net.connect("knot").unwrap();
        write!(conn, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let (status, _) = read_response(&mut conn).unwrap();
        assert_eq!(status, 404);

        assert_eq!(server.stats.requests.load(Ordering::Relaxed), 3);
        server.stop();
    }
}
