//! The Flux web server over **real TCP**: static pages plus FluxScript
//! dynamic pages, exercised by an HTTP client over localhost.
//!
//! Construction goes through the one typed `ServerBuilder`: the spec
//! names the server (`WebSpec`), `.runtime(...)` picks the concurrency
//! substrate, and `NetConfig` decides the readiness backend — epoll on
//! Linux, poll elsewhere.
//!
//! ```sh
//! cargo run --example webserver           # self-test against localhost
//! PORT=8080 HOLD=1 cargo run --example webserver   # keep serving
//! ```

use flux::http::DocRoot;
use flux::net::{Listener as _, NetConfig, TcpAcceptor, TcpConn};
use flux::runtime::RuntimeKind;
use flux::servers::{web::WebSpec, ServerBuilder};
use std::io::Write as _;
use std::sync::atomic::Ordering;

fn docroot() -> DocRoot {
    let mut root = DocRoot::new();
    root.insert(
        "/index.html",
        "<html><body><h1>Flux web server</h1>\
         <p>Try <a href=\"/fib.fxs?n=20\">/fib.fxs?n=20</a></p></body></html>",
    );
    root.insert("/style.css", "body { font-family: sans-serif; }");
    root.insert(
        "/fib.fxs",
        "<?fx $a = 0; $b = 1; \
         for ($i = 0; $i < $n; $i = $i + 1) { $t = $a + $b; $a = $b; $b = $t; } \
         echo \"fib(\" . $n . \") = \" . $a; ?>",
    );
    root
}

fn main() {
    let port: u16 = std::env::var("PORT")
        .ok()
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    let acceptor = TcpAcceptor::bind(&format!("127.0.0.1:{port}")).expect("bind");
    let addr = acceptor.local_addr();
    // One dispatcher shard per core (FLUX_SHARDS overrides); TCP
    // readiness comes from the single poll(2) reactor thread.
    let shards: usize = std::env::var("FLUX_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    // The builder's NetConfig picks the readiness backend (epoll on
    // Linux, poll elsewhere), the per-connection write-buffer
    // bound and the Listen source's event-poll timeout.
    let net = NetConfig::default();
    let server = ServerBuilder::new(WebSpec::new(Box::new(acceptor), docroot()))
        .runtime(RuntimeKind::event_driven_sharded(shards, 4))
        .net(net)
        .spawn();
    let stats = &server.handle.server().stats;
    println!(
        "Flux web server (event-driven runtime, {}, {} backend) on http://{addr}/",
        stats.describe(),
        server.ctx.driver.poller_backend()
    );

    if std::env::var("HOLD").is_ok() {
        println!("serving until interrupted...");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    // Self-test over the loopback.
    for (path, expect) in [
        ("/index.html", "Flux web server"),
        ("/fib.fxs?n=20", "fib(20) = 6765"),
        ("/style.css", "sans-serif"),
    ] {
        let mut conn = TcpConn::connect(&addr).expect("connect");
        write!(
            conn,
            "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, body) = flux::http::read_response(&mut conn).expect("response");
        let text = String::from_utf8_lossy(&body);
        assert_eq!(status, 200, "{path}");
        assert!(text.contains(expect), "{path}: {text}");
        println!("GET {path} -> {status} ({} bytes)", body.len());
    }
    println!(
        "served {} requests over real TCP ({})",
        server.ctx.requests.load(Ordering::Relaxed),
        server.handle.server().stats.describe(),
    );
    // Responses ride the reactor's non-blocking write path: every one
    // drains through the driver, hitting POLLOUT only when the socket
    // buffer fills.
    if let Some(net) = server.handle.server().stats.net_counters() {
        println!(
            "write path: {} submitted / {} drained, {} WouldBlock deferrals, {} accept retries",
            net.writes_submitted(),
            net.writes_drained(),
            net.write_would_block(),
            net.accept_retries(),
        );
    }
    flux::servers::web::stop(server);
}
