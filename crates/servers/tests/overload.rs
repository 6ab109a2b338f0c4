//! Acceptance tests for overload control (edge admission + idle
//! reaping) against the real TCP stack.
//!
//! The slow-loris proof: a peer that opens a connection and trickles a
//! partial request head — never completing it — parks a blocking
//! `ReadRequest` on the I/O pool and, unchecked, holds its slab slot
//! forever. With `idle_timeout` set, only *application progress* (a
//! complete parsed request, a drained response) refreshes a
//! connection's deadline, so the loris is severed at the OS level
//! within the timeout while concurrent healthy clients are served
//! throughout.

mod util;

use flux_http::{read_response, DocRoot};
use flux_net::{Conn as _, Listener as _, NetConfig, TcpAcceptor, TcpConn};
use flux_runtime::RuntimeKind;
use flux_servers::web;
use std::io::{Read as _, Write as _};
use std::time::{Duration, Instant};

fn docroot() -> DocRoot {
    let mut root = DocRoot::new();
    root.insert("/small.txt", "tiny");
    root
}

fn healthy_request(addr: &str) {
    let mut conn = TcpConn::connect(addr).unwrap();
    write!(
        conn,
        "GET /small.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let (status, body) = read_response(&mut conn).unwrap();
    assert_eq!((status, body.as_slice()), (200, b"tiny".as_ref()));
}

#[test]
fn slow_loris_is_reaped_while_healthy_clients_are_served() {
    for (backend, net) in util::per_backend() {
        slow_loris_is_reaped(backend, net);
    }
}

fn slow_loris_is_reaped(backend: &str, net: NetConfig) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(web::WebSpec::new(Box::new(acceptor), docroot()))
        .net(net)
        .runtime(RuntimeKind::event_driven_sharded(2, 2))
        .idle_timeout(Some(Duration::from_millis(300)))
        .spawn();
    assert_eq!(server.ctx.driver.poller_backend(), backend);

    // The loris: one byte of a request head, then silence. This wakes a
    // `Readable`, dispatches `ReadRequest`, and parks an I/O worker in
    // a blocking read with the conn lock held.
    let mut loris = TcpConn::connect(&addr).unwrap();
    loris.write_all(b"GET /sl").unwrap();

    // Healthy clients are served while the loris sits parked.
    for _ in 0..5 {
        healthy_request(&addr);
        std::thread::sleep(Duration::from_millis(20));
    }

    // The reaper severs the loris within the idle window (plus sweep
    // cadence slack): the client observes EOF, not a hang.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let t0 = Instant::now();
    let mut byte = [0u8; 64];
    let n = loris.read(&mut byte).unwrap_or(0);
    assert_eq!(n, 0, "{backend}: severed loris must see EOF, got {n} bytes");
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "{backend}: loris outlived the idle timeout by far: {:?}",
        t0.elapsed()
    );

    // The client can observe the `shutdown(2)` EOF a beat before the
    // sweep finishes its pass and bumps the counter, so poll briefly.
    let counters = server
        .handle
        .server()
        .stats
        .net_counters()
        .expect("web server installs net counters");
    let t0 = Instant::now();
    while counters.idle_reaped() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{backend}: the sweep must account for the reaped loris"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Service is intact afterwards: the parked worker was released.
    for _ in 0..3 {
        healthy_request(&addr);
    }
    web::stop(server);
}

/// `max_conns` is a hard admission cap: connections past it are
/// accepted (draining the kernel backlog) and closed immediately,
/// counted as governed, while connections under the cap keep working.
#[test]
fn max_conns_closes_excess_connections_immediately() {
    for (backend, net) in util::per_backend() {
        max_conns_closes_excess(backend, net);
    }
}

fn max_conns_closes_excess(backend: &str, net: NetConfig) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(web::WebSpec::new(Box::new(acceptor), docroot()))
        .net(net)
        .runtime(RuntimeKind::event_driven_sharded(2, 1))
        .max_conns(2)
        .idle_timeout(Some(Duration::from_secs(30)))
        .spawn();
    assert_eq!(server.ctx.driver.poller_backend(), backend);

    // Two keep-alive connections occupy the cap.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut conn = TcpConn::connect(&addr).unwrap();
        write!(conn, "GET /small.txt HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _) = read_response(&mut conn).unwrap();
        assert_eq!(status, 200);
        held.push(conn);
    }

    // A third connection is admitted by the kernel but closed by the
    // governor: the client sees EOF instead of a served request.
    let mut over = TcpConn::connect(&addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = over.write_all(b"GET /small.txt HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut buf = [0u8; 16];
    let n = over.read(&mut buf).unwrap_or(0);
    assert_eq!(
        n, 0,
        "{backend}: over-cap connection must be closed unserved"
    );

    let counters = server
        .handle
        .server()
        .stats
        .net_counters()
        .expect("web server installs net counters");
    assert!(
        counters.accepts_governed() >= 1,
        "{backend}: the close must be counted"
    );
    assert!(counters.accepts_admitted() >= 2);

    // The held connections still work (keep-alive, under the cap).
    for conn in &mut held {
        write!(conn, "GET /small.txt HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _) = read_response(conn).unwrap();
        assert_eq!(status, 200);
    }
    drop(held);
    web::stop(server);
}
