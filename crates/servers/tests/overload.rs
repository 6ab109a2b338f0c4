//! Acceptance tests for overload control (edge admission, idle
//! reaping and queue-bound shedding) against the real TCP stack.
//!
//! The slow-loris proof: a peer that opens a connection and trickles a
//! partial request head — never completing it — parks a blocking
//! `ReadRequest` on the I/O pool and, unchecked, holds its slab slot
//! forever. With `idle_timeout` set, only *application progress* (a
//! complete parsed request, a drained response) refreshes a
//! connection's deadline, so the loris is severed at the OS level
//! within the timeout while concurrent healthy clients are served
//! throughout.
//!
//! The shedding proof: with bounded shard queues, a closed loop holding
//! more requests in flight than a queue admits is answered with
//! counted 503s, the server's books balance, and goodput stays near the
//! goodput of a load the queues hold whole.
//!
//! Each test measures a whole server, so they run one at a time
//! ([`serial`]): a concurrent test would move the goodput figures the
//! shedding test compares.

mod util;

use flux_http::{read_response, DocRoot};
use flux_net::{Conn as _, Listener as _, NetConfig, TcpAcceptor, TcpConn};
use flux_runtime::{OverloadPolicy, RuntimeKind};
use flux_servers::web;
use std::io::{BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Holds the test binary to one test at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    let _serial = serial();
    for (backend, net) in util::per_backend() {
        slow_loris_is_reaped(backend, net);
    }
}

fn slow_loris_is_reaped(backend: &str, net: NetConfig) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(web::WebSpec::new(Box::new(acceptor), docroot()))
        .net(NetConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..net
        })
        .runtime(RuntimeKind::event_driven_sharded(2, 2))
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
    let _serial = serial();
    for (backend, net) in util::per_backend() {
        max_conns_closes_excess(backend, net);
    }
}

fn max_conns_closes_excess(backend: &str, net: NetConfig) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(web::WebSpec::new(Box::new(acceptor), docroot()))
        .net(NetConfig {
            max_conns: 2,
            idle_timeout: Some(Duration::from_secs(30)),
            ..net
        })
        .runtime(RuntimeKind::event_driven_sharded(2, 1))
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

/// Per-shard queue bound of the shedding test.
const QUEUE_CAP: usize = 8;
/// Clients of the capacity phase: no more requests in flight than one
/// shard queue holds, so nothing can be shed.
const CAPACITY_CLIENTS: usize = QUEUE_CAP;
/// Clients of the overload phase: three times what a queue holds, so
/// the home shards' queues overflow and shed while the reconnects the
/// shed path forces stay a minority of the work.
const OVERLOAD_CLIENTS: usize = 3 * QUEUE_CAP;
/// Length of each measured phase.
const PHASE: Duration = Duration::from_millis(600);

/// What one closed-loop phase saw, client side.
#[derive(Debug, Default)]
struct Phase {
    ok: AtomicU64,
    rejected_503: AtomicU64,
    errors: AtomicU64,
}

impl Phase {
    fn goodput(&self) -> f64 {
        self.ok.load(Ordering::Relaxed) as f64 / PHASE.as_secs_f64()
    }
}

/// Runs `clients` closed-loop clients for [`PHASE`]: each keeps one
/// keep-alive GET in flight and opens a fresh connection after a 503
/// (the shed path answers `Connection: close`). A transport error or
/// any other status counts as a client error.
fn closed_loop(addr: &str, clients: usize) -> Phase {
    let phase = Arc::new(Phase::default());
    let stop = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let (addr, phase, stop) = (addr.to_string(), phase.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut conn: Option<BufReader<TcpStream>> = None;
                while !stop.load(Ordering::Relaxed) {
                    let c = match &mut conn {
                        Some(c) => c,
                        None => match TcpStream::connect(&addr) {
                            Ok(s) => {
                                s.set_nodelay(true).unwrap();
                                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                                conn.insert(BufReader::new(s))
                            }
                            Err(_) => {
                                phase.errors.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        },
                    };
                    let sent = c
                        .get_mut()
                        .write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n");
                    match sent.ok().and_then(|()| read_response(c).ok()) {
                        Some((200, body)) if body.len() == 512 => {
                            phase.ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Some((503, _)) => {
                            phase.rejected_503.fetch_add(1, Ordering::Relaxed);
                            conn = None;
                        }
                        _ => {
                            phase.errors.fetch_add(1, Ordering::Relaxed);
                            conn = None;
                        }
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(PHASE);
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }
    Arc::into_inner(phase).expect("client threads joined")
}

/// Bounded shard queues under a closed loop with three times the
/// requests in flight a queue holds: the excess is shed as counted,
/// client-visible 503s, the server's books balance (`offered ==
/// finished + shed`), no client sees an error, and goodput stays at
/// least 0.6 of the goodput of a load the queues hold whole.
#[test]
fn bounded_queues_shed_503s_and_keep_goodput() {
    let _serial = serial();
    for (backend, net) in util::per_backend() {
        bounded_queues_shed(backend, net);
    }
}

fn bounded_queues_shed(backend: &str, net: NetConfig) {
    let mut root = DocRoot::new();
    root.insert(
        "/index.html",
        (0..512).map(|i| (i % 251) as u8).collect::<Vec<u8>>(),
    );
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    // Shed-and-close makes clients reconnect in bursts; a deep backlog
    // keeps dropped-SYN retransmissions out of the measurement.
    acceptor.set_backlog(4096).unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(web::WebSpec::new(Box::new(acceptor), root))
        .net(net)
        .runtime(
            RuntimeKind::event_driven_sharded(2, 2).overload(OverloadPolicy::bounded(QUEUE_CAP)),
        )
        .spawn();
    assert_eq!(server.ctx.driver.poller_backend(), backend);
    let srv = server.handle.server().clone();

    let capacity = closed_loop(&addr, CAPACITY_CLIENTS);
    let shed_before = srv.stats.total_shed();
    let overload = closed_loop(&addr, OVERLOAD_CLIENTS);
    let shed = srv.stats.total_shed() - shed_before;
    web::stop(server);
    let offered = srv.stats.overload.offered.load(Ordering::Relaxed);
    let (finished, total_shed) = (srv.stats.finished(), srv.stats.total_shed());

    let ratio = overload.goodput() / capacity.goodput().max(1.0);
    eprintln!(
        "{backend}: capacity {:.0} rps; overload {:.0} rps ({ratio:.2}x), {} 503s, {shed} shed",
        capacity.goodput(),
        overload.goodput(),
        overload.rejected_503.load(Ordering::Relaxed),
    );
    assert!(shed > 0, "{backend}: the overload phase must shed");
    assert!(
        overload.rejected_503.load(Ordering::Relaxed) > 0,
        "{backend}: shedding must reach clients as 503s, not silent drops"
    );
    // Checked after shutdown, when no event is between the counters.
    assert_eq!(
        offered,
        finished + total_shed,
        "{backend}: offered == finished + shed"
    );
    let errors = capacity.errors.load(Ordering::Relaxed) + overload.errors.load(Ordering::Relaxed);
    assert_eq!(errors, 0, "{backend}: client transport or protocol errors");
    assert!(
        ratio >= 0.6,
        "{backend}: goodput under overload fell to {ratio:.2} of capacity"
    );
}
