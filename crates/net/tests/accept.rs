//! The TCP accept edge waits in the kernel: a connect reaches the
//! event stream as `Incoming` without a sleep in between, and a burst
//! of connects is drained whole. (The acceptor's own timeout semantics
//! are unit-tested in `tcp.rs`; governor, token bucket and error
//! back-off in `driver.rs`.)

#![cfg(unix)]

use flux_net::{ConnDriver, DriverEvent, Listener as _, TcpAcceptor};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn listening_driver() -> (Arc<ConnDriver>, String) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    acceptor.set_backlog(1024).unwrap();
    let addr = acceptor.local_addr();
    let driver = Arc::new(ConnDriver::new());
    driver.spawn_acceptor(Box::new(acceptor));
    (driver, addr)
}

/// Sequential connects, each timed from `connect` to its `Incoming`.
/// A sleep-polling acceptor puts half its sleep (or all of it, when
/// the connect lands just after a poll) on every one; a kernel wait
/// leaves a thread wake.
#[test]
fn connect_to_incoming_is_a_wake_not_a_sleep() {
    let (driver, addr) = listening_driver();
    let mut clients = Vec::new();
    let mut waits = Vec::new();
    for _ in 0..50 {
        let t0 = Instant::now();
        clients.push(TcpStream::connect(&addr).unwrap());
        let ev = driver.next_event(Duration::from_secs(2));
        waits.push(t0.elapsed());
        assert!(matches!(ev, Some(DriverEvent::Incoming(_))), "got {ev:?}");
    }
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median connect→Incoming {median:?} (all: {waits:?})"
    );
    driver.stop();
}

/// 200 connects issued back to back all arrive: the acceptor keeps
/// accepting while the backlog is non-empty and loses none.
#[test]
fn burst_of_connects_is_drained_whole() {
    const BURST: usize = 200;
    let (driver, addr) = listening_driver();
    let clients: Vec<TcpStream> = (0..BURST)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    let mut tokens = std::collections::HashSet::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while tokens.len() < BURST && Instant::now() < deadline {
        match driver.next_event(Duration::from_millis(100)) {
            Some(DriverEvent::Incoming(token)) => assert!(tokens.insert(token), "token reused"),
            Some(other) => panic!("unexpected {other:?}"),
            None => {}
        }
    }
    assert_eq!(tokens.len(), BURST);
    assert_eq!(driver.next_event(Duration::from_millis(60)), None);
    let counters = driver.counters();
    assert_eq!(
        counters.accepts_admitted.load(Ordering::Relaxed),
        BURST as u64
    );
    assert_eq!(counters.accepts_governed.load(Ordering::Relaxed), 0);
    assert_eq!(driver.len(), BURST);
    drop(clients);
    driver.stop();
}
