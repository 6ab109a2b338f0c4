//! Backend conformance suite: the reactor/driver invariants proven in
//! PRs 1–2 (fd-reuse generation race, deferred-close drain, slow-reader
//! POLLOUT drain, write failure on removal) must hold **identically**
//! over every [`flux_net::Poller`] backend. Each scenario runs once per
//! backend through the same harness; a backend that passes here can be
//! swapped in via `NetConfig::backend` without any server noticing.
//!
//! The shutdown thread-join invariant has its own binary
//! (`tests/shutdown.rs`), because it scans `/proc/self/task` and needs
//! a process to itself.

#![cfg(unix)]

mod util;

use flux_net::{
    ConnDriver, DriverEvent, Listener as _, PollerBackend, TcpAcceptor, TcpConn, Token,
};
use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;
use util::{backends, driver_on};

/// Accepts one TCP connection through the driver and returns
/// `(driver, client, token)`.
fn tcp_pair(backend: PollerBackend) -> (Arc<ConnDriver>, TcpConn, Token) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let driver = driver_on(backend);
    driver.spawn_acceptor(Box::new(acceptor));
    let client = TcpConn::connect(&addr).unwrap();
    let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap() else {
        panic!("expected Incoming");
    };
    (driver, client, token)
}

/// The fd-reuse generation race: remove a connection (closing its fd)
/// and immediately accept a new one that reuses it. The stale token
/// must never fire, on either backend.
fn fd_reuse_generation_race(backend: PollerBackend) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let driver = driver_on(backend);
    driver.spawn_acceptor(Box::new(acceptor));
    let mut dead_tokens = std::collections::HashSet::new();
    for round in 0..25 {
        let old_client = TcpConn::connect(&addr).unwrap();
        let DriverEvent::Incoming(old_token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        driver.arm(old_token);
        // Remove while the watch is armed and no data has arrived: the
        // fd closes here, may be reused by the next accept, and any
        // Readable(old_token) from now on is a stale delivery.
        drop(driver.remove(old_token));
        dead_tokens.insert(old_token);
        drop(old_client);

        let mut new_client = TcpConn::connect(&addr).unwrap();
        let DriverEvent::Incoming(new_token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        driver.arm(new_token);
        new_client.write_all(b"fresh").unwrap();
        match driver.next_event(Duration::from_secs(2)) {
            Some(DriverEvent::Readable(t)) => {
                assert!(
                    !dead_tokens.contains(&t),
                    "stale watch fired for removed token {t} (round {round}, {backend:?})"
                );
                assert_eq!(t, new_token);
            }
            other => panic!("expected Readable({new_token}), got {other:?} ({backend:?})"),
        }
        driver.remove(new_token);
        dead_tokens.insert(new_token);
    }
    driver.stop();
}

/// Slow-reader drain: a response larger than the kernel socket buffers
/// completes via the backend's writability events once the (initially
/// stalled) client reads, with the WouldBlock deferral observable in
/// the counters.
fn slow_reader_pollout_drain(backend: PollerBackend) {
    let (driver, mut client, token) = tcp_pair(backend);
    let payload: Vec<u8> = (0..8 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
    assert!(driver.submit_write(token, &payload));
    assert!(
        driver.pending_out(token) > 0,
        "an 8 MiB write must not complete synchronously ({backend:?})"
    );
    assert!(
        driver.next_event(Duration::from_millis(100)).is_none(),
        "no completion while the client reads nothing ({backend:?})"
    );
    let mut got = Vec::with_capacity(payload.len());
    let mut buf = vec![0u8; 64 * 1024];
    while got.len() < payload.len() {
        let n = client.read(&mut buf).unwrap();
        assert!(n > 0, "EOF before the payload drained ({backend:?})");
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got, payload, "drained bytes match ({backend:?})");
    assert_eq!(
        driver.next_event(Duration::from_secs(5)),
        Some(DriverEvent::WriteDone(token))
    );
    let counters = driver.counters();
    assert!(
        counters
            .write_would_block
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the drain must have hit WouldBlock at least once ({backend:?})"
    );
    driver.stop();
}

/// Deferred close: `remove_when_flushed` keeps the connection open
/// until the buffer drains, then closes it — the client sees the full
/// payload followed by EOF.
fn deferred_close_drain(backend: PollerBackend) {
    let (driver, mut client, token) = tcp_pair(backend);
    let payload: Vec<u8> = vec![b'z'; 8 * 1024 * 1024];
    assert!(driver.submit_write(token, &payload));
    driver.remove_when_flushed(token);
    assert!(
        driver.get(token).is_some(),
        "close must be deferred while bytes are buffered ({backend:?})"
    );
    let mut got = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = client.read(&mut buf).unwrap();
        if n == 0 {
            break; // EOF only after the whole payload
        }
        assert!(buf[..n].iter().all(|&b| b == b'z'));
        got += n;
    }
    assert_eq!(
        got,
        payload.len(),
        "every byte drained before close ({backend:?})"
    );
    assert_eq!(
        driver.next_event(Duration::from_secs(5)),
        Some(DriverEvent::WriteDone(token))
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while driver.get(token).is_some() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        driver.get(token).is_none(),
        "removed after the drain ({backend:?})"
    );
    driver.stop();
}

/// `remove` fails still-pending submissions so every `submit_write`
/// gets its completion event.
fn remove_fails_pending_submissions(backend: PollerBackend) {
    let (driver, _client, token) = tcp_pair(backend);
    assert!(driver.submit_write(token, &vec![1u8; 8 * 1024 * 1024]));
    assert!(driver.pending_out(token) > 0);
    driver.remove(token);
    assert_eq!(
        driver.next_event(Duration::from_secs(2)),
        Some(DriverEvent::WriteFailed(token)),
        "{backend:?}"
    );
    driver.stop();
}

#[test]
fn fd_reuse_generation_race_on_every_backend() {
    for backend in backends() {
        fd_reuse_generation_race(backend);
    }
}

#[test]
fn slow_reader_pollout_drain_on_every_backend() {
    for backend in backends() {
        slow_reader_pollout_drain(backend);
    }
}

#[test]
fn deferred_close_drain_on_every_backend() {
    for backend in backends() {
        deferred_close_drain(backend);
    }
}

#[test]
fn remove_fails_pending_submissions_on_every_backend() {
    for backend in backends() {
        remove_fails_pending_submissions(backend);
    }
}
