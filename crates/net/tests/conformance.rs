//! Transport conformance suite: the reactor/driver invariants (the
//! fd-reuse generation race, deferred-close drain, slow-reader drain,
//! write failure on removal) must hold **identically** over every
//! transport the reactor serves — TCP on each [`flux_net::Poller`]
//! backend, and the in-memory transport, whose endpoints report on the
//! reactor's ready list. Each scenario runs once per transport through
//! the same harness, as one test per transport (`<scenario>::tcp_poll`,
//! `::tcp_epoll`, `::mem`); a backend that passes here can be swapped in via
//! `NetConfig::backend` without any server noticing, and a test over
//! `MemNet` exercises the readiness path TCP takes.
//!
//! The shutdown thread-join invariant has its own binary
//! (`tests/shutdown.rs`), because it scans `/proc/self/task` and needs
//! a process to itself.

mod util;

use flux_net::{DriverEvent, Token};
use std::io::{Read as _, Write as _};
use std::time::Duration;
use util::{accept_one, Transport};

/// The fd-reuse generation race: remove a connection (closing its fd,
/// or dropping its pipe) and immediately accept a new one that reuses
/// it — and its driver slot. The stale token must never fire, on any
/// transport: the removed connection's client closes right after the
/// removal, which makes the old endpoint readable.
fn fd_reuse_generation_race(transport: Transport) {
    let (driver, dialer) = transport.listen();
    let mut dead_tokens = std::collections::HashSet::new();
    for round in 0..25 {
        // Any event for a removed token, here or below, is stale.
        let accept = |dead: &std::collections::HashSet<Token>| {
            let client = dialer.connect();
            match driver.next_event(Duration::from_secs(2)) {
                Some(DriverEvent::Incoming(token)) => (client, token),
                Some(DriverEvent::Readable(t)) if dead.contains(&t) => {
                    panic!("stale watch fired for removed token {t} (round {round}, {transport:?})")
                }
                other => panic!("expected Incoming, got {other:?} ({transport:?})"),
            }
        };
        let (old_client, old_token) = accept(&dead_tokens);
        driver.arm(old_token);
        // Remove while the watch is armed and no data has arrived: the
        // fd closes here, may be reused by the next accept, and any
        // Readable(old_token) from now on is a stale delivery.
        drop(driver.remove(old_token));
        dead_tokens.insert(old_token);
        drop(old_client);

        let (mut new_client, new_token) = accept(&dead_tokens);
        driver.arm(new_token);
        new_client.write_all(b"fresh").unwrap();
        match driver.next_event(Duration::from_secs(2)) {
            Some(DriverEvent::Readable(t)) => {
                assert!(
                    !dead_tokens.contains(&t),
                    "stale watch fired for removed token {t} (round {round}, {transport:?})"
                );
                assert_eq!(t, new_token);
            }
            other => panic!("expected Readable({new_token}), got {other:?} ({transport:?})"),
        }
        driver.remove(new_token);
        dead_tokens.insert(new_token);
    }
    driver.stop();
}

/// Slow-reader drain: a response larger than the transport takes at
/// once (the kernel socket buffers, or the shaped link's burst)
/// completes through the reactor's write drain, with the deferral
/// observable in the counters.
fn slow_reader_pollout_drain(transport: Transport) {
    let (driver, dialer) = transport.listen();
    let (mut client, token) = accept_one(&driver, &dialer);
    let payload: Vec<u8> = (0..transport.big()).map(|i| (i % 251) as u8).collect();
    assert!(driver.submit_write(token, &payload));
    assert!(
        driver.pending_out(token) > 0,
        "a big write must not complete synchronously ({transport:?})"
    );
    assert!(
        driver.next_event(Duration::from_millis(100)).is_none(),
        "no completion while the client reads nothing ({transport:?})"
    );
    let mut got = Vec::with_capacity(payload.len());
    let mut buf = vec![0u8; 64 * 1024];
    while got.len() < payload.len() {
        let n = client.read(&mut buf).unwrap();
        assert!(n > 0, "EOF before the payload drained ({transport:?})");
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got, payload, "drained bytes match ({transport:?})");
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
        "the drain must have hit WouldBlock at least once ({transport:?})"
    );
    driver.stop();
}

/// Deferred close: `remove_when_flushed` keeps the connection open
/// until the buffer drains, then closes it — the client sees the full
/// payload followed by EOF.
fn deferred_close_drain(transport: Transport) {
    let (driver, dialer) = transport.listen();
    let (mut client, token) = accept_one(&driver, &dialer);
    let payload: Vec<u8> = vec![b'z'; transport.big()];
    assert!(driver.submit_write(token, &payload));
    driver.remove_when_flushed(token);
    assert!(
        driver.get(token).is_some(),
        "close must be deferred while bytes are buffered ({transport:?})"
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
        "every byte drained before close ({transport:?})"
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
        "removed after the drain ({transport:?})"
    );
    driver.stop();
}

/// `remove` fails still-pending submissions so every `submit_write`
/// gets its completion event.
fn remove_fails_pending_submissions(transport: Transport) {
    let (driver, dialer) = transport.listen();
    let (_client, token) = accept_one(&driver, &dialer);
    assert!(driver.submit_write(token, &vec![1u8; transport.big()]));
    assert!(driver.pending_out(token) > 0);
    driver.remove(token);
    assert_eq!(
        driver.next_event(Duration::from_secs(2)),
        Some(DriverEvent::WriteFailed(token)),
        "{transport:?}"
    );
    driver.stop();
}

util::on_every_transport!(
    fd_reuse_generation_race,
    slow_reader_pollout_drain,
    deferred_close_drain,
    remove_fails_pending_submissions,
);
