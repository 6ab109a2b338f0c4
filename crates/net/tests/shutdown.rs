//! Shutdown regression: `ConnDriver::stop` must join every driver
//! thread (acceptor, reactor) so none can outlive the server and fire
//! into a dropped channel — and must not leak
//! connection state: a `remove_when_flushed` still in flight when the
//! reactor stops can never complete its drain, so `stop` removes the
//! connection (dropping its buffered output) itself.
//!
//! Runs as its own integration-test binary — and therefore its own
//! process — and the scenarios take turns ([`SERIAL`]), so scanning
//! `/proc/self/task` sees only the running scenario's threads. Every
//! scenario runs once per transport, as one test each: TCP on each
//! `Poller` backend, and the in-memory transport.

mod util;

use flux_net::DriverEvent;
use std::io::{Read as _, Write as _};
use std::time::Duration;
use util::{accept_one, Transport};

/// The test harness runs this binary's tests on parallel threads; the
/// thread scan must not see another scenario's live driver.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A scenario that panicked holding the lock protected no data.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Names of live `flux-net-*` threads (Linux; comm is truncated to 15
/// chars by the kernel).
#[cfg(target_os = "linux")]
fn net_threads() -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for t in tasks.flatten() {
            if let Ok(comm) = std::fs::read_to_string(t.path().join("comm")) {
                if comm.trim_end().starts_with("flux-net") {
                    names.push(comm.trim_end().to_string());
                }
            }
        }
    }
    names
}

#[cfg(target_os = "linux")]
util::on_every_transport!(
    stop_joins_all_driver_threads,
    drains_and_reads_run_on_the_reactor_alone
);
util::on_every_transport!(stop_does_not_leak_pending_flush);

#[cfg(target_os = "linux")]
fn stop_joins_all_driver_threads(transport: Transport) {
    let _turn = serial();

    let (driver, dialer) = transport.listen();
    let (mut client, token) = accept_one(&driver, &dialer);
    driver.arm(token); // reactor thread spins up
    client.write_all(b"x").unwrap();
    assert_eq!(
        driver.next_event(Duration::from_secs(2)),
        Some(DriverEvent::Readable(token))
    );
    assert!(
        !net_threads().is_empty(),
        "driver threads exist while running ({transport:?})"
    );
    driver.stop();
    assert_eq!(
        net_threads(),
        Vec::<String>::new(),
        "stop() must join the acceptor and reactor threads ({transport:?})"
    );
}

/// The reactor is the only readiness thread, whatever the transport:
/// while a big write fans out to four connections and drains through
/// the reactor, and while the connections are armed and read, the
/// driver runs its acceptor and its reactor and nothing else — no
/// per-connection watch thread and no write-drain thread, on a shaped
/// in-memory link as on TCP.
#[cfg(target_os = "linux")]
fn drains_and_reads_run_on_the_reactor_alone(transport: Transport) {
    let _turn = serial();

    let (driver, dialer) = transport.listen();
    let conns: Vec<_> = (0..4).map(|_| accept_one(&driver, &dialer)).collect();
    let payload = driver.seal_write_buf(vec![5u8; transport.big() / 4]);
    for (_, token) in &conns {
        driver.arm(*token);
        assert!(driver.submit_write_shared(*token, &payload));
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut buf = vec![0u8; 64 * 1024];
    for (mut client, _) in conns {
        let mut got = 0;
        while got < payload.len() {
            seen.extend(net_threads());
            got += client.read(&mut buf).unwrap();
        }
        client.write_all(b"x").unwrap();
    }
    let mut events = 0;
    while events < 8 {
        seen.extend(net_threads());
        match driver.next_event(Duration::from_secs(5)) {
            Some(DriverEvent::WriteDone(_) | DriverEvent::Readable(_)) => events += 1,
            other => panic!("expected WriteDone or Readable, got {other:?} ({transport:?})"),
        }
    }
    // `comm` keeps 15 characters: "flux-net-reactor" reads short.
    let expected: std::collections::BTreeSet<String> = ["flux-net-accept", "flux-net-reacto"]
        .map(String::from)
        .into();
    assert_eq!(seen, expected, "{transport:?}");
    driver.stop();
}

/// `stop` during an in-flight `remove_when_flushed`: the reactor is
/// gone, so the deferred close can never drain — the connection (and
/// its still-buffered multi-megabyte response) must not stay registered
/// in the driver, and the doomed submission must still get its
/// completion event.
fn stop_does_not_leak_pending_flush(transport: Transport) {
    let _turn = serial();

    let (driver, dialer) = transport.listen();
    let (_client, token) = accept_one(&driver, &dialer);
    // A write far past what the transport takes at once stays
    // partially buffered, so the close is deferred...
    assert!(driver.submit_write(token, &vec![7u8; transport.big()]));
    assert!(driver.pending_out(token) > 0, "{transport:?}");
    driver.remove_when_flushed(token);
    assert!(
        driver.get(token).is_some(),
        "close deferred while draining ({transport:?})"
    );
    // ...and stop() arrives before the drain completes.
    driver.stop();
    assert!(
        driver.get(token).is_none(),
        "stop must remove a conn whose deferred close was pending ({transport:?})"
    );
    assert!(
        driver.is_empty(),
        "no token may stay registered after stop ({transport:?})"
    );
    assert_eq!(driver.pending_out(token), 0, "{transport:?}");
    // The submission's completion contract survives shutdown: the
    // removal fails the pending write.
    let ev = driver.next_event(Duration::from_millis(100));
    assert_eq!(
        ev,
        Some(DriverEvent::WriteFailed(token)),
        "pending submission failed, not stranded ({transport:?})"
    );
}
