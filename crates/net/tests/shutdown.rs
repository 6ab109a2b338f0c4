//! Shutdown regression: `ConnDriver::stop` must join every driver
//! thread (acceptor, reactor, fallback watches) so none can outlive the
//! server and fire into a dropped channel — and must not leak
//! connection state: a `remove_when_flushed` still in flight when the
//! reactor stops can never complete its drain, so `stop` removes the
//! connection (dropping its buffered output) itself.
//!
//! Runs as its own integration-test binary — and therefore its own
//! process — and the scenarios take turns ([`SERIAL`]), so scanning
//! `/proc/self/task` sees only the running scenario's threads. Every
//! scenario runs once per `Poller` backend.

#![cfg(unix)]

mod util;

use flux_net::{DriverEvent, TcpAcceptor, TcpConn};
use std::io::Write as _;
use std::time::Duration;
use util::{backends, driver_on};

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

#[test]
#[cfg(target_os = "linux")]
fn stop_joins_all_driver_threads() {
    use flux_net::Listener as _;
    let _turn = serial();

    for backend in backends() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let driver = driver_on(backend);
        driver.spawn_acceptor(Box::new(acceptor));
        let mut client = TcpConn::connect(&addr).unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        driver.arm(token); // reactor thread spins up
        client.write_all(b"x").unwrap();
        assert_eq!(
            driver.next_event(Duration::from_secs(2)),
            Some(DriverEvent::Readable(token))
        );
        assert!(
            !net_threads().is_empty(),
            "driver threads exist while running ({backend:?})"
        );
        driver.stop();
        assert_eq!(
            net_threads(),
            Vec::<String>::new(),
            "stop() must join acceptor, reactor and watch threads ({backend:?})"
        );
    }
}

/// `stop` during an in-flight `remove_when_flushed`: the reactor is
/// gone, so the deferred close can never drain — the connection (and
/// its still-buffered multi-megabyte response) must not stay registered
/// in the driver, and the doomed submission must still get its
/// completion event.
#[test]
fn stop_does_not_leak_pending_flush() {
    use flux_net::Listener as _;
    let _turn = serial();

    for backend in backends() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let driver = driver_on(backend);
        driver.spawn_acceptor(Box::new(acceptor));
        let _client = TcpConn::connect(&addr).unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        // A write far past the socket buffers stays partially buffered
        // (the client never reads), so the close is deferred...
        assert!(driver.submit_write(token, &vec![7u8; 8 * 1024 * 1024]));
        assert!(driver.pending_out(token) > 0, "{backend:?}");
        driver.remove_when_flushed(token);
        assert!(
            driver.get(token).is_some(),
            "close deferred while draining ({backend:?})"
        );
        // ...and stop() arrives before the drain completes.
        driver.stop();
        assert!(
            driver.get(token).is_none(),
            "stop must remove a conn whose deferred close was pending ({backend:?})"
        );
        assert!(
            driver.is_empty(),
            "no token may stay registered after stop ({backend:?})"
        );
        assert_eq!(driver.pending_out(token), 0, "{backend:?}");
        // The submission's completion contract survives shutdown: the
        // removal fails the pending write.
        let ev = driver.next_event(Duration::from_millis(100));
        assert_eq!(
            ev,
            Some(DriverEvent::WriteFailed(token)),
            "pending submission failed, not stranded ({backend:?})"
        );
    }
}
