//! Fan-out write-path tests: [`SharedPayload`] release semantics under
//! concurrent drops (the multicast case: N connections drain one
//! buffer, the last one returns it to the pool exactly once), the
//! reactor-level one-payload-to-N-connections path on every transport,
//! and slow-consumer eviction when a subscriber stops draining.

mod util;

use flux_net::{BytePool, ConnDriver, DriverEvent, MemNet, NetConfig};
use proptest::prelude::*;
use std::io::Read as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const SENTINEL: &[u8] = b"fanout-sentinel-payload";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N threads race to drop their clone of one sealed payload: the
    /// backing buffer must return to the pool exactly once (never zero
    /// times, never twice), and the recycled buffer must come back
    /// cleared — a new tenant (e.g. after fd reuse) can never observe
    /// the previous payload's bytes.
    #[test]
    fn concurrent_release_returns_buffer_exactly_once(
        threads in 2usize..9,
        yield_bits in any::<u64>(),
    ) {
        let pool = Arc::new(BytePool::new(8, 1 << 20));
        let mut buf = pool.take();
        buf.extend_from_slice(SENTINEL);
        let payload = pool.seal(buf);
        prop_assert_eq!(pool.pooled(), 0, "sealed buffer is not in the pool");

        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let p = payload.clone();
                let b = barrier.clone();
                std::thread::spawn(move || {
                    b.wait();
                    if yield_bits >> (i % 64) & 1 == 1 {
                        std::thread::yield_now();
                    }
                    // Every holder still reads the full payload ...
                    assert_eq!(&p[..], SENTINEL);
                    // ... and then releases its reference.
                    drop(p);
                })
            })
            .collect();
        drop(payload);
        for h in handles {
            h.join().unwrap();
        }

        prop_assert_eq!(pool.pooled(), 1, "last drop returned the buffer exactly once");
        let reused = pool.take();
        prop_assert_eq!(pool.pooled(), 0);
        prop_assert!(reused.is_empty(), "recycled buffer must be cleared");
        prop_assert!(reused.capacity() >= SENTINEL.len(), "capacity is recycled");
    }
}

/// While any clone is alive the buffer stays out of the pool: a writer
/// taking a fresh buffer meanwhile can never scribble over the shared
/// bytes (the use-after-recycle scenario under slot/fd reuse).
#[test]
fn live_clone_keeps_buffer_out_of_the_pool() {
    let pool = Arc::new(BytePool::new(8, 1 << 20));
    let mut buf = pool.take();
    buf.extend_from_slice(SENTINEL);
    let payload = pool.seal(buf);
    let survivor = payload.clone();
    drop(payload);
    assert_eq!(survivor.ref_count(), 1);
    assert_eq!(pool.pooled(), 0, "live clone keeps the buffer checked out");

    // A concurrent writer gets a *different* buffer and cannot corrupt
    // the shared payload.
    let mut other = pool.take();
    other.extend_from_slice(b"unrelated scribble");
    assert_eq!(&survivor[..], SENTINEL);
    pool.put(other);

    drop(survivor);
    assert_eq!(pool.pooled(), 2, "returned on last drop, exactly once");
}

util::on_every_transport!(one_payload_fans_out_to_eight_connections);

/// Reactor-level multicast: one sealed payload submitted to 8
/// connections. Each connection drains independently (clients are read
/// in reverse accept order, one at a time), every client receives the
/// identical bytes, one `WriteDone` is retired per submission, and when
/// all drains finish the test's clone is the last reference — the
/// buffer was shared, never copied.
fn one_payload_fans_out_to_eight_connections(transport: util::Transport) {
    const FANOUT: usize = 8;
    // Big enough that kernel socket buffers (or the shaped in-memory
    // link's burst) cannot absorb it all: some connections must go
    // through the reactor's drain path.
    const LEN: usize = 1 << 20;

    let (driver, dialer) = transport.listen();

    let mut clients = Vec::new();
    let mut tokens = Vec::new();
    for _ in 0..FANOUT {
        let (client, token) = util::accept_one(&driver, &dialer);
        clients.push(client);
        tokens.push(token);
    }

    let mut buf = driver.take_write_buf();
    buf.extend((0..LEN).map(|i| (i % 251) as u8));
    let payload = driver.seal_write_buf(buf);
    for &t in &tokens {
        assert!(driver.submit_write_shared(t, &payload));
    }
    assert_eq!(
        driver.counters().writes_shared.load(Ordering::Relaxed),
        FANOUT as u64
    );

    // Drain one client at a time, last accepted first: each
    // connection's buffered remainder must complete without any
    // other client making progress.
    let mut got = vec![0u8; LEN];
    for mut client in clients.into_iter().rev() {
        client.read_exact(&mut got).unwrap();
        assert!(
            got.as_slice() == &payload[..],
            "client received the exact payload ({transport:?})"
        );
    }

    let mut done = 0;
    while done < FANOUT {
        match driver.next_event(Duration::from_secs(2)) {
            Some(DriverEvent::WriteDone(_)) => done += 1,
            Some(DriverEvent::WriteFailed(t)) => panic!("write failed on {t}"),
            other => panic!("expected WriteDone, got {other:?}"),
        }
    }
    assert_eq!(
        payload.ref_count(),
        1,
        "all connection clones released after the drains ({transport:?})"
    );
    driver.stop();
}

/// A subscriber that stops draining is evicted when its output buffer
/// hits `max_pending_out`: the driver counts the eviction, fails the
/// submission (`WriteFailed`) and removes the connection.
#[test]
fn slow_consumer_is_evicted_at_the_buffer_cap() {
    const CAP: usize = 64 * 1024;
    let net = MemNet::new();
    // A slow link: the shaper's initial burst absorbs the first writes,
    // then enqueues go Pending and accumulate against the cap.
    net.set_link_capacity(Some(1_000_000.0));
    let listener = net.listen("slow").unwrap();
    let driver = Arc::new(ConnDriver::with_config(&NetConfig {
        max_pending_out: CAP,
        ..NetConfig::default()
    }));
    driver.spawn_acceptor(Box::new(listener));

    let _client = net.connect("slow").unwrap(); // never reads
    let token = match driver.next_event(Duration::from_secs(2)) {
        Some(DriverEvent::Incoming(t)) => t,
        other => panic!("expected Incoming, got {other:?}"),
    };

    let chunk = vec![7u8; 32 * 1024];
    let mut submits = 0;
    while driver
        .counters()
        .slow_consumer_evicted
        .load(Ordering::Relaxed)
        == 0
    {
        submits += 1;
        assert!(submits <= 100, "cap never tripped after {submits} submits");
        driver.submit_write(token, &chunk);
    }

    assert_eq!(
        driver
            .counters()
            .slow_consumer_evicted
            .load(Ordering::Relaxed),
        1,
        "exactly one eviction for the connection"
    );
    // The eviction failed the overflowing submission and removed the
    // connection — later submissions are refused outright.
    let failed = (0..submits).any(|_| {
        matches!(
            driver.next_event(Duration::from_secs(2)),
            Some(DriverEvent::WriteFailed(t)) if t == token
        )
    });
    assert!(failed, "the overflowing submission must fail");
    assert!(driver.get(token).is_none(), "evicted connection is removed");
    assert!(!driver.submit_write(token, &chunk));
    driver.stop();
}
