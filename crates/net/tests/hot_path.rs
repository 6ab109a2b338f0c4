//! Property tests for the slab-token hot path: random interleavings of
//! register/deregister/fd-reuse must never deliver an event under a
//! stale generation, on any transport (TCP on either poller backend,
//! and the in-memory transport).
//!
//! This generalizes the deterministic fd-reuse regression tests (in
//! `conformance.rs` and the driver's unit tests): every removed token
//! was silent while live, so *any* later `Readable` for it would be a
//! stale delivery — a watch surviving deregistration, or a
//! kernel-reused fd observed under the old token.

mod util;

use flux_net::{ConnDriver, DriverEvent, PollerBackend, Token};
use proptest::prelude::*;
use std::collections::HashSet;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;
use util::Transport;

/// Accepts the next `Incoming` event, skipping write completions.
fn next_incoming(driver: &Arc<ConnDriver>) -> Token {
    loop {
        match driver.next_event(Duration::from_secs(2)) {
            Some(DriverEvent::Incoming(t)) => return t,
            Some(DriverEvent::WriteDone(_)) | Some(DriverEvent::WriteFailed(_)) => continue,
            other => panic!("expected Incoming, got {other:?}"),
        }
    }
}

/// Interleave register (arm) / deregister (remove) / fd reuse under a
/// random schedule: tokens removed while silent must never fire, the
/// live connection must always fire, and stale handles must resolve to
/// nothing forever.
fn stale_generation_never_delivers(
    transport: Transport,
    rounds: usize,
    churn: usize,
    arm_bits: u64,
) {
    let (driver, dialer) = transport.listen();

    let mut dead: HashSet<Token> = HashSet::new();
    let mut bit = 0u32;
    for round in 0..rounds {
        // Churn: victims are registered, possibly armed, then
        // removed while still connected and silent — their fds
        // close right after, free for the kernel to reuse.
        let mut victims = Vec::new();
        let mut victim_tokens = Vec::new();
        for _ in 0..churn {
            victims.push(dialer.connect());
            victim_tokens.push(next_incoming(&driver));
        }
        for &t in &victim_tokens {
            if arm_bits >> (bit % 64) & 1 == 1 {
                driver.arm(t);
            }
            bit += 1;
            prop_assert!(driver.remove(t).is_some());
            dead.insert(t);
            prop_assert!(driver.get(t).is_none());
        }
        drop(victims); // fds close; reuse becomes possible

        // A fresh connection (very likely on a reused fd) must
        // fire under its own token only.
        let mut fresh_client = dialer.connect();
        let fresh = next_incoming(&driver);
        prop_assert!(!dead.contains(&fresh), "token reissued");
        driver.arm(fresh);
        fresh_client.write_all(b"fresh").unwrap();
        let mut saw_fresh = false;
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !saw_fresh && std::time::Instant::now() < deadline {
            match driver.next_event(Duration::from_millis(200)) {
                Some(DriverEvent::Readable(t)) => {
                    prop_assert!(
                        !dead.contains(&t),
                        "stale Readable({}) in round {} ({:?})",
                        t,
                        round,
                        transport
                    );
                    if t == fresh {
                        saw_fresh = true;
                    }
                }
                Some(_) | None => continue,
            }
        }
        prop_assert!(
            saw_fresh,
            "live connection must fire (round {}, {:?})",
            round,
            transport
        );
        prop_assert!(driver.remove(fresh).is_some());
        dead.insert(fresh);
    }
    // Every retired token still resolves to nothing.
    for &t in &dead {
        prop_assert!(driver.get(t).is_none());
    }
    driver.stop();
}

/// One property per transport, so the output names each.
mod stale_generation_never_delivers_under_random_interleaving {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn tcp_poll(rounds in 2usize..5, churn in 1usize..4, arm_bits in any::<u64>()) {
            stale_generation_never_delivers(Transport::Tcp(PollerBackend::Poll), rounds, churn, arm_bits);
        }

        #[test]
        #[cfg(target_os = "linux")]
        fn tcp_epoll(rounds in 2usize..5, churn in 1usize..4, arm_bits in any::<u64>()) {
            stale_generation_never_delivers(Transport::Tcp(PollerBackend::Epoll), rounds, churn, arm_bits);
        }

        #[test]
        fn mem(rounds in 2usize..5, churn in 1usize..4, arm_bits in any::<u64>()) {
            stale_generation_never_delivers(Transport::Mem, rounds, churn, arm_bits);
        }
    }
}
