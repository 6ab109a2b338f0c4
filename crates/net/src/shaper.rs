//! Link shaping: a shared token bucket that bounds aggregate bytes/sec,
//! used to reproduce network-saturation behaviour (Figure 4's BitTorrent
//! throughput plateau) on the in-memory transport.

use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

/// A blocking token bucket: `consume(n)` waits until `n` byte-tokens are
/// available. Shared across every connection of a shaped network, so the
/// bucket's rate is the *link* capacity, not a per-connection cap.
#[derive(Debug)]
pub struct Shaper {
    rate_bytes_per_s: f64,
    burst_bytes: f64,
    state: Mutex<BucketState>,
    cond: Condvar,
}

impl Shaper {
    /// Creates a shaper with the given sustained rate; bursts of up to
    /// 64 KiB (or 10 ms worth of tokens, whichever is larger) pass
    /// without delay.
    pub fn new(rate_bytes_per_s: f64) -> Self {
        let burst_bytes = (rate_bytes_per_s * 0.010).max(64.0 * 1024.0);
        Shaper {
            rate_bytes_per_s,
            burst_bytes,
            state: Mutex::new(BucketState {
                tokens: burst_bytes,
                last_refill: Instant::now(),
            }),
            cond: Condvar::new(),
        }
    }

    fn refill(&self, s: &mut BucketState) {
        let now = Instant::now();
        let dt = now.duration_since(s.last_refill).as_secs_f64();
        s.tokens = (s.tokens + dt * self.rate_bytes_per_s).min(self.burst_bytes);
        s.last_refill = now;
    }

    /// Blocks until `bytes` tokens are consumed.
    pub fn consume(&self, bytes: usize) {
        let mut need = bytes as f64;
        let mut s = self.state.lock();
        loop {
            self.refill(&mut s);
            if s.tokens >= need {
                s.tokens -= need;
                return;
            }
            // Take what is there and wait for the rest.
            need -= s.tokens;
            s.tokens = 0.0;
            let wait_s = need / self.rate_bytes_per_s;
            let timeout = Duration::from_secs_f64(wait_s.min(0.050));
            self.cond.wait_for(&mut s, timeout);
        }
    }

    /// Consumes `bytes` tokens only if all are available right now;
    /// returns `false` (consuming nothing) otherwise. The non-blocking
    /// fast path for enqueued writes: burst-sized traffic passes
    /// synchronously, anything past the bucket is buffered for the
    /// reactor's write drain ([`Shaper::take_up_to`]).
    pub fn try_consume(&self, bytes: usize) -> bool {
        let mut s = self.state.lock();
        self.refill(&mut s);
        if s.tokens >= bytes as f64 {
            s.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Consumes as many whole tokens as are available now, up to `max`,
    /// and returns how many: the reactor's non-blocking drain sends
    /// exactly that many buffered bytes.
    pub fn take_up_to(&self, max: usize) -> usize {
        let mut s = self.state.lock();
        self.refill(&mut s);
        let n = (s.tokens.max(0.0) as usize).min(max);
        s.tokens -= n as f64;
        n
    }

    /// How long until `bytes` tokens (at most a burst) are available:
    /// the deadline a drain that ran the bucket dry waits for.
    pub fn ready_in(&self, bytes: usize) -> Duration {
        let mut s = self.state.lock();
        self.refill(&mut s);
        let short = (bytes as f64).min(self.burst_bytes) - s.tokens;
        Duration::from_secs_f64(short.max(0.0) / self.rate_bytes_per_s)
    }

    /// The configured sustained rate.
    pub fn rate(&self) -> f64 {
        self.rate_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn burst_passes_instantly() {
        let s = Shaper::new(1_000_000.0);
        let t0 = Instant::now();
        s.consume(10_000);
        assert!(t0.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn sustained_rate_enforced() {
        // 1 MB/s, ask for ~200 KB beyond the burst: ~200 ms.
        let s = Shaper::new(1_000_000.0);
        s.consume(64 * 1024); // drain the burst
        let t0 = Instant::now();
        s.consume(200_000);
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.15, "took {dt}s, expected ~0.2s");
        assert!(dt < 0.5, "took {dt}s, expected ~0.2s");
    }

    #[test]
    fn take_up_to_takes_what_the_bucket_holds() {
        let s = Shaper::new(1_000_000.0);
        assert_eq!(s.take_up_to(10_000), 10_000, "within the burst");
        let rest = s.take_up_to(usize::MAX);
        assert!((50_000..=64 * 1024).contains(&rest), "the rest: {rest}");
        assert!(s.take_up_to(usize::MAX) < 1_000, "the bucket is dry");
        let wait = s.ready_in(16 * 1024);
        assert!(
            wait > Duration::from_millis(10) && wait <= Duration::from_millis(17),
            "16 KiB at 1 MB/s: {wait:?}"
        );
    }

    #[test]
    fn shared_across_threads_caps_aggregate() {
        let s = Arc::new(Shaper::new(2_000_000.0));
        s.consume(128 * 1024); // drain burst (burst = 64KiB vs 20ms => 40KB; 64KiB)
        let t0 = Instant::now();
        let mut joins = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    s.consume(10_000);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // 400 KB at 2 MB/s ≈ 200 ms regardless of thread count.
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.12, "aggregate rate enforced, took {dt}s");
    }
}
