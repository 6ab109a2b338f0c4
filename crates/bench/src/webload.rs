//! The web load generator (paper §4.2): "Each simulated client sends
//! five requests over a single HTTP/1.1 TCP connection using
//! keep-alives. When one file is retrieved, the next file is
//! immediately requested. After the five files are retrieved, the
//! client disconnects and reconnects over a new TCP connection. The
//! files requested by each simulated client follow the static portion
//! of the SPECweb benchmark and each file is selected using the Zipf
//! distribution."

use crate::webset::WebSet;
use flux_http::read_response;
use flux_net::MemNet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregated measurements from one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub clients: usize,
    pub duration: Duration,
    pub requests: u64,
    pub errors: u64,
    pub bytes_in: u64,
    /// Mean per-request latency.
    pub mean_latency: Duration,
    /// p95 per-request latency.
    pub p95_latency: Duration,
}

impl LoadReport {
    /// Application-level goodput in megabits per second.
    pub fn mbps(&self) -> f64 {
        (self.bytes_in as f64 * 8.0) / self.duration.as_secs_f64() / 1e6
    }

    /// Requests per second.
    pub fn rps(&self) -> f64 {
        self.requests as f64 / self.duration.as_secs_f64()
    }
}

/// Runs `clients` concurrent SPECweb-style clients against `addr` on
/// `net` for `duration`. Latencies are sampled per request.
pub fn run_web_load(
    net: &Arc<MemNet>,
    addr: &str,
    set: &Arc<WebSet>,
    clients: usize,
    duration: Duration,
    warmup: Duration,
) -> LoadReport {
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let bytes_in = Arc::new(AtomicU64::new(0));
    let latency_ns = Arc::new(AtomicU64::new(0));
    let latencies: Arc<parking_lot::Mutex<Vec<u64>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let measuring = Arc::new(AtomicBool::new(false));

    let mut joins = Vec::with_capacity(clients);
    for cid in 0..clients {
        let net = net.clone();
        let addr = addr.to_string();
        let set = set.clone();
        let stop = stop.clone();
        let requests = requests.clone();
        let errors = errors.clone();
        let bytes_in = bytes_in.clone();
        let latency_ns = latency_ns.clone();
        let latencies = latencies.clone();
        let measuring = measuring.clone();
        joins.push(
            std::thread::Builder::new()
                .name(format!("webload-{cid}"))
                .spawn(move || {
                    let mut rng = StdRng::seed_from_u64(cid as u64 + 1);
                    'reconnect: while !stop.load(Ordering::Relaxed) {
                        let Ok(mut conn) = net.connect(&addr) else {
                            errors.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(5));
                            continue;
                        };
                        // Five keep-alive requests, then reconnect.
                        for i in 0..5 {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            let path = set.sample(&mut rng).to_string();
                            let connection = if i == 4 { "close" } else { "keep-alive" };
                            let t0 = Instant::now();
                            if write!(
                                conn,
                                "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: {connection}\r\n\r\n"
                            )
                            .is_err()
                            {
                                errors.fetch_add(1, Ordering::Relaxed);
                                continue 'reconnect;
                            }
                            match read_response(&mut conn) {
                                Ok((status, body)) => {
                                    let dt = t0.elapsed().as_nanos() as u64;
                                    if measuring.load(Ordering::Relaxed) {
                                        requests.fetch_add(1, Ordering::Relaxed);
                                        bytes_in
                                            .fetch_add(body.len() as u64, Ordering::Relaxed);
                                        latency_ns.fetch_add(dt, Ordering::Relaxed);
                                        let mut l = latencies.lock();
                                        if l.len() < 1_000_000 {
                                            l.push(dt);
                                        }
                                        if status >= 400 {
                                            errors.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                }
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    continue 'reconnect;
                                }
                            }
                        }
                    }
                })
                .expect("spawn load client"),
        );
    }

    std::thread::sleep(warmup);
    measuring.store(true, Ordering::SeqCst);
    let t0 = Instant::now();
    std::thread::sleep(duration);
    measuring.store(false, Ordering::SeqCst);
    let measured = t0.elapsed();
    stop.store(true, Ordering::SeqCst);
    for j in joins {
        let _ = j.join();
    }

    let reqs = requests.load(Ordering::Relaxed);
    let mut lat = latencies.lock().clone();
    let p95 = percentile_ns(&mut lat, 0.95);
    LoadReport {
        clients,
        duration: measured,
        requests: reqs,
        errors: errors.load(Ordering::Relaxed),
        bytes_in: bytes_in.load(Ordering::Relaxed),
        mean_latency: Duration::from_nanos(
            latency_ns
                .load(Ordering::Relaxed)
                .checked_div(reqs)
                .unwrap_or(0),
        ),
        p95_latency: p95,
    }
}

/// Sorts `lat_ns` and returns the `q`-quantile (`0..=1`) as a
/// `Duration`, using the floor of `(len - 1) * q` — the one percentile
/// definition every bench report shares, so p95 columns computed by
/// different harnesses (closed-loop load reports, ablation 9's trickle
/// probes) are comparable.
pub fn percentile_ns(lat_ns: &mut [u64], q: f64) -> Duration {
    if lat_ns.is_empty() {
        return Duration::ZERO;
    }
    lat_ns.sort_unstable();
    let idx = ((lat_ns.len() - 1) as f64 * q) as usize;
    Duration::from_nanos(lat_ns[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_http::DocRoot;

    #[test]
    fn load_generator_drives_a_server() {
        let _ = DocRoot::new(); // substrate sanity
        let set = Arc::new(WebSet::build(256 * 1024));
        let net = MemNet::new();
        let listener = net.listen("w").unwrap();
        let server = flux_baselines::KnotServer::start(Box::new(listener), set.docroot.clone(), 4);
        let report = run_web_load(
            &net,
            "w",
            &set,
            4,
            Duration::from_millis(300),
            Duration::from_millis(50),
        );
        assert!(report.requests > 0, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.mbps() > 0.0);
        assert!(report.mean_latency > Duration::ZERO);
        server.stop();
    }
}
