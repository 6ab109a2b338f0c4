//! Figure 3: web-server throughput (Mb/s) and mean latency versus
//! concurrent clients, comparing:
//!
//! * `flux-threadpool` — the Flux web server on the thread-pool runtime
//! * `flux-event`      — the Flux web server on the event-driven runtime
//!   (paper configuration: one dispatcher shard)
//! * `flux-event-s2`, `flux-event-s4` — the same server with 2 and 4
//!   dispatcher shards (session-affine routing)
//! * `flux-staged`     — the Flux web server on the SEDA-style staged
//!   runtime (our §3.2.3 extension; compare with hand-written haboob)
//! * `flux-thread`     — the naive one-thread-per-flow runtime
//! * `knot`            — the hand-written threaded baseline (Capriccio's knot)
//! * `haboob`          — the mini-SEDA staged baseline (SEDA's Haboob)
//!
//! Workload per §4.2: SPECweb99-like static set (~32 MB, Zipf), five
//! keep-alive requests per connection, then reconnect. Expected shape:
//! knot ≈ flux-threadpool ≈ flux-event > haboob >> flux-thread at high
//! client counts, with the event runtime showing its small-client
//! latency "hiccup" from simulated async I/O.
//!
//! Environment knobs: `FLUX_BENCH_SECS` (seconds per point, default 2),
//! `FLUX_BENCH_FULL=1` (more client points, 32 MB set).

use flux_baselines::{KnotServer, SedaConfig, SedaServer};
use flux_bench::{env_or, f, ms, run_web_load, Table, WebSet};
use flux_net::MemNet;
use flux_runtime::RuntimeKind;
use std::sync::Arc;
use std::time::Duration;

struct Point {
    server: &'static str,
    clients: usize,
    mbps: f64,
    rps: f64,
    mean_ms: f64,
    p95_ms: f64,
}

fn main() {
    let secs: f64 = env_or("FLUX_BENCH_SECS", 2.0);
    let full: bool = env_or("FLUX_BENCH_FULL", 0u8) == 1;
    let set_bytes = if full { 32 << 20 } else { 4 << 20 };
    let clients: Vec<usize> = if full {
        vec![4, 8, 16, 32, 64, 128, 256, 512]
    } else {
        vec![4, 16, 64, 128]
    };
    let workers = env_or("FLUX_BENCH_WORKERS", 8usize);
    let duration = Duration::from_secs_f64(secs);
    let warmup = Duration::from_secs_f64((secs / 4.0).clamp(0.25, 5.0));

    eprintln!("# building {}-byte working set...", set_bytes);
    let set = Arc::new(WebSet::build(set_bytes));
    eprintln!(
        "# set: {} files, {} bytes; {} s/point, clients {:?}",
        set.len(),
        set.total_bytes(),
        secs,
        clients
    );

    let mut points: Vec<Point> = Vec::new();
    for &n in &clients {
        for server in [
            "knot",
            "haboob",
            "flux-threadpool",
            "flux-event",
            "flux-event-s2",
            "flux-event-s4",
            "flux-staged",
            "flux-thread",
        ] {
            // The naive runtime is painfully slow at high load; skip the
            // biggest points unless FULL, as the paper's graph also
            // truncates it.
            if server == "flux-thread" && n > 128 && !full {
                continue;
            }
            let net = MemNet::new();
            let listener = net.listen("web").unwrap();
            let report;
            match server {
                "knot" => {
                    let s = KnotServer::start(Box::new(listener), set.docroot.clone(), workers);
                    report = run_web_load(&net, "web", &set, n, duration, warmup);
                    s.stop();
                }
                "haboob" => {
                    let s = SedaServer::start(
                        Box::new(listener),
                        set.docroot.clone(),
                        SedaConfig {
                            parse_threads: workers / 4 + 1,
                            handle_threads: workers / 2 + 1,
                            send_threads: workers / 4 + 1,
                            queue_depth: 1024,
                        },
                    );
                    report = run_web_load(&net, "web", &set, n, duration, warmup);
                    s.stop();
                }
                _ => {
                    let kind = match server {
                        "flux-threadpool" => RuntimeKind::ThreadPool { workers },
                        // The shard sweep of the event runtime: the
                        // paper's single dispatcher versus 2- and 4-core
                        // sharded dispatch.
                        "flux-event" => RuntimeKind::event_driven_sharded(1, workers),
                        "flux-event-s2" => RuntimeKind::event_driven_sharded(2, workers),
                        "flux-event-s4" => RuntimeKind::event_driven_sharded(4, workers),
                        "flux-staged" => RuntimeKind::Staged {
                            stage_workers: workers / 4 + 1,
                        },
                        _ => RuntimeKind::ThreadPerFlow,
                    };
                    let s = flux_servers::ServerBuilder::new(flux_servers::web::WebSpec::new(
                        Box::new(listener),
                        set.docroot.clone(),
                    ))
                    .runtime(kind)
                    .spawn();
                    report = run_web_load(&net, "web", &set, n, duration, warmup);
                    flux_servers::web::stop(s);
                }
            }
            eprintln!(
                "# {server:>15} clients={n:<4} {:>8} req/s {:>8} Mb/s mean {} ms",
                f(report.rps()),
                f(report.mbps()),
                ms(report.mean_latency)
            );
            points.push(Point {
                server,
                clients: n,
                mbps: report.mbps(),
                rps: report.rps(),
                mean_ms: report.mean_latency.as_secs_f64() * 1e3,
                p95_ms: report.p95_latency.as_secs_f64() * 1e3,
            });
        }
    }

    let mut tput = Table::new(
        "Figure 3 (left): throughput (Mb/s) vs concurrent clients",
        &["server", "clients", "Mb/s", "req/s"],
    );
    let mut lat = Table::new(
        "Figure 3 (right): latency (ms) vs concurrent clients",
        &["server", "clients", "mean_ms", "p95_ms"],
    );
    for p in &points {
        tput.row(&[p.server.into(), p.clients.to_string(), f(p.mbps), f(p.rps)]);
        lat.row(&[
            p.server.into(),
            p.clients.to_string(),
            f(p.mean_ms),
            f(p.p95_ms),
        ]);
    }
    print!("{}", tput.render());
    println!();
    print!("{}", lat.render());
    println!();
    println!("# CSV");
    println!("{}", tput.to_csv());
}
