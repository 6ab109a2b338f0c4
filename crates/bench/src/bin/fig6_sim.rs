//! Figure 6: simulator-predicted versus observed image-server latency
//! for varying processor counts and offered load (paper §5.1).
//!
//! Method, exactly as the paper's: (1) run the real Flux image server
//! on one "CPU" with path profiling enabled and collect per-node
//! service times, branch probabilities and arrival statistics; (2) feed
//! those observations into the generated discrete-event simulator and
//! predict mean response time for k processors under each load; (3) run
//! the real server with a k-worker thread pool (workers stand in for
//! CPUs — `Compress` is a calibrated timed hold, so k workers behave like
//! k processors even on a host with fewer cores) and compare.
//!
//! Knobs: `FLUX_BENCH_SECS` (seconds per observed point, default 2),
//! `FLUX_BENCH_FULL=1` (adds 16 CPUs and more load points),
//! `FLUX_BENCH_SERVICE_MS` (Compress hold, default 20 ms).

use flux_bench::{env_or, f, Table};
use flux_core::model::ModelParams;
use flux_runtime::RuntimeKind;
use flux_servers::image::{build, CompressMode, ImageConfig, ImageSource};
use flux_sim::{FluxSimulation, SimConfig};
use std::sync::Arc;
use std::time::Duration;

/// Cache sized to hold 12 of the 40 (image, scale) keys, keeping a
/// steady-state miss rate so `Compress` stays on the critical path.
const CACHE_BYTES: usize = 12 * 1024 + 512;

fn image_config(interarrival: Duration, total: u64, service: Duration) -> ImageConfig {
    ImageConfig {
        source: ImageSource::Synthetic {
            interarrival,
            total,
        },
        compress: CompressMode::TimedHold(service),
        images: 5,
        image_size: 32,
        cache_bytes: CACHE_BYTES,
    }
}

/// Runs the real server and reports (mean latency s, throughput /s).
fn observe(cpus: usize, rate: f64, secs: f64, service: Duration) -> (f64, f64) {
    let total = (rate * secs).ceil() as u64;
    let interarrival = Duration::from_secs_f64(1.0 / rate);
    let flux_servers::image::ImageServer { handle, ctx } =
        flux_servers::ServerBuilder::new(image_config(interarrival, total, service))
            .runtime(RuntimeKind::ThreadPool { workers: cpus })
            .spawn();
    let fx = handle.server().clone();
    let t0 = std::time::Instant::now();
    handle.join();
    let elapsed = t0.elapsed().as_secs_f64();
    let served = ctx.served.load(std::sync::atomic::Ordering::Relaxed);
    let mean = fx.stats.latency.mean().as_secs_f64();
    (mean, served as f64 / elapsed)
}

fn main() {
    let secs: f64 = env_or("FLUX_BENCH_SECS", 2.0);
    let full: bool = env_or("FLUX_BENCH_FULL", 0u8) == 1;
    let service_ms: f64 = env_or("FLUX_BENCH_SERVICE_MS", 20.0);
    let service = Duration::from_secs_f64(service_ms / 1e3);
    let cpu_counts: Vec<usize> = if full {
        vec![1, 2, 4, 8, 16]
    } else {
        vec![1, 2, 4, 8]
    };
    let load_fracs: Vec<f64> = if full {
        vec![0.2, 0.4, 0.6, 0.8, 0.95]
    } else {
        vec![0.3, 0.6, 0.9]
    };

    // ---- Step 1: profile a single-CPU run at light load. ------------
    eprintln!("# profiling a 1-CPU run to parameterize the simulator...");
    let calib_rate = 0.25 / service.as_secs_f64(); // ~25% utilization
    let total = (calib_rate * secs.max(2.0) * 2.0).ceil() as u64;
    let (program, reg, _ctx) = build(image_config(
        Duration::from_secs_f64(1.0 / calib_rate),
        total,
        service,
    ));
    let server = Arc::new(
        flux_runtime::FluxServer::with_profiling(program, reg).expect("registry satisfies program"),
    );
    let handle = flux_runtime::start(server.clone(), RuntimeKind::ThreadPool { workers: 1 });
    handle.join();
    let profiler = server.profiler().expect("profiling enabled");
    let observed = profiler.observed_params(server.program());
    let hit_prob = observed.flows[0]
        .arm_probs
        .values()
        .next()
        .map(|v| v[0])
        .unwrap_or(0.0);
    eprintln!(
        "# calibrated: cache-hit probability {:.2}, Compress service {:.1} ms",
        hit_prob,
        observed.flows[0]
            .service_mean_s
            .values()
            .cloned()
            .fold(0.0, f64::max)
            * 1e3
    );

    // The per-flow capacity: effective service = miss_rate * hold.
    let miss = 1.0 - hit_prob;
    let per_cpu_capacity = 1.0 / (miss * service.as_secs_f64());

    // ---- Steps 2 and 3: predict and observe each (cpus, load). ------
    let mut t = Table::new(
        "Figure 6: predicted (simulator) vs observed mean response time (ms)",
        &[
            "cpus",
            "load_req_s",
            "predicted_ms",
            "observed_ms",
            "pred_tput",
            "obs_tput",
        ],
    );
    let mut worst_ratio = 1.0f64;
    for &cpus in &cpu_counts {
        for &frac in &load_fracs {
            let rate = frac * per_cpu_capacity * cpus as f64;
            // Predict.
            let mut params: ModelParams = observed.clone();
            params.flows[0].interarrival_mean_s = 1.0 / rate;
            let sim = FluxSimulation::new(
                server.program(),
                params,
                SimConfig {
                    cpus,
                    duration_s: 120.0,
                    warmup_s: 10.0,
                    seed: 0xF16,
                    exponential_service: false, // timed holds are constant
                    poisson_arrivals: false,    // open-loop fixed rate
                    ..SimConfig::default()
                },
            );
            let predicted = sim.run();
            // Observe.
            let (obs_latency, obs_tput) = observe(cpus, rate, secs, service);
            let p_ms = predicted.mean_latency_s * 1e3;
            let o_ms = obs_latency * 1e3;
            if o_ms > 0.0 && p_ms > 0.0 {
                let ratio = (p_ms / o_ms).max(o_ms / p_ms);
                worst_ratio = worst_ratio.max(ratio);
            }
            eprintln!(
                "# cpus={cpus:<3} rate={:<7} predicted {:>8} ms observed {:>8} ms",
                f(rate),
                f(p_ms),
                f(o_ms)
            );
            t.row(&[
                cpus.to_string(),
                f(rate),
                f(p_ms),
                f(o_ms),
                f(predicted.throughput),
                f(obs_tput),
            ]);
        }
    }
    print!("{}", t.render());
    println!();
    println!(
        "# worst predicted/observed latency ratio: {:.2}x (paper: 'predicted results and \
         actual results match closely')",
        worst_ratio
    );
    println!("# CSV");
    println!("{}", t.to_csv());
}
