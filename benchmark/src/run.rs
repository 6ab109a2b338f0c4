//! One run of one workload: the timed phases against the server child
//! (`--trace 0`), or the traced run that yields the per-layer numbers
//! (`--trace 1`).

use crate::adapter::{self, Counters, Hosted, Inline};
use crate::child::Child;
use crate::json::Json;
use crate::loadgen::{self, Endpoint, HttpEndpoint, Pacing, PhaseResult, PubSubEndpoint};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay::replay;
use crate::stats::{median, percentile};
use crate::sys;
use crate::workload::{self, Inputs, ServerInputs, Spec};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per timed run: each spawns a server child and takes it to its
/// first correct response on every connection. `setup_s` is their median;
/// the last child stays and serves the phases.
const SETUPS: usize = 9;
/// Warm-up at full length; shorter runs shorten it with their phases.
const WARMUP: Duration = Duration::from_secs(2);
/// `loadgen.*` validity: the generator is not the bottleneck while its
/// thread uses at most this share of a CPU and its sends are at most this
/// share of an inter-arrival gap late.
const MAX_CPU_SHARE: f64 = 0.8;
const MAX_LAG_SHARE: f64 = 0.2;

pub struct Config {
    pub seed: u64,
    /// Length of the measured part of a run.
    pub seconds: f64,
    /// Where `trace_<workload>.jsonl` goes.
    pub out_dir: std::path::PathBuf,
}

/// What one run reports: the contract's result object, as data.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for a reader; not part of the result object.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Who runs where. The generator's one thread pins itself to the highest
/// allowed CPU while it generates load; the server is left alone, on
/// every CPU the benchmark was started on, as it would run without a
/// benchmark.
struct Placement {
    /// The CPUs this process was started on.
    allowed: Option<u128>,
    generator: Option<u128>,
    /// `C`, the request-issuing connections: one per allowed CPU.
    conns: usize,
}

impl Placement {
    /// Decided once, from the mask the process started with: `pin` is a
    /// method of the value returned here, so no caller can have pinned
    /// the thread before its mask is read, and what a pinned thread's own
    /// mask (or `available_parallelism`) says is never asked.
    fn get() -> &'static Placement {
        static PLACEMENT: std::sync::OnceLock<Placement> = std::sync::OnceLock::new();
        PLACEMENT.get_or_init(|| {
            sys::tighten_timer_slack();
            let allowed = sys::allowed_cpus().filter(|&mask| mask != 0);
            Placement {
                allowed,
                generator: allowed.map(sys::highest_cpu),
                conns: allowed.map_or_else(
                    || std::thread::available_parallelism().map_or(1, |n| n.get()),
                    |mask| mask.count_ones() as usize,
                ),
            }
        })
    }

    /// Moves the calling thread to the generator's CPU.
    fn pin(&self) -> bool {
        self.generator.is_some_and(sys::set_allowed_cpus)
    }

    /// Lets the calling thread run on every allowed CPU again.
    fn release(&self) {
        if let Some(allowed) = self.allowed {
            sys::set_allowed_cpus(allowed);
        }
    }

    /// Runs `start` unpinned, so that the threads and processes it starts
    /// inherit every allowed CPU, then pins the calling thread again.
    fn unpinned<T>(&self, start: impl FnOnce() -> T) -> T {
        self.release();
        let started = start();
        self.pin();
        started
    }

    fn describe(&self, pinned: bool) -> String {
        format!(
            "generator: one thread, {}, sleeping in its waits; server unpinned on {}; C = {} connections; real TCP over loopback",
            match (pinned, self.generator) {
                (true, Some(cpu)) => format!("pinned to CPU {}", cpu.trailing_zeros()),
                _ => "NOT pinned".into(),
            },
            self.allowed
                .map_or("unknown CPUs".into(), |mask| format!("CPU mask {mask:x}")),
            self.conns
        )
    }
}

/// `C`: request-issuing connections, one per CPU the benchmark was
/// started on, each with one request in flight.
pub fn conns() -> usize {
    Placement::get().conns
}

/// The expected JPEGs of `image_zipf`. They depend on the tags alone,
/// not on the seed, and cost half a second of encoding: computed once
/// per process.
fn expected_jpegs(server: &ServerInputs, tags: &[(u32, u32)]) -> Vec<Vec<u8>> {
    static EXPECTED: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    EXPECTED
        .get_or_init(|| adapter::image_expected(server, tags))
        .clone()
}

fn generate(spec: &Spec, seed: u64) -> Inputs {
    workload::generate(spec.name, seed, conns(), Some(&expected_jpegs)).expect("specs name known workloads")
}

/// Connects `C` connections (one per topic for pub/sub inputs) and
/// completes one checked operation on each.
fn connect_and_greet(addr: SocketAddr, inputs: Inputs) -> io::Result<Box<dyn Endpoint>> {
    let mut ep: Box<dyn Endpoint> = match inputs {
        Inputs::Http(http) => Box::new(HttpEndpoint::connect(addr, http, conns())?),
        Inputs::PubSub(topics) => Box::new(PubSubEndpoint::connect(addr, topics)?),
    };
    let conns = ep.conns();
    let first = loadgen::run_phase(ep.as_mut(), Pacing::Count(conns), conns)?;
    match first.first_failure {
        None => Ok(ep),
        Some(why) => Err(io::Error::other(format!("first response: {why}"))),
    }
}

/// The workload's scripted warm pass, then a closed loop for `seeded`.
fn warm_up(ep: &mut dyn Endpoint, seeded: Duration) -> io::Result<()> {
    let conns = ep.conns();
    let scripted = ep.scripted();
    if scripted > 0 {
        loadgen::run_phase(ep, Pacing::Count(scripted), conns)?;
    }
    loadgen::run_phase(ep, Pacing::Closed(seeded), conns)?;
    Ok(())
}

fn note_phase(notes: &mut Vec<String>, name: &str, r: &PhaseResult) {
    notes.push(format!(
        "{name}: {} operations in {} windows of 1 s, per second {:.0?}, p99 us {:.0?}; {} attempted, {} failed{}",
        r.summary.samples,
        r.summary.windows,
        r.summary.ops_by_window,
        r.summary.p99_by_window,
        r.attempted,
        r.failed,
        r.first_failure
            .map(|w| format!(" (first: {w})"))
            .unwrap_or_default()
    ));
}

/// The phases of one workload against a server child, as the issue lays
/// them out: set-up, warm-up, closed, open.
struct ChildRun {
    setup_s: f64,
    closed: PhaseResult,
    open: PhaseResult,
    server_cpu_us_per_req: f64,
    peak_rss_mib: f64,
    lag_p99_us: f64,
    /// The generator thread's CPU share, the busier of the two phases.
    cpu_share: f64,
    rtt_floor_us: f64,
    /// The generator's verdict on itself; `false` makes the run invalid.
    valid: bool,
}

impl ChildRun {
    /// Sets a child up `setups` times, keeps the last, and runs the
    /// phases against it with the calling thread pinned.
    fn measure(
        spec: &Spec,
        seed: u64,
        setups: usize,
        phase: Duration,
        notes: &mut Vec<String>,
    ) -> io::Result<ChildRun> {
        let placement = Placement::get();
        let pinned = placement.pin();
        notes.push(placement.describe(pinned));
        let mut setup_s = Vec::with_capacity(setups);
        let mut kept: Option<(Child, Box<dyn Endpoint>)> = None;
        for _ in 0..setups {
            // A child that has only timed a set-up is thrown away.
            if let Some((child, ep)) = kept.take() {
                drop(ep);
                child.discard();
            }
            // The generator's own preparation (inputs, expected images)
            // is not the server's set-up and is done before the clock
            // starts.
            let inputs = generate(spec, seed);
            let t0 = Instant::now();
            let child = placement.unpinned(|| Child::spawn(spec.name, seed))?;
            let ep = connect_and_greet(child.addr, inputs)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            kept = Some((child, ep));
        }
        let (child, mut ep) = kept.expect("at least one set-up");
        notes.push(format!("setup_s of {setups} set-ups: {setup_s:.4?}"));
        let conns = ep.conns();
        warm_up(ep.as_mut(), WARMUP.min(phase))?;

        let cpu_before = sys::process_cpu_time(child.pid())?;
        let closed = loadgen::run_phase(ep.as_mut(), Pacing::Closed(phase), conns)?;
        let cpu = sys::process_cpu_time(child.pid())? - cpu_before;
        note_phase(notes, &format!("closed at {conns} connections"), &closed);
        let mut open = loadgen::run_phase(
            ep.as_mut(),
            Pacing::Open {
                rate_rps: spec.rate_rps,
                duration: phase,
            },
            conns,
        )?;
        note_phase(notes, &format!("open at {} rps", spec.rate_rps), &open);
        let p99 = open.summary.p99_us;
        notes.push(format!(
            "latency_p99_us {p99:.0} {} limit_us {}: {}",
            if p99 <= spec.limit_us { "<=" } else { ">" },
            spec.limit_us,
            if p99 <= spec.limit_us { "pass" } else { "FAIL" }
        ));

        let lag_p99_us = percentile(&mut open.lag_us, 0.99);
        let lag_p50_us = percentile(&mut open.lag_us, 0.50);
        let cpu_share = closed.cpu_share.max(open.cpu_share);
        let gap_us = 1e6 / spec.rate_rps;
        let valid = lag_p50_us <= MAX_LAG_SHARE * gap_us && cpu_share <= MAX_CPU_SHARE;
        let rtt_floor_us = loadgen::rtt_floor_us(child.echo_addr, 500)?;
        notes.push(format!(
            "loadgen: lag p50 {lag_p50_us:.1} us, p99 {lag_p99_us:.1} us of a {gap_us:.0} us gap, cpu share {cpu_share:.2}: {}; rtt floor {rtt_floor_us:.1} us (echo, plain blocking listener in the child)",
            if valid {
                "valid"
            } else {
                "INVALID (the generator may be the bottleneck)"
            }
        ));
        let peak_rss_mib = sys::process_peak_rss_mib(child.pid())?;
        drop(ep);
        child.stop()?;
        Ok(ChildRun {
            setup_s: median(&setup_s),
            server_cpu_us_per_req: cpu.as_secs_f64() * 1e6 / (closed.attempted - closed.failed).max(1) as f64,
            closed,
            open,
            peak_rss_mib,
            lag_p99_us,
            cpu_share,
            rtt_floor_us,
            valid,
        })
    }

    fn attempted(&self) -> u64 {
        self.closed.attempted + self.open.attempted
    }

    fn failed(&self) -> u64 {
        self.closed.failed + self.open.failed
    }

    /// Every figure these phases give, under the name a metric list may
    /// declare it by.
    fn value(&self, name: &str) -> Option<f64> {
        Some(match name {
            "setup_s" => self.setup_s,
            "throughput_rps" => self.closed.summary.ops_per_s,
            "goodput_mib_s" => self.closed.summary.mib_per_s,
            "server_cpu_us_per_req" => self.server_cpu_us_per_req,
            "latency_p50_us" => self.open.summary.p50_us,
            "latency_p99_us" => self.open.summary.p99_us,
            "peak_rss_mib" => self.peak_rss_mib,
            "loadgen.lag_p99_us" => self.lag_p99_us,
            "loadgen.cpu_share" => self.cpu_share,
            "loadgen.rtt_floor_us" => self.rtt_floor_us,
            _ => return None,
        })
    }
}

/// `--trace 0`: set-up, warm-up, closed phase, open phase, against the
/// default server in a child process. Tracing is off throughout.
pub fn timed(spec: &Spec, cfg: &Config) -> io::Result<Outcome> {
    let mut notes = Vec::new();
    let phase = Duration::from_secs_f64(cfg.seconds / 2.0);
    let run = ChildRun::measure(spec, cfg.seed, SETUPS, phase, &mut notes)?;
    Placement::get().release();
    // The figures that carry no bound are per-layer metrics of the traced
    // run; a reader of a timed run wants them all the same.
    for name in [
        "throughput_rps",
        "goodput_mib_s",
        "server_cpu_us_per_req",
        "latency_p50_us",
        "latency_p99_us",
    ] {
        notes.push(format!(
            "{name} {:.3} (no bound)",
            run.value(name).unwrap_or(f64::NAN)
        ));
    }
    Ok(Outcome {
        correct: run.failed() == 0 && run.valid,
        attempted: run.attempted(),
        failed: run.failed(),
        metrics: END_TO_END
            .iter()
            .map(|m| {
                let value = run
                    .value(m.name)
                    .unwrap_or_else(|| panic!("no value for declared metric {}", m.name));
                (m.name, value, m.unit)
            })
            .collect(),
        notes,
    })
}

fn per(after: u64, before: u64, ops: f64) -> f64 {
    (after - before) as f64 / ops
}

/// `--trace 1`: replay, probes, counters, and the phases of the timed
/// run in short for the generator's own validity numbers. Nothing here
/// feeds an end-to-end metric.
pub fn traced(spec: &Spec, cfg: &Config, header: &Json) -> io::Result<Outcome> {
    let placement = Placement::get();
    // The replay and the probes belong to neither side: unpinned.
    placement.release();
    let mut notes = Vec::new();
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let slice = |share: f64| Duration::from_secs_f64(cfg.seconds * share);

    // Replay, spans on and then off, each on a fresh inline runtime and
    // the same request stream.
    let mut walls_us: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (i, spans) in [true, false].into_iter().enumerate() {
        let mut inputs = generate(spec, cfg.seed);
        let (mut inline, addr) = Inline::build(inputs.server())?;
        let replayed = replay(
            &mut inline,
            addr,
            &mut inputs,
            slice(if spans { 0.25 } else { 0.125 }),
            spans,
        );
        inline.stop();
        let replayed = replayed?;
        attempted += replayed.requests;
        failed += replayed.failed;
        if let Some(why) = replayed.first_failure {
            notes.push(format!("replay: a request failed: {why}"));
        }
        if spans {
            let s = replayed.trace.summarize();
            notes.push(format!(
                "replay: {} requests of mean {:.1} us (median {:.1} us), spans cover {:.1}% of request wall time",
                s.requests,
                s.request_mean_us,
                median(&replayed.walls_us),
                s.span_sum_share * 100.0
            ));
            values.extend([
                ("net.driver.source_poll_us", s.source_poll_us),
                ("net.driver.write_drain_us", s.drain_us),
                ("runtime.server.flow_us", s.flow_us),
            ]);
            let path = cfg.out_dir.join(format!("trace_{}.jsonl", spec.name));
            replayed.trace.write_jsonl(&path, header.clone())?;
            notes.push(format!("replay: spans written to {}", path.display()));
        }
        walls_us[i] = replayed.walls_us;
    }
    // Both replays served the same requests in the same order from a
    // cold start: over the prefix both completed, the work is identical.
    let shared = walls_us[0].len().min(walls_us[1].len());
    let total = |w: &[f64]| w[..shared].iter().sum::<f64>().max(1e-9);
    values.push((
        "trace.overhead_share",
        total(&walls_us[0]) / total(&walls_us[1]) - 1.0,
    ));
    let replay_p50_us = median(&walls_us[0]);

    // Probes, with the workload's own inputs.
    let inputs = generate(spec, cfg.seed);
    let server = inputs.server();
    let request = match &inputs {
        Inputs::Http(http) => Some(http.request_for(0).wire),
        Inputs::PubSub(_) => None,
    };
    values.extend(adapter::probes(&server, request.as_deref())?);

    // Counters: the default server in this process, so its public
    // counters can be read around a closed loop. Its threads start
    // unpinned; the generator then moves to its own CPU.
    let profiled = matches!(server, ServerInputs::Image { .. });
    let hosted = Hosted::spawn(server, profiled)?;
    placement.pin();
    let counted = counters(cfg, &hosted, inputs, replay_p50_us);
    hosted.stop();
    let counted = counted?;
    values.extend(counted.values);
    attempted += counted.attempted;
    failed += counted.failed;

    // The timed run's phases in short, against a server child: the
    // generator's own numbers, and the figures of the issue's end-to-end
    // table that carry no bound.
    let run = ChildRun::measure(spec, cfg.seed, 1, slice(0.125), &mut notes)?;
    placement.release();
    attempted += run.attempted();
    failed += run.failed();

    let value_of = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .or_else(|| run.value(name))
    };
    let clean = ["net.driver.evicted", "net.driver.poller_fallbacks"]
        .iter()
        .all(|m| value_of(m) == Some(0.0));
    if !clean {
        notes.push("INVALID: the driver evicted a consumer or fell back to another poller".into());
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = value_of(m.name).unwrap_or_else(|| panic!("no value for declared metric {}", m.name));
            (m.name, value, m.unit)
        })
        .collect();
    Ok(Outcome {
        correct: failed == 0 && clean && run.valid,
        attempted,
        failed,
        metrics,
        notes,
    })
}

struct Counted {
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

/// The counters part: a closed loop at `C` connections for a quarter of
/// the run, then at one for an eighth, against the in-process default
/// server.
fn counters(cfg: &Config, hosted: &Hosted, inputs: Inputs, replay_request_us: f64) -> io::Result<Counted> {
    let at_c = Duration::from_secs_f64(cfg.seconds / 4.0);
    let at_one = Duration::from_secs_f64(cfg.seconds / 8.0);
    let mut ep = connect_and_greet(hosted.addr(), inputs)?;
    let conns = ep.conns();
    warm_up(ep.as_mut(), WARMUP.min(at_one))?;
    let before: Counters = hosted.counters();
    let closed = loadgen::run_phase(ep.as_mut(), Pacing::Closed(at_c), conns)?;
    let after: Counters = hosted.counters();
    let one = loadgen::run_phase(ep.as_mut(), Pacing::Closed(at_one), 1)?;
    drop(ep);
    let ops = (closed.attempted - closed.failed).max(1) as f64;
    let measured_rps = ops / closed.elapsed.as_secs_f64();
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let lookups = (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);
    let mut values = vec![
        (
            "net.driver.writes_per_req",
            per(after.writes_submitted, before.writes_submitted, ops),
        ),
        (
            "net.driver.would_block_per_req",
            per(after.write_would_block, before.write_would_block, ops),
        ),
        (
            "net.driver.deferred_per_req",
            per(after.writes_deferred, before.writes_deferred, ops),
        ),
        (
            "net.driver.shared_per_req",
            per(after.writes_shared, before.writes_shared, ops),
        ),
        ("net.driver.evicted", after.evicted as f64),
        ("net.driver.poller_fallbacks", after.poller_fallbacks as f64),
        (
            "runtime.shard.executed_per_req",
            per(after.executed, before.executed, ops),
        ),
        (
            "runtime.shard.batch_events_per_batch",
            share(
                after.batch_events - before.batch_events,
                after.batches - before.batches,
            ),
        ),
        (
            "runtime.shard.stolen_per_req",
            per(after.stolen, before.stolen, ops),
        ),
        ("runtime.shard.max_depth", after.max_depth as f64),
        (
            "runtime.flows.errored_share",
            share(after.errored - before.errored, after.started - before.started),
        ),
        (
            "servers.pubsub.deliveries_per_publish",
            share(
                after.deliveries - before.deliveries,
                after.publishes - before.publishes,
            ),
        ),
        (
            "servers.pubsub.coalesced_share",
            per(after.coalesced, before.coalesced, ops),
        ),
        (
            "image.cache.hit_share",
            share(after.cache_hits - before.cache_hits, lookups),
        ),
        ("runtime.dispatch.c1_latency_p50_us", one.summary.p50_us),
        (
            "runtime.dispatch.handoff_total_us",
            one.summary.p50_us - replay_request_us,
        ),
    ];
    // Paper 5.1 on the profiled image server; 0 on the other workloads.
    let predicted = hosted.simulated_rps(conns, conns, cfg.seed).unwrap_or(0.0);
    values.push(("sim.predicted_rps", predicted));
    values.push((
        "sim.gap_share",
        if predicted > 0.0 {
            (predicted - measured_rps) / predicted
        } else {
            0.0
        },
    ));
    Ok(Counted {
        values,
        attempted: closed.attempted + one.attempted,
        failed: closed.failed + one.failed,
    })
}

/// What every output file records about where and how it was made.
pub fn header(cfg: &Config, manifest_dir: &Path) -> Json {
    let git_rev = std::fs::read_to_string(manifest_dir.join("../.git/HEAD"))
        .ok()
        .map(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(manifest_dir.join("../.git").join(r))
                .map_or_else(|_| r.to_string(), |rev| rev.trim().to_string()),
            None => head.trim().to_string(),
        })
        .unwrap_or_else(|| "not a git checkout".into());
    let s = cfg.seconds;
    Json::obj([
        ("nproc", Json::Num(conns() as f64)),
        ("git_rev", Json::str(git_rev)),
        ("kernel", Json::str(sys::kernel_release())),
        ("backend", Json::str(adapter::default_backend_label())),
        ("transport", Json::str("real TCP over loopback")),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(s)),
        (
            "phases",
            Json::str(format!(
                "trace 0: {SETUPS} set-ups, warm-up {}s, closed {}s, open {}s; trace 1: replay {}s + {}s without spans, counters {}s + {}s at one connection, set-up, warm-up, closed {}s, open {}s",
                WARMUP.as_secs_f64().min(s / 2.0),
                s / 2.0,
                s / 2.0,
                s / 4.0,
                s / 8.0,
                s / 4.0,
                s / 8.0,
                s / 8.0,
                s / 8.0
            )),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `C` is the number of CPUs the process was started on, and stays
    /// so once the generator's thread has pinned itself to one of them:
    /// both endpoints still open `C` request-issuing connections.
    #[test]
    fn a_pinned_generator_still_opens_c_connections() {
        let started_on = sys::allowed_cpus().expect("Linux reports the mask").count_ones() as usize;
        let placement = Placement::get();
        assert!(placement.pin());
        assert_eq!(sys::allowed_cpus().map(u128::count_ones), Some(1));
        assert_eq!(conns(), started_on);
        for name in ["web_small", "pubsub_fanout"] {
            let inputs = generate(workload::spec(name).unwrap(), 1);
            let hosted = Hosted::spawn(inputs.server(), false).unwrap();
            let ep = connect_and_greet(hosted.addr(), inputs).unwrap();
            assert_eq!(ep.conns(), started_on, "{name}");
            drop(ep);
            hosted.stop();
        }
        placement.release();
    }
}
