//! Every metric the benchmark reports, declared once: `BENCHMARK.json`
//! must list exactly these, and a self-test fails when it does not.

/// A metric a user of the server would see; reported by `--trace 0`.
/// Which way is better and the bound it may worsen by are the driver's
/// and `compare`'s business and live in `BENCHMARK.json` alone.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
    },
];

/// A metric reported by `--trace 1`, without a bound: one layer's
/// (layer = module), or one of the issue's end-to-end figures that the
/// A/A calibration on the reference box could not hold to a bound of
/// 0.10 (part `child`: the timed run's phases in short).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `child`, `replay`, `probe`, `counters` or `loadgen`: which part of the
    /// traced run measures it. A probe of a layer the workload never
    /// enters reads 0.
    pub part: &'static str,
    /// What is timed or which public field is read. A change that
    /// replaces that field needs a paired change here.
    pub reads: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, part: &'static str, reads: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        part,
        reads,
    }
}

pub const PER_LAYER: [PerLayer; 47] = [
    layer("throughput_rps", "1/s", "child", "closed phase: operations a second at C connections, median over 1 s windows"),
    layer("goodput_mib_s", "MiB/s", "child", "closed phase: checked body MiB a second, median over 1 s windows"),
    layer("server_cpu_us_per_req", "us", "child", "closed phase: child utime+stime from /proc/<pid>/stat over operations"),
    layer("latency_p50_us", "us", "child", "open phase at the frozen rate_rps: median from the scheduled send, median over 1 s windows"),
    layer("latency_p99_us", "us", "child", "open phase: p99 from the scheduled send, median over 1 s windows; printed with limit_us"),
    layer("core.compile_us", "us", "probe", "compile() of the workload's program text"),
    layer("core.flat_vertices", "count", "probe", "CompiledProgram.flows[..].flat.verts.len(), summed"),
    layer("net.poller.rearm_ns", "ns", "probe", "Poller::modify on a socketpair end, default backend"),
    layer("net.poller.wait_ready_ns", "ns", "probe", "Poller::wait with one fd already readable, default backend"),
    layer("net.driver.source_poll_us", "us", "replay", "span source_poll: poll_source_batch calls until the request's flow emerges"),
    layer("net.driver.write_drain_us", "us", "replay", "span drain: last step's end until the client holds the last byte"),
    layer("net.driver.accept_us", "us", "probe", "TCP connect until ConnDriver::next_event yields Incoming"),
    layer("net.driver.writes_per_req", "count", "counters", "DriverCounters.writes_submitted per operation"),
    layer("net.driver.would_block_per_req", "count", "counters", "DriverCounters.write_would_block per operation"),
    layer("net.driver.deferred_per_req", "count", "counters", "DriverCounters.writes_deferred per operation"),
    layer("net.driver.shared_per_req", "count", "counters", "DriverCounters.writes_shared per operation"),
    layer("net.driver.evicted", "count", "counters", "DriverCounters.slow_consumer_evicted; must be 0"),
    layer("net.driver.poller_fallbacks", "count", "counters", "DriverCounters.poller_fallbacks; must be 0"),
    layer("net.pool.take_put_ns", "ns", "probe", "BytePool::take then put"),
    layer("net.pool.seal_fanout_ns", "ns", "probe", "BytePool::seal, 16 SharedPayload clones, drop of all"),
    layer("http.message.parse_ns", "ns", "probe", "read_request_buffered on the workload's request bytes"),
    layer("http.message.serialize_ns_per_kib", "ns/KiB", "probe", "Response::ok(..).write_to a reused buffer, per KiB of body"),
    layer("http.content.get_ns_per_kib", "ns/KiB", "probe", "DocRoot::get plus the to_vec ReadFromDisk makes, per KiB"),
    layer("image.jpeg.encode_us", "us", "probe", "scale_eighths then jpeg_encode, mean over the tags"),
    layer("image.cache.check_ns", "ns", "probe", "LfuCache::check hit then release"),
    layer("image.cache.hit_share", "share", "counters", "LfuCache.hits / (hits + misses), as LfuCache::hit_ratio, over the closed loop"),
    layer("runtime.server.interp_ns_per_flow", "ns", "probe", "new_cursor + run_flow on the workload's program with no-op nodes"),
    layer("runtime.server.steps_per_flow", "count", "probe", "FluxServer::step calls one such flow takes"),
    layer("runtime.server.flow_us", "us", "replay", "sum of the request's step spans: the work"),
    layer("runtime.locks.acquire_release_ns", "ns", "probe", "ReentrantRwLock::acquire then release, writer mode, uncontended"),
    layer("runtime.dispatch.handoff_us", "us", "probe", "source return until the sink node runs, default runtime"),
    layer("runtime.dispatch.blocking_handoff_us", "us", "probe", "the same with the sink registered node_blocking"),
    layer("runtime.dispatch.c1_latency_p50_us", "us", "counters", "closed-loop latency at one connection, in-process default server"),
    layer("runtime.dispatch.handoff_total_us", "us", "counters", "c1_latency_p50_us minus the replay's median request: what threads and queues add"),
    layer("runtime.shard.executed_per_req", "count", "counters", "ShardStat.executed, all shards, per operation"),
    layer("runtime.shard.batch_events_per_batch", "count", "counters", "ShardStat.batch_events / ShardStat.batches"),
    layer("runtime.shard.stolen_per_req", "count", "counters", "ShardStat.stolen, all shards, per operation"),
    layer("runtime.shard.max_depth", "count", "counters", "ShardStat.max_depth, highest shard"),
    layer("runtime.flows.errored_share", "share", "counters", "ServerStats.errored / ServerStats.started; must be ~0"),
    layer("servers.pubsub.deliveries_per_publish", "count", "counters", "FanoutStat.deliveries / FanoutStat.publishes"),
    layer("servers.pubsub.coalesced_share", "share", "counters", "FanoutStat.coalesced_publishes / operations"),
    layer("loadgen.lag_p99_us", "us", "loadgen", "child's open phase: actual send minus the later of due time and connection free; the run is invalid when the median lag exceeds 0.2 of the inter-arrival gap"),
    layer("loadgen.cpu_share", "share", "loadgen", "CPU time of the generator's thread over the phase's length, the busier of closed and open; invalid above 0.8"),
    layer("loadgen.rtt_floor_us", "us", "loadgen", "64-byte echo against a plain blocking listener in the child, median"),
    layer("trace.overhead_share", "share", "replay", "the replay's request wall time with spans on, over spans off, minus 1"),
    layer("sim.predicted_rps", "1/s", "counters", "min(C / latency, cpus / demand) from flux-sim fed PathProfiler::observed_params; image_zipf only"),
    layer("sim.gap_share", "share", "counters", "(predicted - measured) / predicted; image_zipf only"),
];

/// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
#[cfg(test)]
pub fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(well_formed(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(!well_formed("a b") && !well_formed("") && !well_formed(".a"));
    }
}
