//! The only file of the benchmark that names a repository API.
//!
//! Everything else speaks in plain data ([`ServerInputs`], byte
//! slices, [`Counters`], spans). A change to the repository's public
//! surface is therefore a change to this file alone, and the file
//! names none of the parallel implementations the road map lists for
//! deletion: servers are built as `ServerBuilder::new(spec).spawn()`
//! with nothing else set, and the readiness backend is whatever
//! `NetConfig::default()` picks.

use crate::trace::SpanSink;
use crate::workload::ServerInputs;
use flux_core::{compile, CompiledProgram, ConstraintMode, ConstraintScope};
use flux_http::{read_request_buffered, DocRoot, Response};
use flux_image::{jpeg_encode, Image, LfuCache};
use flux_net::{
    create_poller, BytePool, ConnDriver, DriverEvent, Interest, Listener, NetConfig, TcpAcceptor,
};
use flux_runtime::{
    FlowCursor, FluxServer, LockManager, LockWait, NodeOutcome, NodeRegistry, ServerHandle, SourceOutcome,
    Step,
};
use flux_servers::image::{CompressMode, ImageConfig, ImageFlow, ImageServer, ImageSource};
use flux_servers::pubsub::{PubSubFlow, PubSubServer, PubSubSpec};
use flux_servers::web::{WebFlow, WebServer, WebSpec};
use flux_servers::{ServerBuilder, ServerSpec};
use flux_sim::{FluxSimulation, SimConfig};
use std::hint::black_box;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Name of the readiness backend a default server runs on.
pub fn default_backend_label() -> &'static str {
    NetConfig::default().backend.label()
}

fn listen() -> io::Result<(Box<dyn Listener>, SocketAddr)> {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0")?;
    let addr = acceptor
        .local_addr()
        .parse()
        .map_err(|_| io::Error::other("listener has no socket address"))?;
    Ok((Box::new(acceptor), addr))
}

fn web_spec(files: Vec<(String, Vec<u8>)>, listener: Box<dyn Listener>) -> WebSpec {
    let mut root = DocRoot::new();
    for (path, body) in files {
        root.insert(&path, body);
    }
    WebSpec::new(listener, root)
}

fn image_spec(inputs: &ServerInputs, source: ImageSource) -> ImageConfig {
    let &ServerInputs::Image {
        images,
        width,
        quality,
        cache_bytes,
    } = inputs
    else {
        unreachable!("image_spec is given image inputs")
    };
    ImageConfig {
        source,
        compress: CompressMode::Real { quality },
        images,
        image_size: width,
        cache_bytes,
    }
}

/// The image server's own source images: a spec with a synthetic source
/// builds the same "disk" as a network one and opens no socket.
fn image_disk(inputs: &ServerInputs) -> Vec<Image> {
    let source = ImageSource::Synthetic {
        interarrival: Duration::ZERO,
        total: 0,
    };
    let (_, _, ctx) = image_spec(inputs, source).build(&NetConfig::default());
    ctx.disk.clone()
}

/// What a correct image server returns for each `(image, scale)` tag:
/// `jpeg_encode(scale_eighths(..))` of the server's own source images.
pub fn image_expected(inputs: &ServerInputs, tags: &[(u32, u32)]) -> Vec<Vec<u8>> {
    let &ServerInputs::Image { quality, .. } = inputs else {
        return Vec::new();
    };
    let disk = image_disk(inputs);
    tags.iter()
        .map(|&(image, scale)| jpeg_encode(&disk[image as usize].scale_eighths(scale), quality))
        .collect()
}

/// Cumulative public counters of a running server, read before and
/// after a phase; the benchmark reports differences per operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub writes_submitted: u64,
    pub write_would_block: u64,
    pub writes_deferred: u64,
    pub writes_shared: u64,
    pub evicted: u64,
    pub poller_fallbacks: u64,
    pub executed: u64,
    pub stolen: u64,
    pub batches: u64,
    pub batch_events: u64,
    pub max_depth: u64,
    pub started: u64,
    pub errored: u64,
    pub publishes: u64,
    pub deliveries: u64,
    pub coalesced: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

fn read_counters<P: Send + 'static>(handle: &ServerHandle<P>, driver: Option<&ConnDriver>) -> Counters {
    let mut c = Counters::default();
    if let Some(driver) = driver {
        let d = driver.counters();
        c.writes_submitted = d.writes_submitted.load(Relaxed);
        c.write_would_block = d.write_would_block.load(Relaxed);
        c.writes_deferred = d.writes_deferred.load(Relaxed);
        c.writes_shared = d.writes_shared.load(Relaxed);
        c.evicted = d.slow_consumer_evicted.load(Relaxed);
        c.poller_fallbacks = d.poller_fallbacks.load(Relaxed);
    }
    let stats = &handle.server().stats;
    for shard in stats.shard_stats().iter().flat_map(|s| s.iter()) {
        c.executed += shard.executed.load(Relaxed);
        c.stolen += shard.stolen.load(Relaxed);
        c.batches += shard.batches.load(Relaxed);
        c.batch_events += shard.batch_events.load(Relaxed);
        c.max_depth = c.max_depth.max(shard.max_depth.load(Relaxed));
    }
    c.started = stats.started.load(Relaxed);
    c.errored = stats.errored.load(Relaxed);
    c.publishes = stats.fanout.publishes.load(Relaxed);
    c.deliveries = stats.fanout.deliveries.load(Relaxed);
    c.coalesced = stats.fanout.coalesced_publishes.load(Relaxed);
    c
}

enum Running {
    Web(WebServer),
    Image(ImageServer),
    PubSub(PubSubServer),
}

/// A default server of one workload on loopback TCP, in this process.
/// The server child is this and nothing more.
pub struct Hosted {
    addr: SocketAddr,
    running: Running,
}

impl Hosted {
    /// `ServerBuilder::new(spec).spawn()`: every default. `profile`
    /// turns path profiling on, for the simulator's inputs; nothing
    /// else is ever set.
    pub fn spawn(inputs: ServerInputs, profile: bool) -> io::Result<Hosted> {
        fn start<S: ServerSpec>(spec: S, profile: bool) -> flux_servers::RunningServer<S::Flow, S::Ctx> {
            let builder = ServerBuilder::new(spec);
            if profile {
                builder.profile(true).spawn()
            } else {
                builder.spawn()
            }
        }
        let (listener, addr) = listen()?;
        let running = match inputs {
            ServerInputs::Web { files } => Running::Web(start(web_spec(files, listener), profile)),
            ServerInputs::Image { .. } => {
                Running::Image(start(image_spec(&inputs, ImageSource::Net(listener)), profile))
            }
            ServerInputs::PubSub => Running::PubSub(start(PubSubSpec::new(listener), profile)),
        };
        Ok(Hosted { addr, running })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn counters(&self) -> Counters {
        match &self.running {
            Running::Web(s) => read_counters(&s.handle, Some(&s.ctx.driver)),
            Running::Image(s) => {
                let mut c = read_counters(&s.handle, s.ctx.driver.as_deref());
                let cache = s.ctx.cache.lock();
                c.cache_hits = cache.hits;
                c.cache_misses = cache.misses;
                c
            }
            Running::PubSub(s) => read_counters(&s.handle, Some(&s.ctx.driver)),
        }
    }

    /// The paper's §5.1 loop closed on a profiled image server: the
    /// observed node times and branch shares go to the simulator, with
    /// arrivals spaced far apart so that no flow queues. Its mean flow
    /// latency `R` and processor demand per flow `D` give the bounds of a
    /// closed queueing network on the throughput of `clients` clients on
    /// `cpus` processors: no more than `clients / R`, and no more than
    /// `cpus / D`. `None` unless this is a profiled image server.
    pub fn simulated_rps(&self, clients: usize, cpus: usize, seed: u64) -> Option<f64> {
        let Running::Image(s) = &self.running else {
            return None;
        };
        let server = s.handle.server();
        let mut params = server.profiler()?.observed_params(server.program());
        for flow in &mut params.flows {
            flow.interarrival_mean_s = 0.05;
        }
        let config = SimConfig {
            cpus,
            duration_s: 100.0,
            warmup_s: 1.0,
            seed,
            ..SimConfig::default()
        };
        let report = FluxSimulation::new(server.program(), params, config).run();
        let demand_s = report.cpu_utilization * cpus as f64 / report.throughput;
        Some((clients as f64 / report.mean_latency_s).min(cpus as f64 / demand_s))
    }

    pub fn stop(self) {
        match self.running {
            Running::Web(s) => flux_servers::web::stop(s),
            Running::Image(s) => flux_servers::image::stop(s),
            Running::PubSub(s) => flux_servers::pubsub::stop(s),
        }
    }
}

/// A one-thread inline runtime over a workload's own program, registry
/// and context: the calling thread polls the source and steps every
/// flow to its end, so a request's spans follow one another and their
/// sum can be checked against its wall time.
pub struct InlineOf<P> {
    server: FluxServer<P>,
    driver: Arc<ConnDriver>,
    pending: Vec<(FlowCursor, P)>,
}

impl<P: Send + 'static> InlineOf<P> {
    fn build<S: ServerSpec<Flow = P>>(spec: S) -> InlineOf<P> {
        let (program, registry, ctx) = spec.build(&NetConfig::default());
        let driver = S::driver(&ctx).expect("the benchmark's servers are network servers");
        let server = FluxServer::new(program, registry).expect("the server's registry satisfies its program");
        InlineOf {
            server,
            driver,
            pending: Vec::new(),
        }
    }

    fn label(&self, cur: &FlowCursor) -> String {
        match self.server.exec_node(cur) {
            Some(node) => {
                let name = self.server.program().graph.name(node);
                match self.server.exec_cost(cur) {
                    0 | 1 => name.to_string(),
                    // A fused segment: its first node and its length.
                    n => format!("{name}+{}", n - 1),
                }
            }
            None => "step".to_string(),
        }
    }

    fn pump(&mut self, flows: usize, mut sink: Option<&mut dyn SpanSink>) -> bool {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut finished = 0;
        while finished < flows {
            let t0 = sink.is_some().then(Instant::now);
            while self.pending.is_empty() {
                if !self.server.poll_source_batch(0, &mut self.pending) || Instant::now() > deadline {
                    return false;
                }
            }
            if let (Some(sink), Some(t0)) = (sink.as_deref_mut(), t0) {
                sink.span("source_poll", t0, Instant::now());
            }
            for (mut cursor, mut payload) in std::mem::take(&mut self.pending) {
                loop {
                    let traced = sink.is_some().then(|| (self.label(&cursor), Instant::now()));
                    let step = self.server.step(&mut cursor, &mut payload, LockWait::Block);
                    if let (Some(sink), Some((label, t0))) = (sink.as_deref_mut(), traced) {
                        sink.span(&label, t0, Instant::now());
                    }
                    match step {
                        Step::Continue => {}
                        Step::Done(_) => break,
                        Step::WouldBlock => unreachable!("LockWait::Block never yields WouldBlock"),
                    }
                }
                finished += 1;
            }
        }
        true
    }

    fn stop(self) {
        self.server.request_shutdown();
        self.driver.stop();
    }
}

pub enum Inline {
    Web(InlineOf<WebFlow>),
    Image(InlineOf<ImageFlow>),
    PubSub(InlineOf<PubSubFlow>),
}

impl Inline {
    /// Builds the workload's `(CompiledProgram, NodeRegistry, Ctx)`
    /// through `ServerSpec::build` and wraps it in `FluxServer::new`;
    /// returns it with the address its listener is bound to.
    pub fn build(inputs: ServerInputs) -> io::Result<(Inline, SocketAddr)> {
        let (listener, addr) = listen()?;
        let inline = match inputs {
            ServerInputs::Web { files } => Inline::Web(InlineOf::build(web_spec(files, listener))),
            ServerInputs::Image { .. } => {
                Inline::Image(InlineOf::build(image_spec(&inputs, ImageSource::Net(listener))))
            }
            ServerInputs::PubSub => Inline::PubSub(InlineOf::build(PubSubSpec::new(listener))),
        };
        Ok((inline, addr))
    }

    /// Runs the runtime on the calling thread until `flows` more flows
    /// have ended: one span `source_poll` around the `poll_source_batch`
    /// calls that produce them and one span per `step`, named after the
    /// node it executes. `false` if no flow arrives within two seconds.
    pub fn pump(&mut self, flows: usize, sink: Option<&mut dyn SpanSink>) -> bool {
        match self {
            Inline::Web(i) => i.pump(flows, sink),
            Inline::Image(i) => i.pump(flows, sink),
            Inline::PubSub(i) => i.pump(flows, sink),
        }
    }

    pub fn stop(self) {
        match self {
            Inline::Web(i) => i.stop(),
            Inline::Image(i) => i.stop(),
            Inline::PubSub(i) => i.stop(),
        }
    }
}

/// Median over `batches` of the mean time of one call among `iters`, in
/// nanoseconds.
fn time_ns(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// The workload's program text and the predicates its common path
/// answers "yes" to.
fn program_of(inputs: &ServerInputs) -> (&'static str, &'static [&'static str]) {
    match inputs {
        ServerInputs::Web { .. } => (flux_servers::web::FLUX_SRC, &[]),
        ServerInputs::Image { .. } => (flux_servers::image::FLUX_SRC, &[]),
        ServerInputs::PubSub => (flux_servers::pubsub::FLUX_SRC, &["IsPub"]),
    }
}

/// A server over `program` whose nodes do nothing: what is left is the
/// interpreter.
fn noop_server(program: CompiledProgram, yes: &[&str]) -> FluxServer<()> {
    let mut registry: NodeRegistry<()> = NodeRegistry::new();
    for name in program.required_nodes() {
        registry.node(&name, |_| NodeOutcome::Ok);
        registry.source(&name, || SourceOutcome::Skip);
    }
    for name in program.required_predicates() {
        let answer = yes.contains(&name.as_str());
        registry.predicate(&name, move |_| answer);
    }
    FluxServer::new(program, registry).expect("every node and predicate is registered")
}

/// A two-node program behind a benchmark-defined spec, for timing the
/// default runtime's hand-off from a source to the node after it.
struct HandoffSpec {
    blocking: bool,
    flows: usize,
    waits_ns: Arc<Mutex<Vec<f64>>>,
}

const HANDOFF_SRC: &str = "
    Src () => (int stamp);
    Sink (int stamp) => ();
    Hop = Sink;
    source Src => Hop;
";

impl ServerSpec for HandoffSpec {
    type Flow = Instant;
    type Ctx = ();

    fn build(self, _net: &NetConfig) -> (CompiledProgram, NodeRegistry<Instant>, ()) {
        let program = compile(HANDOFF_SRC).expect("the hand-off program compiles");
        let mut registry: NodeRegistry<Instant> = NodeRegistry::new();
        let left = Mutex::new(self.flows);
        registry.source("Src", move || {
            let mut left = left.lock().expect("the source runs on one thread");
            if *left == 0 {
                return SourceOutcome::Shutdown;
            }
            *left -= 1;
            // Spaced out, so each flow meets an idle dispatcher.
            std::thread::sleep(Duration::from_micros(200));
            SourceOutcome::New(Instant::now())
        });
        let waits = self.waits_ns.clone();
        let sink = move |stamp: &mut Instant| {
            let waited = stamp.elapsed().as_nanos() as f64;
            waits.lock().expect("no sink panics").push(waited);
            NodeOutcome::Ok
        };
        if self.blocking {
            registry.node_blocking("Sink", sink);
        } else {
            registry.node("Sink", sink);
        }
        (program, registry, ())
    }

    fn driver(_: &()) -> Option<Arc<ConnDriver>> {
        None
    }
}

fn handoff_us(blocking: bool) -> f64 {
    const FLOWS: usize = 500;
    let waits_ns = Arc::new(Mutex::new(Vec::with_capacity(FLOWS)));
    let server = ServerBuilder::new(HandoffSpec {
        blocking,
        flows: FLOWS,
        waits_ns: waits_ns.clone(),
    })
    .spawn();
    let deadline = Instant::now() + Duration::from_secs(5);
    while waits_ns.lock().expect("no sink panics").len() < FLOWS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.handle.stop();
    let waits = waits_ns.lock().expect("no sink panics");
    crate::stats::median(&waits) / 1e3
}

fn poller_probe() -> io::Result<(f64, f64)> {
    const ROUNDS: usize = 2000;
    let (mut tx, rx) = std::os::unix::net::UnixStream::pair()?;
    let fd = rx.as_raw_fd();
    let mut poller = create_poller(NetConfig::default().backend);
    poller.add(fd, Interest::READ)?;
    // One byte that is never read: the watch is ready whenever armed.
    tx.write_all(&[1])?;
    let mut events = Vec::new();
    let (mut wait, mut rearm) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        poller.wait(&mut events, Duration::from_secs(1))?;
        let t1 = Instant::now();
        poller.modify(fd, Interest::READ)?;
        rearm += t1.elapsed();
        wait += t1 - t0;
        if events.is_empty() {
            return Err(io::Error::other("readable fd not reported"));
        }
    }
    poller.delete(fd)?;
    let per = |d: Duration| d.as_nanos() as f64 / ROUNDS as f64;
    Ok((per(rearm), per(wait)))
}

fn accept_probe() -> io::Result<f64> {
    let driver = Arc::new(ConnDriver::with_config(&NetConfig::default()));
    let (listener, addr) = listen()?;
    driver.spawn_acceptor(listener);
    let mut samples = Vec::new();
    let mut held = Vec::new();
    for _ in 0..25 {
        let t0 = Instant::now();
        held.push(TcpStream::connect(addr)?);
        loop {
            match driver.next_event(Duration::from_secs(1)) {
                Some(DriverEvent::Incoming(_)) => break,
                Some(_) => {}
                None => {
                    driver.stop();
                    return Err(io::Error::other("connection never announced"));
                }
            }
        }
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    driver.stop();
    Ok(crate::stats::median(&samples))
}

/// Timed direct calls into each layer's public functions with the
/// workload's own inputs: its program, its HTTP request bytes (`None`
/// for `pubsub_fanout`, which speaks no HTTP), its files, its images. A
/// layer the workload never enters has nothing of the workload's to be
/// called with, and its metrics read 0.
pub fn probes(inputs: &ServerInputs, request: Option<&[u8]>) -> io::Result<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();

    let (source, yes) = program_of(inputs);
    out.push((
        "core.compile_us",
        time_ns(5, 10, || drop(black_box(compile(black_box(source))))) / 1e3,
    ));
    let program = compile(source).expect("the server's program compiles");
    let vertices: usize = program.flows.iter().map(|f| f.flat.verts.len()).sum();
    out.push(("core.flat_vertices", vertices as f64));

    let server = noop_server(program, yes);
    out.push((
        "runtime.server.interp_ns_per_flow",
        time_ns(5, 2000, || {
            let cursor = server.new_cursor(0, &());
            black_box(server.run_flow(cursor, ()));
        }),
    ));
    let mut cursor = server.new_cursor(0, &());
    let mut steps = 1;
    while !matches!(server.step(&mut cursor, &mut (), LockWait::Block), Step::Done(_)) {
        steps += 1;
    }
    out.push(("runtime.server.steps_per_flow", steps as f64));

    let locks = LockManager::new();
    let lock = locks.lock_for("cache", ConstraintScope::Program, None);
    out.push((
        "runtime.locks.acquire_release_ns",
        time_ns(5, 5000, || {
            lock.acquire(1, ConstraintMode::Writer);
            lock.release(1, ConstraintMode::Writer);
        }),
    ));

    out.push(("runtime.dispatch.handoff_us", handoff_us(false)));
    out.push(("runtime.dispatch.blocking_handoff_us", handoff_us(true)));

    let (rearm, wait) = poller_probe()?;
    out.push(("net.poller.rearm_ns", rearm));
    out.push(("net.poller.wait_ready_ns", wait));
    out.push(("net.driver.accept_us", accept_probe()?));

    let pool = Arc::new(BytePool::default());
    pool.put(Vec::with_capacity(4096));
    out.push((
        "net.pool.take_put_ns",
        time_ns(5, 5000, || pool.put(black_box(pool.take()))),
    ));
    out.push((
        "net.pool.seal_fanout_ns",
        time_ns(5, 2000, || {
            let mut buf = pool.take();
            buf.extend_from_slice(&[b'm'; 64]);
            let payload = pool.seal(buf);
            let clones: [_; 16] = std::array::from_fn(|_| payload.clone());
            drop(black_box((payload, clones)));
        }),
    ));

    match request {
        Some(request) => {
            let mut head = Vec::with_capacity(512);
            out.push((
                "http.message.parse_ns",
                time_ns(5, 2000, || {
                    let mut wire = black_box(request);
                    black_box(
                        read_request_buffered(&mut wire, &mut head).expect("the workload's request parses"),
                    );
                }),
            ));
        }
        None => out.push(("http.message.parse_ns", 0.0)),
    }

    match inputs {
        ServerInputs::Web { files } => {
            // At most 32 files, evenly spaced over the popularity ranks.
            let bodies: Vec<&(String, Vec<u8>)> = files.iter().step_by(files.len().div_ceil(32)).collect();
            let kib: f64 = bodies.iter().map(|(_, b)| b.len() as f64 / 1024.0).sum();
            let responses: Vec<Response> = bodies
                .iter()
                .map(|(_, b)| Response::ok("text/html", b.clone()))
                .collect();
            let mut wire = Vec::new();
            let serialize = time_ns(5, 4, || {
                for r in &responses {
                    wire.clear();
                    r.write_to(&mut wire, true)
                        .expect("serializing to memory cannot fail");
                    black_box(&wire);
                }
            });
            out.push(("http.message.serialize_ns_per_kib", serialize / kib));
            let mut root = DocRoot::new();
            for (path, body) in &bodies {
                root.insert(path, body.clone());
            }
            let get = time_ns(5, 4, || {
                for (path, _) in &bodies {
                    black_box(root.get(path).expect("the file was inserted").to_vec());
                }
            });
            out.push(("http.content.get_ns_per_kib", get / kib));
        }
        _ => out.extend([
            ("http.message.serialize_ns_per_kib", 0.0),
            ("http.content.get_ns_per_kib", 0.0),
        ]),
    }

    let &ServerInputs::Image { images, quality, .. } = inputs else {
        out.extend([("image.jpeg.encode_us", 0.0), ("image.cache.check_ns", 0.0)]);
        return Ok(out);
    };
    // Every scale of every fourth image: a quarter of the tags, with the
    // same mean as all of them.
    let tags: Vec<(u32, u32)> = (0..images as u32)
        .step_by(4)
        .flat_map(|i| (1..=8).map(move |s| (i, s)))
        .collect();
    let disk = image_disk(inputs);
    let t0 = Instant::now();
    let encoded: Vec<Arc<Vec<u8>>> = tags
        .iter()
        .map(|&(i, s)| Arc::new(jpeg_encode(&disk[i as usize].scale_eighths(s), quality)))
        .collect();
    out.push((
        "image.jpeg.encode_us",
        t0.elapsed().as_nanos() as f64 / 1e3 / tags.len() as f64,
    ));
    let mut cache: LfuCache<(u32, u32), Arc<Vec<u8>>> = LfuCache::new(usize::MAX, |v| v.len());
    for (tag, jpeg) in tags.iter().zip(encoded) {
        cache.store(*tag, jpeg);
    }
    let mut next = 0;
    out.push((
        "image.cache.check_ns",
        time_ns(5, 5000, || {
            let tag = &tags[next % tags.len()];
            next += 1;
            black_box(cache.check(tag).is_some());
            cache.release(tag);
        }),
    ));
    Ok(out)
}
