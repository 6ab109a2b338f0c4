//! Quickstart, in five acts:
//!
//! 1. compile a Flux program, bind Rust node implementations, and run
//!    it on all four runtimes — the paper's runtime-independence claim;
//! 2. stand up a real server (the §4.2 web server) through the one
//!    typed `ServerBuilder`, which takes three things: the runtime kind
//!    (with its overload policy), the network configuration
//!    (`NetConfig`: readiness backend, write-buffer bound, connection
//!    cap, idle deadline) and the profiling toggle;
//! 3. a *streaming* server through the same builder: the pub/sub
//!    server subscribes clients to topics, aggregates each topic's
//!    publishes over a sliding window, and multicasts the encoded
//!    aggregate to every subscriber as one refcounted payload —
//!    encoded once no matter the fan-out;
//! 4. inspect the compiler's fusion analysis: the same dump `fluxc
//!    fused` (alias `--dump-fused`) prints — each flow's straight-line
//!    segments and the boundary reasons where a segment stops;
//! 5. overload control through the same builder: `NetConfig::max_conns`
//!    governs admission at the accept edge, `RuntimeKind::overload`
//!    with `OverloadPolicy::bounded` caps the shard queues so a flood
//!    sheds (the web server answers a prebuilt 503 via its `on_shed`
//!    handler), and `NetConfig::idle_timeout` reaps connections that
//!    stop making application progress — all counted, never silent.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The act-1 program is a miniature request pipeline with a predicate
//! dispatch, an error handler, and an atomicity constraint — every
//! language feature from §2 of the paper in twenty lines.

use flux::runtime::{start, FluxServer, NodeOutcome, NodeRegistry, RuntimeKind, SourceOutcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The Flux program. `source Gen => Flow` runs `Gen` in an implicit
/// infinite loop; each value it produces travels the acyclic graph.
const PROGRAM: &str = r#"
    Gen () => (int n);
    Validate (int n) => (int n);
    Small (int n) => (int n);
    Big (int n) => (int n);
    Record (int n) => ();
    Reject (int n) => ();

    typedef small IsSmall;

    source Gen => Flow;
    Flow = Validate -> Route -> Record;
    Route:[small] = Small;
    Route:[_] = Big;

    handle error Validate => Reject;

    atomic Record: {tally};
"#;

/// The per-flow payload — the paper's per-flow C struct.
struct Payload {
    n: u64,
    doubled: bool,
}

fn build_registry(
    produced: Arc<AtomicU64>,
    small: Arc<AtomicU64>,
    big: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
    total: u64,
) -> NodeRegistry<Payload> {
    let mut reg = NodeRegistry::new();
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(Payload {
                n: i,
                doubled: false,
            })
        }
    });
    reg.node("Validate", |p: &mut Payload| {
        // Multiples of 10 are "invalid" and go to the error handler.
        if p.n.is_multiple_of(10) {
            NodeOutcome::Err(22)
        } else {
            NodeOutcome::Ok
        }
    });
    reg.predicate("IsSmall", |p: &Payload| p.n < 50);
    {
        let small = small.clone();
        reg.node("Small", move |p: &mut Payload| {
            p.doubled = true;
            small.fetch_add(1, Ordering::Relaxed);
            NodeOutcome::Ok
        });
    }
    {
        let big = big.clone();
        reg.node("Big", move |_p: &mut Payload| {
            big.fetch_add(1, Ordering::Relaxed);
            NodeOutcome::Ok
        });
    }
    reg.node("Record", |_p: &mut Payload| NodeOutcome::Ok);
    reg.node("Reject", move |_p: &mut Payload| {
        rejected.fetch_add(1, Ordering::Relaxed);
        NodeOutcome::Ok
    });
    reg
}

fn main() {
    let total = 100u64;
    for kind in [
        RuntimeKind::ThreadPerFlow,
        RuntimeKind::ThreadPool { workers: 4 },
        RuntimeKind::event_driven_sharded(1, 2),
        RuntimeKind::Staged { stage_workers: 2 },
    ] {
        let program = flux::core::compile(PROGRAM).expect("program compiles");
        println!(
            "runtime {kind:?}: {} nodes, {} paths",
            program.graph.nodes.len(),
            program.flows[0].paths.num_paths
        );
        let produced = Arc::new(AtomicU64::new(0));
        let small = Arc::new(AtomicU64::new(0));
        let big = Arc::new(AtomicU64::new(0));
        let rejected = Arc::new(AtomicU64::new(0));
        let reg = build_registry(
            produced.clone(),
            small.clone(),
            big.clone(),
            rejected.clone(),
            total,
        );
        let server = Arc::new(FluxServer::new(program, reg).expect("registry complete"));
        let handle = start(server.clone(), kind);
        handle.join();
        // Event runtime drains asynchronously; wait for the counts.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.stats.finished() < total && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        println!(
            "  {} flows: {} small, {} big, {} rejected",
            server.stats.finished(),
            small.load(Ordering::Relaxed),
            big.load(Ordering::Relaxed),
            rejected.load(Ordering::Relaxed),
        );
        assert_eq!(server.stats.finished(), total);
        assert_eq!(
            small.load(Ordering::Relaxed)
                + big.load(Ordering::Relaxed)
                + rejected.load(Ordering::Relaxed),
            total
        );
    }
    println!("same program, four runtimes — no code changes.");

    // Act 2: a real server through the one typed ServerBuilder. The
    // spec names the server; the builder takes the runtime kind, the
    // NetConfig (readiness backend, per-connection write-buffer bound,
    // connection cap, idle deadline) and the profiling toggle.
    use flux::net::{MemNet, NetConfig};
    use flux::servers::{web::WebSpec, ServerBuilder};
    use std::io::Write as _;

    let net = MemNet::new();
    let listener = net.listen("quickstart").unwrap();
    let mut docroot = flux::http::DocRoot::new();
    docroot.insert("/hello.html", "hello from the builder");
    let server = ServerBuilder::new(WebSpec::new(Box::new(listener), docroot))
        .runtime(RuntimeKind::event_driven_sharded(2, 2))
        .net(NetConfig::default()) // epoll on Linux, poll elsewhere
        .spawn();

    let mut conn = net.connect("quickstart").unwrap();
    write!(
        conn,
        "GET /hello.html HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let (status, body) = flux::http::read_response(&mut conn).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, b"hello from the builder");
    println!(
        "web server via ServerBuilder: {} ({} readiness backend, {})",
        String::from_utf8_lossy(&body),
        server.ctx.driver.poller_backend(),
        server.handle.server().stats.describe(),
    );
    flux::servers::web::stop(server);

    // Act 3: a streaming server through the same builder. `SUB <topic>`
    // subscribes; each `PUB <topic> <value>` re-aggregates the topic's
    // sliding window (count + top-k) on the topic's home shard and fans
    // the one encoded `MSG` out to every subscriber as a refcounted
    // shared payload — `stats.fanout` counts publishes vs deliveries.
    use flux::servers::pubsub::PubSubSpec;
    use std::io::{BufRead as _, BufReader};

    let net = MemNet::new();
    let listener = net.listen("pubsub").unwrap();
    let server = ServerBuilder::new(PubSubSpec::new(Box::new(listener)))
        .runtime(RuntimeKind::event_driven_sharded(2, 2))
        .spawn();

    let mut line = String::new();
    let mut subscriber = BufReader::new(net.connect("pubsub").unwrap());
    writeln!(subscriber.get_mut(), "SUB metrics").unwrap();
    subscriber.read_line(&mut line).unwrap(); // "+OK metrics"

    let mut publisher = net.connect("pubsub").unwrap();
    writeln!(publisher, "PUB metrics ok").unwrap();
    writeln!(publisher, "PUB metrics ok").unwrap();
    writeln!(publisher, "PUB metrics err").unwrap();
    // MSG <topic> <seq> <window-count> <top-k> <last>
    let mut msg = String::new();
    while !msg.starts_with("MSG metrics 3 ") {
        msg.clear();
        subscriber.read_line(&mut msg).unwrap();
    }
    print!("pub/sub via ServerBuilder: {msg}");
    println!(
        "  ({})",
        server
            .handle
            .server()
            .stats
            .fanout
            .describe()
            .expect("publishes happened"),
    );
    flux::servers::pubsub::stop(server);

    // Act 4: the compiler's fusion analysis. Each flow's straight-line
    // Exec/Release chains are segments no scheduling decision
    // interrupts; the runtimes still run one node per step. The dump
    // below is exactly `fluxc fused` / `fluxc --dump-fused`: segments
    // first, then every boundary edge with the reason a segment stops —
    // dispatch arms, error arms, acquires, blocking nodes, joins.
    let program = flux::core::compile(PROGRAM).expect("program compiles");
    println!();
    print!("{}", flux::core::fuse::render(&program));

    // Act 5: overload control, same builder. Three layers, all
    // counted: `max_conns` caps live connections at the accept edge
    // (excess accepts are closed immediately — peers fail fast instead
    // of queueing doomed work), `OverloadPolicy::bounded` caps each
    // shard queue so a flood sheds at the source boundary into the
    // server's `on_shed` handler (the web server answers a prebuilt
    // 503), and `idle_timeout` reaps connections with no *application*
    // progress — a slow-loris trickling header bytes never refreshes
    // its deadline. The books always reconcile: offered == finished +
    // shed on the queues, admitted + governed == accepts at the edge.
    use flux::runtime::OverloadPolicy;

    let net = MemNet::new();
    let listener = net.listen("overload").unwrap();
    let mut docroot = flux::http::DocRoot::new();
    docroot.insert("/hello.html", "still serving");
    let server = ServerBuilder::new(WebSpec::new(Box::new(listener), docroot))
        .runtime(RuntimeKind::event_driven_sharded(2, 2).overload(OverloadPolicy::bounded(64)))
        .net(NetConfig {
            max_conns: 1,
            idle_timeout: Some(std::time::Duration::from_secs(5)),
            ..NetConfig::default()
        })
        .spawn();

    // The first connection takes the only admission slot...
    let mut keeper = net.connect("overload").unwrap();
    // ...so the second is accepted and closed by the governor: its
    // peer observes EOF instead of a served request.
    let mut over = net.connect("overload").unwrap();
    use std::io::Read as _;
    let n = over.read(&mut [0u8; 8]).unwrap_or(0);
    assert_eq!(n, 0, "over-cap connection is closed unserved");

    // The admitted connection still works.
    write!(
        keeper,
        "GET /hello.html HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let (status, body) = flux::http::read_response(&mut keeper).unwrap();
    assert_eq!((status, body.as_slice()), (200, b"still serving".as_ref()));
    let counters = server
        .handle
        .server()
        .stats
        .net_counters()
        .expect("web server installs net counters");
    println!(
        "overload control: admitted connection served \"{}\"; \
         {} admitted, {} governed (closed at the accept edge)",
        String::from_utf8_lossy(&body),
        counters.accepts_admitted(),
        counters.accepts_governed(),
    );
    flux::servers::web::stop(server);
}
