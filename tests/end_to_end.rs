//! Cross-crate integration tests: each of the paper's servers compiled,
//! started and exercised through the umbrella `flux` crate, plus
//! runtime-independence and profiling checks spanning crates.

use flux::http::DocRoot;
use flux::net::MemNet;
use flux::runtime::RuntimeKind;
use flux::servers::{web::WebSpec, ServerBuilder};
use std::io::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// All four paper programs compile and report the expected flow counts.
#[test]
fn all_four_servers_compile() {
    for (src, flows) in [
        (flux::servers::web::FLUX_SRC, 1),
        (flux::servers::image::FLUX_SRC, 1),
        (flux::servers::bt::FLUX_SRC, 4),
        (flux::servers::game::FLUX_SRC, 2),
    ] {
        let program = flux::core::compile(src).expect("paper program compiles");
        assert_eq!(program.flows.len(), flows);
    }
}

/// The web server serves the same bytes on all three runtimes
/// (runtime independence, §3).
#[test]
fn web_server_runtime_independent() {
    let mut docroot = DocRoot::new();
    docroot.insert("/whoami.html", "the same on every runtime");
    docroot.insert("/square.fxs", "<?fx echo $n * $n; ?>");
    for kind in [
        RuntimeKind::ThreadPerFlow,
        RuntimeKind::ThreadPool { workers: 3 },
        RuntimeKind::event_driven_sharded(1, 2),
        RuntimeKind::event_driven_sharded(4, 2),
    ] {
        let net = MemNet::new();
        let listener = net.listen("w").unwrap();
        let server = ServerBuilder::new(WebSpec::new(Box::new(listener), docroot.clone()))
            .runtime(kind)
            .spawn();
        let mut conn = net.connect("w").unwrap();
        write!(
            conn,
            "GET /whoami.html HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
        )
        .unwrap();
        let (s1, b1) = flux::http::read_response(&mut conn).unwrap();
        write!(
            conn,
            "GET /square.fxs?n=12 HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (s2, b2) = flux::http::read_response(&mut conn).unwrap();
        assert_eq!(
            (s1, b1.as_slice()),
            (200, b"the same on every runtime".as_ref())
        );
        assert_eq!((s2, b2.as_slice()), (200, b"144".as_ref()));
        flux::servers::web::stop(server);
    }
}

/// Flux vs baseline byte-identical responses (the comparisons in
/// Figures 3/4 measure coordination, not behaviour).
#[test]
fn flux_and_knot_agree_on_responses() {
    let mut docroot = DocRoot::new();
    docroot.insert("/a.html", "alpha beta");
    docroot.insert("/calc.fxs", "<?fx echo $x + 1; ?>");
    let fetch = |net: &Arc<MemNet>, addr: &str, path: &str| -> (u16, Vec<u8>) {
        let mut conn = net.connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        flux::http::read_response(&mut conn).unwrap()
    };

    let net = MemNet::new();
    let l1 = net.listen("flux").unwrap();
    let l2 = net.listen("knot").unwrap();
    let fx = ServerBuilder::new(WebSpec::new(Box::new(l1), docroot.clone()))
        .runtime(RuntimeKind::ThreadPool { workers: 2 })
        .spawn();
    let kn = flux::baselines::KnotServer::start(Box::new(l2), docroot, 2);
    for path in ["/a.html", "/calc.fxs?x=41", "/missing"] {
        let a = fetch(&net, "flux", path);
        let b = fetch(&net, "knot", path);
        assert_eq!(a.0, b.0, "{path} status");
        assert_eq!(a.1, b.1, "{path} body");
    }
    flux::servers::web::stop(fx);
    kn.stop();
}

/// A BitTorrent download through the full stack: tracker announce, Flux
/// seeder, protocol client — everything over the in-memory transport.
#[test]
fn bittorrent_full_stack() {
    let net = MemNet::new();
    let file = flux::bittorrent::synth_file(96 * 1024, 4);
    let meta = flux::bittorrent::Metainfo::from_file("mem:tracker", "f.bin", 32 * 1024, &file);

    let server = ServerBuilder::new(flux::servers::bt::BtConfig {
        listener: Box::new(net.listen("seeder").unwrap()),
        meta: meta.clone(),
        file: file.clone(),
        tracker_dial: None,
        peer_id: *b"-FX0001-integration1",
        addr: "mem:seeder".into(),
        tracker_period: Duration::from_secs(3600),
        choke_period: Duration::from_secs(3600),
        keepalive_period: Duration::from_secs(3600),
    })
    .runtime(RuntimeKind::event_driven_sharded(1, 4))
    .spawn();
    let got = flux::servers::bt::client::download(
        Box::new(net.connect("seeder").unwrap()),
        &meta,
        *b"-FX0001-integration2",
        Some(2),
    )
    .unwrap();
    assert_eq!(got, file);
    // `Request` counts a block after submitting it: stop the runtime
    // before reading the count the finished download implies.
    let ctx = server.ctx.clone();
    flux::servers::bt::stop(server);
    assert!(ctx.blocks_served.load(Ordering::Relaxed) >= 6);
}

/// The image server's cache constraint holds under concurrency: many
/// parallel clients, every response a valid JPEG, cache stats coherent.
#[test]
fn image_server_concurrent_cache_integrity() {
    let net = MemNet::new();
    let listener = net.listen("img").unwrap();
    let server = ServerBuilder::new(flux::servers::image::ImageConfig {
        source: flux::servers::image::ImageSource::Net(Box::new(listener)),
        compress: flux::servers::image::CompressMode::Real { quality: 60 },
        images: 3,
        image_size: 40,
        cache_bytes: 64 * 1024,
    })
    .runtime(RuntimeKind::ThreadPool { workers: 6 })
    .spawn();
    let mut joins = Vec::new();
    for t in 0..6 {
        let net = net.clone();
        joins.push(std::thread::spawn(move || {
            for i in 0..10 {
                let img = (t + i) % 3;
                let scale = (i % 8) + 1;
                let mut conn = net.connect("img").unwrap();
                write!(
                    conn,
                    "GET /img{img}-{scale}.jpg HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                .unwrap();
                let (status, body) = flux::http::read_response(&mut conn).unwrap();
                assert_eq!(status, 200);
                flux::image::jpeg_probe(&body).expect("valid JPEG under concurrency");
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let cache = server.ctx.cache.lock();
    assert_eq!(
        cache.hits + cache.misses,
        60,
        "every request checked the cache"
    );
    drop(cache);
    flux::servers::image::stop(server);
}

/// Profiled web run feeds the simulator, which predicts a plausible
/// latency for the same load (the §5.1 workflow across crates).
#[test]
fn profile_to_simulation_pipeline() {
    use flux::sim::{FluxSimulation, SimConfig};
    let (program, reg, ctx) = flux::servers::image::build(flux::servers::image::ImageConfig {
        source: flux::servers::image::ImageSource::Synthetic {
            interarrival: Duration::from_millis(5),
            total: 150,
        },
        compress: flux::servers::image::CompressMode::TimedHold(Duration::from_millis(2)),
        images: 4,
        image_size: 32,
        cache_bytes: 6 * 1024,
    });
    let server = Arc::new(flux::runtime::FluxServer::with_profiling(program, reg).unwrap());
    let handle = flux::runtime::start(server.clone(), RuntimeKind::ThreadPool { workers: 1 });
    handle.join();
    assert_eq!(ctx.served.load(Ordering::Relaxed), 150);

    let params = server.profiler().unwrap().observed_params(server.program());
    assert!(params.flows[0].interarrival_mean_s > 0.003);
    let report = FluxSimulation::new(
        server.program(),
        params,
        SimConfig {
            cpus: 1,
            duration_s: 30.0,
            warmup_s: 2.0,
            exponential_service: false,
            poisson_arrivals: false,
            ..SimConfig::default()
        },
    )
    .run();
    assert!(report.completed > 1000, "{report:?}");
    // The real mean flow latency and the predicted one agree to within
    // 3x (generous: the test runs fast and cold).
    let observed = server.stats.latency.mean().as_secs_f64();
    let predicted = report.mean_latency_s;
    assert!(
        predicted < observed * 3.0 + 0.002 && observed < predicted * 3.0 + 0.002,
        "observed {observed}s vs predicted {predicted}s"
    );
}

/// Path profiling end to end: hot paths of a loaded web server include
/// the static-file path with sensible counts.
#[test]
fn hot_paths_of_web_server() {
    let mut docroot = DocRoot::new();
    docroot.insert("/x.html", "payload");
    let net = MemNet::new();
    let listener = net.listen("w").unwrap();
    let server = ServerBuilder::new(WebSpec::new(Box::new(listener), docroot))
        .runtime(RuntimeKind::ThreadPool { workers: 2 })
        .profile(true)
        .spawn();
    for _ in 0..20 {
        let mut conn = net.connect("w").unwrap();
        write!(conn, "GET /x.html HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let _ = flux::http::read_response(&mut conn).unwrap();
    }
    // The client has every response (Content-Length framing) as soon as
    // `Write` enqueues it; wait for the final flow's `Complete` to land
    // in the profiler before reporting.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.handle.server().stats.finished() < 20 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let fx = server.handle.server().clone();
    let report = fx
        .profiler()
        .unwrap()
        .report(fx.program(), 0, flux::runtime::HotOrder::ByCount);
    assert!(!report.is_empty());
    let top = &report[0];
    let path = top
        .info
        .display(&fx.program().graph, &fx.program().flows[0].flat);
    assert!(
        path.contains("ReadRequest") && path.contains("ReadFromDisk"),
        "hot path is the static-file path: {path}"
    );
    assert!(top.count >= 20);
    flux::servers::web::stop(server);
}
