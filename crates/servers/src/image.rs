//! The Flux image-compression server (paper §2, Figure 2; evaluated in
//! §5.1/Figure 6).
//!
//! Serves HTTP requests for PPM-stored images compressed to JPEG, with
//! the LFU cache and its `CheckCache`/`StoreInCache`/`Complete`
//! reference-count protocol guarded by the `cache` atomicity constraint
//! — the program is the paper's Figure 2, verbatim (plus `blocking`
//! declarations for the event runtime).
//!
//! Two operation modes:
//!
//! * **Net**: real requests over `flux-net` (`GET /imgN-S.jpg`, scale
//!   `S` in eighths).
//! * **Synthetic**: the Figure 6 load pattern — open-loop arrivals at a
//!   fixed rate, no network, with either the real JPEG encoder or a
//!   calibrated timed `Compress` (which lets a small host emulate the
//!   paper's 16-processor SunFire: a sleeping worker occupies a thread
//!   the way a busy CPU would, without needing the CPU).

use crate::builder::{RunningServer, ServerSpec};
use flux_core::CompiledProgram;
use flux_http::{read_request, ParseError, Response};
use flux_image::{jpeg_encode, Image, LfuCache};
use flux_net::{ConnDriver, DriverEvent, Listener, NetConfig, SharedConn, Token};
use flux_runtime::{NodeOutcome, NodeRegistry, SourceOutcome};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Figure 2, with the handler/blocking declarations spelled out.
pub const FLUX_SRC: &str = r#"
    Listen () => (int socket);
    ReadRequest (int socket)
      => (int socket, bool close, image_tag *request);
    CheckCache (int socket, bool close, image_tag *request)
      => (int socket, bool close, image_tag *request);
    ReadInFromDisk (int socket, bool close, image_tag *request)
      => (int socket, bool close, image_tag *request, __u8 *rgb_data);
    StoreInCache (int socket, bool close, image_tag *request)
      => (int socket, bool close, image_tag *request);
    Compress (int socket, bool close, image_tag *request, __u8 *rgb_data)
      => (int socket, bool close, image_tag *request);
    Write (int socket, bool close, image_tag *request)
      => (int socket, bool close, image_tag *request);
    Complete (int socket, bool close, image_tag *request) => ();
    FourOhFour (int socket, bool close, image_tag *request) => ();

    source Listen => Image;

    Image = ReadRequest -> CheckCache -> Handler -> Write -> Complete;

    typedef hit TestInCache;
    Handler:[_, _, hit] = ;
    Handler:[_, _, _] = ReadInFromDisk -> Compress -> StoreInCache;

    handle error ReadInFromDisk => FourOhFour;

    atomic CheckCache:{cache};
    atomic StoreInCache:{cache};
    atomic Complete:{cache};

    blocking ReadRequest;
    blocking Write;
"#;

/// One image request: image id and scale (numerator of eighths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageTag {
    pub image: u32,
    pub scale: u32,
}

impl ImageTag {
    /// Parses `/img3-5.jpg` style paths.
    pub fn from_path(path: &str) -> Option<ImageTag> {
        let stem = path.strip_prefix("/img")?.strip_suffix(".jpg")?;
        let (img, scale) = stem.split_once('-')?;
        let tag = ImageTag {
            image: img.parse().ok()?,
            scale: scale.parse().ok()?,
        };
        (1..=8).contains(&tag.scale).then_some(tag)
    }
}

/// How `Compress` burns its time.
#[derive(Debug, Clone, Copy)]
pub enum CompressMode {
    /// The real JPEG encoder (scale + DCT + Huffman).
    Real { quality: u8 },
    /// Sleep for a calibrated duration — the Figure 6 processor-scaling
    /// mode, where thread-pool workers stand in for CPUs.
    TimedHold(Duration),
    /// Spin the CPU for a duration (real CPU load without the encoder's
    /// data dependence).
    Spin(Duration),
}

/// How requests arrive.
pub enum ImageSource {
    /// Real connections through a driver.
    Net(Box<dyn Listener>),
    /// Open-loop synthetic arrivals: one request every `interarrival`,
    /// for `total` flows (the paper's load tester with n clients issues
    /// one request per 1/n s).
    Synthetic { interarrival: Duration, total: u64 },
}

/// Per-flow payload (the paper's per-flow struct).
pub struct ImageFlow {
    pub socket: Token,
    pub close: bool,
    pub tag: Option<ImageTag>,
    /// The source image `Compress` encodes, as its index into
    /// [`ImageCtx::disk`]: our form of Figure 2's `__u8 *rgb_data`, a
    /// reference to the raster rather than a copy of it. `ReadInFromDisk`
    /// sets it once the index is known to be on the disk.
    pub rgb: Option<usize>,
    pub jpeg: Option<Arc<Vec<u8>>>,
    conn: Option<SharedConn>,
}

/// Shared context.
pub struct ImageCtx {
    pub driver: Option<Arc<ConnDriver>>,
    /// "Disk": the PPM originals, by image id. A flow names its source by
    /// index ([`ImageFlow::rgb`]) and `Compress` encodes the entry where it
    /// lies, as the paper's `rgb_data` points at the raster.
    pub disk: Vec<Image>,
    /// The JPEG cache. The Flux `cache` constraint provides atomicity;
    /// the mutex only satisfies Rust's aliasing rules per access.
    pub cache: Mutex<LfuCache<ImageTag, Arc<Vec<u8>>>>,
    pub compress_mode: CompressMode,
    pub bytes_out: AtomicU64,
    pub served: AtomicU64,
}

fn synth_disk(images: usize, size: usize) -> Vec<Image> {
    (0..images)
        .map(|i| Image::synthetic(size, size * 3 / 4, i as u64 + 1))
        .collect()
}

/// Configuration for [`build`].
pub struct ImageConfig {
    pub source: ImageSource,
    pub compress: CompressMode,
    /// Number of distinct source images ("The image server had 5
    /// images").
    pub images: usize,
    /// Source image width in pixels (height is 3/4 of it).
    pub image_size: usize,
    /// Cache capacity in bytes.
    pub cache_bytes: usize,
}

impl Default for ImageConfig {
    fn default() -> Self {
        ImageConfig {
            source: ImageSource::Synthetic {
                interarrival: Duration::from_millis(10),
                total: 100,
            },
            compress: CompressMode::Real { quality: 75 },
            images: 5,
            image_size: 256,
            cache_bytes: 8 * 1024 * 1024,
        }
    }
}

impl ServerSpec for ImageConfig {
    type Flow = ImageFlow;
    type Ctx = Arc<ImageCtx>;

    fn build(self, net: &NetConfig) -> (CompiledProgram, NodeRegistry<ImageFlow>, Arc<ImageCtx>) {
        build_with(self, net)
    }

    fn driver(ctx: &Arc<ImageCtx>) -> Option<Arc<ConnDriver>> {
        ctx.driver.clone()
    }
}

/// Builds the compiled Figure 2 program, registry and context with the
/// default network configuration.
pub fn build(config: ImageConfig) -> (CompiledProgram, NodeRegistry<ImageFlow>, Arc<ImageCtx>) {
    build_with(config, &NetConfig::default())
}

/// Builds the compiled Figure 2 program, registry and context.
pub fn build_with(
    config: ImageConfig,
    net: &NetConfig,
) -> (CompiledProgram, NodeRegistry<ImageFlow>, Arc<ImageCtx>) {
    let program = flux_core::compile(FLUX_SRC).expect("image server Flux program compiles");
    let io_timeout = net.io_timeout;
    let driver = match &config.source {
        ImageSource::Net(_) => Some(Arc::new(ConnDriver::with_config(net))),
        ImageSource::Synthetic { .. } => None,
    };
    let ctx = Arc::new(ImageCtx {
        driver: driver.clone(),
        disk: synth_disk(config.images, config.image_size),
        cache: Mutex::new(LfuCache::new(config.cache_bytes, |v: &Arc<Vec<u8>>| {
            v.len()
        })),
        compress_mode: config.compress,
        bytes_out: AtomicU64::new(0),
        served: AtomicU64::new(0),
    });

    let mut reg: NodeRegistry<ImageFlow> = NodeRegistry::new();

    match config.source {
        ImageSource::Net(listener) => {
            let d = driver.expect("driver created for net mode");
            d.spawn_acceptor(listener);
            let c = ctx.clone();
            reg.source("Listen", move || {
                let d = c.driver.as_ref().expect("net mode");
                match d.next_event(io_timeout) {
                    None => SourceOutcome::Skip,
                    Some(DriverEvent::Incoming(token)) => {
                        d.arm(token);
                        SourceOutcome::Skip
                    }
                    Some(DriverEvent::WriteDone(_)) | Some(DriverEvent::WriteFailed(_)) => {
                        SourceOutcome::Skip
                    }
                    Some(DriverEvent::Readable(token)) => SourceOutcome::New(ImageFlow {
                        socket: token,
                        close: false,
                        tag: None,
                        rgb: None,
                        jpeg: None,
                        conn: d.get(token),
                    }),
                }
            });
            let c = ctx.clone();
            reg.node_blocking("ReadRequest", move |f: &mut ImageFlow| {
                let Some(conn) = f.conn.clone() else {
                    return NodeOutcome::Err(1);
                };
                let mut guard = conn.lock();
                match read_request(&mut **guard) {
                    Ok(req) => {
                        drop(guard);
                        // A complete request head resets the idle
                        // reaper's deadline; partial heads don't.
                        c.driver.as_ref().expect("net mode").mark_progress(f.socket);
                        f.close = !req.keep_alive();
                        match ImageTag::from_path(&req.path) {
                            Some(tag) => {
                                f.tag = Some(tag);
                                NodeOutcome::Ok
                            }
                            None => {
                                // Unparseable image name: treat as a miss
                                // that ReadInFromDisk will 404.
                                f.tag = Some(ImageTag {
                                    image: u32::MAX,
                                    scale: 1,
                                });
                                NodeOutcome::Ok
                            }
                        }
                    }
                    Err(ParseError::ConnectionClosed) => {
                        drop(guard);
                        let d = c.driver.as_ref().expect("net mode");
                        d.remove(f.socket);
                        NodeOutcome::Err(2)
                    }
                    Err(_) => NodeOutcome::Err(3),
                }
            });

            // Overload shedding (OverloadPolicy::Bounded): answer the
            // prebuilt 503 and close instead of queueing doomed decode
            // work.
            let mut busy = Vec::new();
            Response::error(503)
                .write_to(&mut busy, false)
                .expect("serializing a response to memory cannot fail");
            let c = ctx.clone();
            reg.on_shed(move |f: ImageFlow| {
                let d = c.driver.as_ref().expect("net mode");
                if d.submit_write(f.socket, &busy) {
                    d.remove_when_flushed(f.socket);
                } else {
                    d.remove(f.socket);
                }
            });

            let c = ctx.clone();
            reg.node_blocking("Write", move |f: &mut ImageFlow| {
                let Some(conn) = f.conn.clone() else {
                    return NodeOutcome::Err(1);
                };
                let jpeg = f.jpeg.as_ref().expect("hit or compressed");
                // Head and body leave as one write: two would put the
                // body behind the client's delayed ACK of the head.
                let mut wire = Vec::with_capacity(jpeg.len() + 160);
                Response::ok("image/jpeg", Vec::new()).write_head_to(
                    &mut wire,
                    !f.close,
                    jpeg.len(),
                );
                wire.extend_from_slice(jpeg);
                let mut guard = conn.lock();
                if guard.write_all(&wire).is_ok() {
                    c.bytes_out.fetch_add(wire.len() as u64, Ordering::Relaxed);
                } else {
                    f.close = true;
                }
                NodeOutcome::Ok
            });
        }
        ImageSource::Synthetic {
            interarrival,
            total,
        } => {
            // Deterministic round-robin over (image, scale), matching the
            // paper's "randomly requests one of eight sizes of a
            // randomly-chosen image" in distribution.
            let images = config.images as u64;
            let issued = AtomicU64::new(0);
            let c = ctx.clone();
            reg.source("Listen", move || {
                let i = issued.fetch_add(1, Ordering::SeqCst);
                if i >= total {
                    return SourceOutcome::Shutdown;
                }
                if !interarrival.is_zero() {
                    std::thread::sleep(interarrival);
                }
                // A multiplicative hash spreads image/scale choices.
                let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                SourceOutcome::New(ImageFlow {
                    socket: 0,
                    close: true,
                    tag: Some(ImageTag {
                        image: (h % images) as u32,
                        scale: ((h >> 8) % 8 + 1) as u32,
                    }),
                    rgb: None,
                    jpeg: None,
                    conn: None,
                })
            });
            reg.node("ReadRequest", |_f: &mut ImageFlow| NodeOutcome::Ok);
            let c2 = c.clone();
            reg.node("Write", move |f: &mut ImageFlow| {
                if let Some(j) = &f.jpeg {
                    c2.bytes_out.fetch_add(j.len() as u64, Ordering::Relaxed);
                }
                NodeOutcome::Ok
            });
        }
    }

    // The cache protocol (shared by both modes). Atomicity comes from
    // the Flux `cache` constraint.
    let c = ctx.clone();
    reg.node("CheckCache", move |f: &mut ImageFlow| {
        let tag = f.tag.expect("ReadRequest set the tag");
        if let Some(hit) = c.cache.lock().check(&tag) {
            f.jpeg = Some(hit.clone());
        }
        NodeOutcome::Ok
    });

    reg.predicate("TestInCache", |f: &ImageFlow| f.jpeg.is_some());

    let c = ctx.clone();
    reg.node("ReadInFromDisk", move |f: &mut ImageFlow| {
        let tag = f.tag.expect("tag set");
        let image = tag.image as usize;
        if image < c.disk.len() {
            f.rgb = Some(image);
            NodeOutcome::Ok
        } else {
            NodeOutcome::Err(404)
        }
    });

    let c = ctx.clone();
    // What the timed modes "compress" to: one payload per server, shared.
    let placeholder = Arc::new(vec![0xAB; 1024]);
    reg.node("Compress", move |f: &mut ImageFlow| {
        let tag = f.tag.expect("tag set");
        match c.compress_mode {
            CompressMode::Real { quality } => {
                let rgb = &c.disk[f.rgb.take().expect("ReadInFromDisk ran")];
                // Full scale is the source itself, which `scale_eighths`
                // would copy: encode it where it lies.
                let jpeg = if tag.scale == 8 {
                    jpeg_encode(rgb, quality)
                } else {
                    jpeg_encode(&rgb.scale_eighths(tag.scale), quality)
                };
                f.jpeg = Some(Arc::new(jpeg));
            }
            CompressMode::TimedHold(d) => {
                std::thread::sleep(d);
                f.jpeg = Some(placeholder.clone());
            }
            CompressMode::Spin(d) => {
                let t0 = std::time::Instant::now();
                let mut x = 0u64;
                while t0.elapsed() < d {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    std::hint::black_box(x);
                }
                f.jpeg = Some(placeholder.clone());
            }
        }
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("StoreInCache", move |f: &mut ImageFlow| {
        let tag = f.tag.expect("tag set");
        let jpeg = f.jpeg.clone().expect("Compress ran");
        c.cache.lock().store(tag, jpeg);
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("Complete", move |f: &mut ImageFlow| {
        let tag = f.tag.expect("tag set");
        c.cache.lock().release(&tag);
        c.served.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = &c.driver {
            if f.close {
                d.remove(f.socket);
            } else {
                d.arm(f.socket);
            }
        }
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("FourOhFour", move |f: &mut ImageFlow| {
        if let Some(conn) = f.conn.clone() {
            let mut wire = Vec::new();
            Response::not_found()
                .write_to(&mut wire, false)
                .expect("serializing a response to memory cannot fail");
            let _ = conn.lock().write_all(&wire);
        }
        if let Some(d) = &c.driver {
            d.remove(f.socket);
        }
        NodeOutcome::Ok
    });

    (program, reg, ctx)
}

/// A running image server — what [`crate::ServerBuilder::spawn`]
/// returns for an [`ImageConfig`].
pub type ImageServer = RunningServer<ImageFlow, Arc<ImageCtx>>;

/// Stops an image server: shuts down the driver (when one exists),
/// sources and runtime.
pub fn stop(server: ImageServer) {
    if let Some(d) = &server.ctx.driver {
        d.stop();
    }
    server.handle.server().request_shutdown();
    server.handle.stop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_runtime::RuntimeKind;

    #[test]
    fn tag_parsing() {
        assert_eq!(
            ImageTag::from_path("/img3-5.jpg"),
            Some(ImageTag { image: 3, scale: 5 })
        );
        assert_eq!(ImageTag::from_path("/img3-9.jpg"), None);
        assert_eq!(ImageTag::from_path("/img3.jpg"), None);
        assert_eq!(ImageTag::from_path("/x.jpg"), None);
    }

    #[test]
    fn synthetic_run_completes_and_caches() {
        let server = crate::ServerBuilder::new(ImageConfig {
            source: ImageSource::Synthetic {
                interarrival: Duration::ZERO,
                total: 200,
            },
            compress: CompressMode::Real { quality: 60 },
            images: 5,
            image_size: 64,
            cache_bytes: 4 * 1024 * 1024,
        })
        .runtime(RuntimeKind::ThreadPool { workers: 4 })
        .spawn();
        server.handle.join();
        assert_eq!(server.ctx.served.load(Ordering::Relaxed), 200);
        let cache = server.ctx.cache.lock();
        // 5 images x 8 scales = 40 distinct keys; 200 requests must hit.
        assert!(cache.hits > 0, "cache hits: {}", cache.hits);
        assert!(cache.misses >= 40);
    }

    #[test]
    fn synthetic_run_on_event_runtime() {
        let server = crate::ServerBuilder::new(ImageConfig {
            source: ImageSource::Synthetic {
                interarrival: Duration::ZERO,
                total: 100,
            },
            compress: CompressMode::TimedHold(Duration::from_micros(200)),
            images: 3,
            image_size: 32,
            cache_bytes: 1 << 20,
        })
        .runtime(RuntimeKind::event_driven_sharded(1, 2))
        .spawn();
        server.handle.join();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.ctx.served.load(Ordering::Relaxed) < 100
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.ctx.served.load(Ordering::Relaxed), 100);
    }

    /// Runtime independence extends to the staged (SEDA-style) runtime:
    /// the identical server definition completes unchanged.
    #[test]
    fn synthetic_run_on_staged_runtime() {
        let server = crate::ServerBuilder::new(ImageConfig {
            source: ImageSource::Synthetic {
                interarrival: Duration::ZERO,
                total: 100,
            },
            compress: CompressMode::Real { quality: 60 },
            images: 3,
            image_size: 32,
            cache_bytes: 1 << 20,
        })
        .runtime(RuntimeKind::Staged { stage_workers: 2 })
        .spawn();
        server.handle.join();
        assert_eq!(server.ctx.served.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn net_mode_serves_jpeg() {
        use flux_net::MemNet;
        use std::io::Write as _;
        let net = MemNet::new();
        let listener = net.listen("img").unwrap();
        let server = crate::ServerBuilder::new(ImageConfig {
            source: ImageSource::Net(Box::new(listener)),
            compress: CompressMode::Real { quality: 70 },
            images: 2,
            image_size: 48,
            cache_bytes: 1 << 20,
        })
        .runtime(RuntimeKind::ThreadPool { workers: 2 })
        .spawn();
        let mut conn = net.connect("img").unwrap();
        write!(
            conn,
            "GET /img1-4.jpg HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, body) = flux_http::read_response(&mut conn).unwrap();
        assert_eq!(status, 200);
        assert!(flux_image::jpeg_probe(&body).is_ok(), "serves a real JPEG");
        // A missing image 404s through the error handler.
        let mut conn = net.connect("img").unwrap();
        write!(
            conn,
            "GET /img99-4.jpg HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, _) = flux_http::read_response(&mut conn).unwrap();
        assert_eq!(status, 404);

        stop(server);
    }

    #[test]
    fn hit_path_skips_compress() {
        // Profile-enabled run: the hit path must appear once warm.
        let (program, reg, ctx) = build(ImageConfig {
            source: ImageSource::Synthetic {
                interarrival: Duration::ZERO,
                total: 100,
            },
            compress: CompressMode::Real { quality: 50 },
            images: 1,
            image_size: 32,
            cache_bytes: 1 << 20,
        });
        let server = Arc::new(flux_runtime::FluxServer::with_profiling(program, reg).unwrap());
        let handle = flux_runtime::start(server.clone(), RuntimeKind::ThreadPool { workers: 2 });
        handle.join();
        let report =
            server
                .profiler()
                .unwrap()
                .report(server.program(), 0, flux_runtime::HotOrder::ByCount);
        let hit = report
            .iter()
            .find(|h| h.info.nodes == vec!["ReadRequest", "CheckCache", "Write", "Complete"]);
        assert!(hit.is_some(), "hit path executed: {report:?}");
        let _ = ctx;
    }
}
