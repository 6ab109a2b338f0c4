//! An image cache miss allocates only the JPEG it returns. The source
//! raster stays where it lies on the server's "disk": `ReadInFromDisk`
//! records its index, `Compress` encodes it in place at full scale (and
//! box-scales it only below that), and the encoder converts each 8×8
//! block from RGB on the stack and returns the JPEG at exactly its
//! length. So 256 requests over the default image server's 128 tags, all
//! of them misses, barely move the peak resident set.
//!
//! Measured with this file on a 2-vCPU x86-64 Linux host, release build,
//! all 256 requests missing: the loop grows `VmHWM` by 636-676 KiB (five
//! runs). With the source cloned twice per full-scale miss, three
//! whole-image `f32` planes built before the first block and a JPEG
//! buffer a quarter the raster's size, it grew by 1616-1664 KiB (three
//! runs). The bound sits between the two. The same loop on the poll
//! backend, run second in the same process after the peak is reset,
//! grows it by 400-564 KiB (five runs).
//!
//! One test, alone in its file: the peak resident set belongs to the
//! process, and another test's allocations would count against it. It
//! runs the server once per readiness backend, one after the other, and
//! resets the process's peak to its current resident set before each
//! measurement. The client keeps its own memory still while it measures:
//! every reply lands in an arena made resident beforehand, and the
//! expected JPEGs are encoded only after the peak has been read.

#![cfg(target_os = "linux")]

mod util;

use flux_image::jpeg_encode;
use flux_net::{Listener as _, NetConfig, TcpAcceptor};
use flux_servers::image::{self, CompressMode, ImageConfig, ImageSource};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::time::Duration;

const IMAGES: u32 = 16;
const QUALITY: u8 = 75;
/// Room for both passes' replies: 2 × 470 793 bytes of JPEG plus heads.
const ARENA_LEN: usize = 1 << 20;
/// Peak growth allowed over the loop, between the two figures above.
const BOUND_KIB: u64 = 1024;

/// `VmHWM` of this process, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Lowers `VmHWM` to the current resident set (`proc(5)`, `clear_refs`).
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").unwrap();
}

/// Reads one `200` reply into `arena[at..]` and returns its body's range.
fn read_reply(conn: &mut TcpStream, arena: &mut [u8], at: usize) -> Range<usize> {
    let mut filled = at;
    let head_end = loop {
        let n = conn.read(&mut arena[filled..]).unwrap();
        assert!(n > 0, "EOF inside the response head");
        filled += n;
        if let Some(i) = arena[at..filled].windows(4).position(|w| w == b"\r\n\r\n") {
            break at + i + 4;
        }
    };
    let head = std::str::from_utf8(&arena[at..head_end]).unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .parse()
        .unwrap();
    let end = head_end + len;
    while filled < end {
        let n = conn.read(&mut arena[filled..end]).unwrap();
        assert!(n > 0, "EOF inside the body");
        filled += n;
    }
    assert_eq!(filled, end, "one reply per request");
    head_end..end
}

#[test]
fn an_image_miss_allocates_only_its_jpeg() {
    for (backend, net) in util::per_backend() {
        misses_allocate_only_their_jpegs(backend, net);
    }
}

fn misses_allocate_only_their_jpegs(backend: &str, net: NetConfig) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(ImageConfig {
        source: ImageSource::Net(Box::new(acceptor)),
        images: IMAGES as usize,
        image_size: 256,
        cache_bytes: 112 * 1024,
        compress: CompressMode::Real { quality: QUALITY },
    })
    .net(net)
    .spawn();
    let driver = server
        .ctx
        .driver
        .as_ref()
        .expect("a networked image server");
    assert_eq!(driver.poller_backend(), backend);

    let mut conns: Vec<TcpStream> = (0..2)
        .map(|_| {
            let conn = TcpStream::connect(&addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            conn
        })
        .collect();
    let tags: Vec<(u32, u32)> = (0..IMAGES)
        .flat_map(|i| (1..=8).map(move |s| (i, s)))
        .collect();
    let requests: Vec<Vec<u8>> = tags
        .iter()
        .map(|(i, s)| format!("GET /img{i}-{s}.jpg HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes())
        .collect();
    // Filled with a non-zero byte, so every page is resident now.
    let mut arena = vec![0xA5u8; ARENA_LEN];
    let mut bodies: Vec<((u32, u32), Range<usize>)> = Vec::with_capacity(2 * tags.len());

    reset_peak_rss();
    let peak_before = peak_rss_kib();
    let misses_before = server.ctx.cache.lock().misses;
    let mut at = 0;
    for _pass in 0..2 {
        // Both connections' requests go out before either reply is read,
        // so two misses can be in the server at once.
        for first in (0..tags.len()).step_by(2) {
            let pair = [first, first + 1];
            for (conn, &k) in conns.iter_mut().zip(&pair) {
                conn.write_all(&requests[k]).unwrap();
            }
            for (conn, &k) in conns.iter_mut().zip(&pair) {
                let body = read_reply(conn, &mut arena, at);
                at = body.end;
                bodies.push((tags[k], body));
            }
        }
    }
    let grown = peak_rss_kib() - peak_before;
    let misses = server.ctx.cache.lock().misses - misses_before;

    for &((i, s), ref body) in &bodies {
        let expected = jpeg_encode(&server.ctx.disk[i as usize].scale_eighths(s), QUALITY);
        assert!(
            arena[body.clone()] == expected[..],
            "{backend}: /img{i}-{s}.jpg: {} bytes served, {} expected",
            body.len(),
            expected.len()
        );
    }
    // The first pass misses on every tag. The 112 KiB cache holds a
    // quarter of the 460 KiB of JPEGs and, with every count at one, evicts
    // the oldest, so the second pass misses again.
    assert!(misses >= tags.len() as u64, "{backend}: {misses} misses");
    // A sanitizer's shadow and trace memory is resident too and grows
    // with every instrumented access; the bound is about this program's
    // own memory (CI's ThreadSanitizer leg sets `TSAN_OPTIONS`).
    if std::env::var_os("TSAN_OPTIONS").is_none() {
        assert!(
            grown < BOUND_KIB,
            "{backend}: peak resident set grew by {grown} KiB over {} replies \
             ({misses} misses)",
            bodies.len()
        );
    }
    image::stop(server);
}
