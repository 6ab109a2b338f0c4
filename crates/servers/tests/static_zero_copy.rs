//! A static file leaves the web server by reference: serving it does
//! not grow the process. The response's body is the document root's own
//! buffer — `ReadFromDisk` takes a reference, `Write` submits the head
//! and that reference as one write, and what the socket does not take
//! at once is buffered as a reference too — so a hundred 1 MiB replies
//! add nothing to the peak resident set. (With a body copied into a
//! serialisation buffer and its unsent tail copied again, this loop
//! grows the peak by about 4 MiB: two responses in flight, two copies
//! each.)
//!
//! One test, alone in its file: the peak resident set belongs to the
//! process, and another test's allocations would count against it. It
//! runs the server once per readiness backend, one after the other, and
//! resets the process's peak to its current resident set before each
//! measurement.

#![cfg(target_os = "linux")]

mod util;

use flux_http::DocRoot;
use flux_net::{Listener as _, NetConfig, TcpAcceptor};
use flux_servers::web;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const FILE_LEN: usize = 1024 * 1024;
const ROUNDS: usize = 50;

fn file_byte(i: usize) -> u8 {
    (i % 251) as u8
}

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

/// Reads one `200` response through `buf` alone and checks every body
/// byte as it passes.
fn read_response_through(conn: &mut TcpStream, buf: &mut [u8]) {
    let mut filled = 0;
    let head_end = loop {
        let n = conn.read(&mut buf[filled..]).unwrap();
        assert!(n > 0, "EOF inside the response head");
        filled += n;
        if let Some(at) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
    };
    let head = std::str::from_utf8(&buf[..head_end]).unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    let announced: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .parse()
        .unwrap();
    assert_eq!(announced, FILE_LEN);

    let mut at = 0;
    let mut check = |bytes: &[u8]| {
        for &b in bytes {
            assert_eq!(b, file_byte(at), "body byte {at}");
            at += 1;
        }
    };
    check(&buf[head_end..filled]);
    let mut left = FILE_LEN - (filled - head_end);
    while left > 0 {
        let want = left.min(buf.len());
        let n = conn.read(&mut buf[..want]).unwrap();
        assert!(n > 0, "EOF inside the body");
        check(&buf[..n]);
        left -= n;
    }
}

#[test]
fn serving_a_static_file_does_not_grow_the_process() {
    for (backend, net) in util::per_backend() {
        static_file_leaves_by_reference(backend, net);
    }
}

fn static_file_leaves_by_reference(backend: &str, net: NetConfig) {
    let mut root = DocRoot::new();
    root.insert("/f.bin", (0..FILE_LEN).map(file_byte).collect::<Vec<u8>>());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(web::WebSpec::new(Box::new(acceptor), root))
        .net(net)
        .spawn();
    assert_eq!(server.ctx.driver.poller_backend(), backend);
    let counters = server.ctx.driver.counters();

    let mut conns: Vec<TcpStream> = (0..2)
        .map(|_| {
            let conn = TcpStream::connect(&addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            conn
        })
        .collect();
    let mut buf = vec![0u8; 64 * 1024];

    reset_peak_rss();
    let peak_before = peak_rss_kib();
    let shared_before = counters.writes_shared.load(Ordering::Relaxed);
    let submitted_before = counters.writes_submitted.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        // Both requests go out before either reply is read, so the
        // second reply waits in the server's output buffer.
        for conn in &mut conns {
            conn.write_all(b"GET /f.bin HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
        }
        for conn in &mut conns {
            read_response_through(conn, &mut buf);
        }
    }
    let grown = peak_rss_kib() - peak_before;

    let replies = (2 * ROUNDS) as u64;
    assert_eq!(
        counters.writes_shared.load(Ordering::Relaxed) - shared_before,
        replies,
        "{backend}: every body was submitted by reference"
    );
    assert_eq!(
        counters.writes_submitted.load(Ordering::Relaxed) - submitted_before,
        replies,
        "{backend}: head and body are one submission"
    );
    // A sanitizer's shadow and trace memory is resident too and grows
    // with every instrumented access; the bound is about this program's
    // own memory (CI's ThreadSanitizer leg sets `TSAN_OPTIONS`).
    if std::env::var_os("TSAN_OPTIONS").is_none() {
        assert!(
            grown < 1024,
            "{backend}: peak resident set grew by {grown} KiB over {replies} replies \
             of {FILE_LEN} bytes"
        );
    }
    // The last flow drops its response a beat after the client has read
    // the reply's last byte.
    let file = server.ctx.docroot.get("/f.bin").unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while file.ref_count() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        file.ref_count(),
        1,
        "{backend}: nothing still holds the file"
    );
    web::stop(server);
}
