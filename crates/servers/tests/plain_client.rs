//! A plain TCP client — `std::net::TcpStream` as the OS hands it out,
//! no `TCP_NODELAY`, no `TCP_QUICKACK` — must not pay the Nagle +
//! delayed-ACK stall on a server's responses: ~40 ms whenever a small
//! write sits behind an earlier one the client's stack has not yet
//! acknowledged. The servers avoid it by sending each response as one
//! write on a `TCP_NODELAY` socket.
//!
//! The client sends each request as one write, so any stall is the
//! server's doing. Each test warms the connection first: Linux
//! acknowledges a new connection's first segments at once ("quick-ack
//! mode"), which would hide the stall from the first dozen round trips.

mod util;

use flux_net::{Listener as _, NetConfig, TcpAcceptor};
use flux_servers::image::{self, CompressMode, ImageConfig, ImageSource};
use flux_servers::pubsub::{self, PubSubSpec};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const WARM_UP: usize = 20;
const ROUND_TRIPS: usize = 20;
const LIMIT: Duration = Duration::from_millis(20);

/// Median of `ROUND_TRIPS` timed calls after `WARM_UP` untimed ones.
fn median_round_trip(mut round_trip: impl FnMut(usize)) -> Duration {
    (0..WARM_UP).for_each(&mut round_trip);
    let mut times: Vec<Duration> = (WARM_UP..WARM_UP + ROUND_TRIPS)
        .map(|i| {
            let t0 = Instant::now();
            round_trip(i);
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

#[test]
fn image_responses_reach_a_plain_client_without_a_stall() {
    for (backend, net) in util::per_backend() {
        image_responses_without_a_stall(backend, net);
    }
}

fn image_responses_without_a_stall(backend: &str, net: NetConfig) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(ImageConfig {
        source: ImageSource::Net(Box::new(acceptor)),
        compress: CompressMode::Real { quality: 70 },
        images: 2,
        image_size: 48,
        cache_bytes: 1 << 20,
    })
    .net(net)
    .spawn();
    let driver = server
        .ctx
        .driver
        .as_ref()
        .expect("a networked image server");
    assert_eq!(driver.poller_backend(), backend);

    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    let median = median_round_trip(|_| {
        conn.write_all(b"GET /img1-4.jpg HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, body) = flux_http::read_response(&mut replies).unwrap();
        assert_eq!(status, 200);
        assert!(flux_image::jpeg_probe(&body).is_ok());
    });
    assert!(
        median < LIMIT,
        "{backend}: median request→response {median:?}"
    );

    // The 404 (head and body in one write, then close) arrives whole.
    conn.write_all(b"GET /img99-4.jpg HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, body) = flux_http::read_response(&mut replies).unwrap();
    assert_eq!(status, 404);
    assert!(!body.is_empty());

    image::stop(server);
}

/// The pub/sub shape that stalls is two server writes to one client
/// that also sends: a connection subscribed to two topics publishes to
/// both (one write) and waits for both `MSG`s. The second `MSG` is a
/// small write behind the unacknowledged first, and a client that
/// talks back delays its ACKs. (A subscriber that only listens
/// acknowledges as it reads, and never sees the stall.)
#[test]
fn pubsub_messages_reach_a_plain_client_without_a_stall() {
    for (backend, net) in util::per_backend() {
        pubsub_messages_without_a_stall(backend, net);
    }
}

fn pubsub_messages_without_a_stall(backend: &str, net: NetConfig) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(PubSubSpec::new(Box::new(acceptor)))
        .net(net)
        .spawn();
    assert_eq!(server.ctx.driver.poller_backend(), backend);

    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut feed = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    for topic in ["bids", "asks"] {
        conn.write_all(format!("SUB {topic}\n").as_bytes()).unwrap();
        line.clear();
        feed.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), format!("+OK {topic}"));
    }

    let median = median_round_trip(|i| {
        conn.write_all(format!("PUB bids v{i}\nPUB asks v{i}\n").as_bytes())
            .unwrap();
        let mut topics = Vec::new();
        for _ in 0..2 {
            line.clear();
            feed.read_line(&mut line).unwrap();
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!((fields[0], fields[5]), ("MSG", format!("v{i}").as_str()));
            topics.push(fields[1].to_string());
        }
        topics.sort();
        assert_eq!(topics, ["asks", "bids"]);
    });
    assert!(median < LIMIT, "{backend}: median publish→MSG {median:?}");

    pubsub::stop(server);
}
