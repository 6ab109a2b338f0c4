//! The replay: the benchmark as client *and* runtime of a workload's
//! own program, on one thread. A request is sent, the source is polled
//! until its flow emerges, the flow is stepped to its end, and the
//! response is read to its last byte — one after the other, so the
//! spans of a request add up to its wall time and the per-layer times
//! can be read off them. No other thread takes part but the network
//! driver's own.

use crate::adapter::Inline;
use crate::loadgen::{ack_now, connect, parse_head};
use crate::trace::{SpanSink, Trace};
use crate::workload::{HttpInputs, Inputs, TopicModel, SUBSCRIBERS};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Replayed {
    pub trace: Trace,
    /// Wall time of each request in microseconds, measured whether or
    /// not spans were on.
    pub walls_us: Vec<f64>,
    pub requests: u64,
    pub failed: u64,
    pub first_failure: Option<&'static str>,
}

/// Reads one HTTP response; returns its status, with the body in
/// `body`.
fn read_response(mut stream: &TcpStream, body: &mut Vec<u8>) -> Result<u16, &'static str> {
    let mut head = Vec::with_capacity(512);
    let head_end = loop {
        let old = head.len();
        head.resize(old + 4096, 0);
        let n = stream.read(&mut head[old..]).map_err(|_| "read failed")?;
        head.truncate(old + n);
        if n == 0 {
            return Err("connection closed by the server");
        }
        let from = old.saturating_sub(3);
        if let Some(at) = head[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
        ack_now(stream);
    };
    let (status, len) = parse_head(&head[..head_end])?;
    body.clear();
    body.extend_from_slice(&head[head_end..]);
    if body.len() > len {
        return Err("more bytes than Content-Length");
    }
    let mut have = body.len();
    body.resize(len, 0);
    while have < len {
        // The rest may be waiting for an acknowledgement of the head.
        ack_now(stream);
        match stream.read(&mut body[have..]) {
            Ok(0) | Err(_) => return Err("short body"),
            Ok(n) => have += n,
        }
    }
    Ok(status)
}

/// Reads one newline-terminated line of a subscriber's stream.
fn read_line(stream: &mut TcpStream, line: &mut Vec<u8>) -> Result<(), &'static str> {
    line.clear();
    let mut chunk = [0u8; 256];
    while line.last() != Some(&b'\n') {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return Err("subscriber stream ended"),
            Ok(n) => line.extend_from_slice(&chunk[..n]),
        }
    }
    ack_now(stream);
    Ok(())
}

/// One traced request: `send`, the inline runtime's spans, `drain`.
struct Exchange<'a> {
    inline: &'a mut Inline,
    trace: Option<&'a mut Trace>,
}

impl Exchange<'_> {
    fn run(
        &mut self,
        request: u64,
        send: impl FnOnce() -> io::Result<()>,
        drain: impl FnOnce() -> Result<(), &'static str>,
    ) -> (Duration, Result<(), &'static str>) {
        let start = Instant::now();
        if let Some(t) = self.trace.as_deref_mut() {
            t.begin_request(request, start);
        }
        let mut outcome = send().map_err(|_| "send failed");
        if let Some(t) = self.trace.as_deref_mut() {
            t.span("send", start, Instant::now());
        }
        let sink = self.trace.as_deref_mut().map(|t| t as &mut dyn SpanSink);
        if outcome.is_ok() && !self.inline.pump(1, sink) {
            outcome = Err("no flow emerged from the source");
        }
        let pumped = Instant::now();
        if outcome.is_ok() {
            outcome = drain();
        }
        let end = Instant::now();
        if let Some(t) = self.trace.as_deref_mut() {
            t.span("drain", pumped, end);
            t.end_request(end);
        }
        (end - start, outcome)
    }
}

/// The client half of the replay, for either protocol.
enum Client<'a> {
    Http {
        http: &'a mut HttpInputs,
        stream: TcpStream,
        body: Vec<u8>,
    },
    PubSub {
        topic: &'a mut TopicModel,
        publisher: TcpStream,
        subscribers: Vec<TcpStream>,
        line: Vec<u8>,
    },
}

impl<'a> Client<'a> {
    fn connect(addr: SocketAddr, inputs: &'a mut Inputs, inline: &mut Inline) -> io::Result<Client<'a>> {
        match inputs {
            Inputs::Http(http) => Ok(Client::Http {
                http,
                stream: connect(addr)?,
                body: Vec::new(),
            }),
            Inputs::PubSub(topics) => {
                let topic = &mut topics[0];
                let mut subscribers = Vec::with_capacity(SUBSCRIBERS);
                let mut line = Vec::new();
                for _ in 0..SUBSCRIBERS {
                    let mut s = connect(addr)?;
                    s.write_all(format!("SUB {}\n", topic.topic).as_bytes())?;
                    // The subscription is a flow too; it is not traced.
                    if !inline.pump(1, None) {
                        return Err(io::Error::other("subscription never reached the source"));
                    }
                    read_line(&mut s, &mut line).map_err(io::Error::other)?;
                    subscribers.push(s);
                }
                Ok(Client::PubSub {
                    topic,
                    publisher: connect(addr)?,
                    subscribers,
                    line,
                })
            }
        }
    }

    /// Sends the next request of the seeded stream and checks what
    /// comes back.
    fn exchange(&mut self, ex: &mut Exchange, request: u64) -> (Duration, Result<(), &'static str>) {
        match self {
            Client::Http { http, stream, body } => {
                let next = http.next_request();
                let (mut tx, rx) = (&*stream, &*stream);
                ex.run(
                    request,
                    || tx.write_all(&next.wire),
                    || {
                        let status = read_response(rx, body)?;
                        http.check(next.target, status, body)
                    },
                )
            }
            Client::PubSub {
                topic,
                publisher,
                subscribers,
                line,
            } => {
                let (publish, message) = topic.publish();
                ex.run(
                    request,
                    || publisher.write_all(&publish),
                    || {
                        for s in subscribers.iter_mut() {
                            read_line(s, line)?;
                            if *line != message {
                                return Err("MSG differs from the reference model");
                            }
                        }
                        Ok(())
                    },
                )
            }
        }
    }
}

/// Replays `inputs`' request stream for `duration` against `inline`,
/// which listens on `addr`; `spans` turns span recording on.
pub fn replay(
    inline: &mut Inline,
    addr: SocketAddr,
    inputs: &mut Inputs,
    duration: Duration,
    spans: bool,
) -> io::Result<Replayed> {
    let mut client = Client::connect(addr, inputs, inline)?;
    let mut trace = Trace::new();
    let mut out = Replayed {
        trace: Trace::new(),
        walls_us: Vec::new(),
        requests: 0,
        failed: 0,
        first_failure: None,
    };
    // The first exchange also accepts the connection: not measured.
    let (_, warm) = client.exchange(&mut Exchange { inline, trace: None }, 0);
    warm.map_err(io::Error::other)?;
    let mut ex = Exchange {
        inline,
        trace: spans.then_some(&mut trace),
    };
    let end = Instant::now() + duration;
    while Instant::now() < end {
        let (wall, outcome) = client.exchange(&mut ex, out.requests);
        out.requests += 1;
        match outcome {
            Ok(()) => out.walls_us.push(wall.as_secs_f64() * 1e6),
            Err(why) => {
                // The stream's state is unknown after a failure.
                out.failed += 1;
                out.first_failure = Some(why);
                break;
            }
        }
    }
    out.trace = trace;
    Ok(out)
}
