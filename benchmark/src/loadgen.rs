//! The load generator: one thread, non-blocking sockets, one readiness
//! loop. Closed phases send a connection's next request when the last
//! one completes; open phases send on a fixed schedule, queue at the
//! client when every connection is busy, and time each request from
//! the moment it was due, so a server stall shows in the latency of
//! every request due during it.

use crate::stats::{WindowSummary, Windows};
use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN};
use crate::workload::{parse_message, HttpInputs, TopicModel, SUBSCRIBERS};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// An operation unanswered for this long has failed.
const OP_TIMEOUT: Duration = Duration::from_secs(1);
const MAX_HEAD: usize = 64 * 1024;
/// Body bytes one readiness event may read before the loop looks at its
/// schedule again: copying a megabyte out of the kernel takes longer than
/// an open phase's arrivals may be late.
const READ_BUDGET: usize = 128 * 1024;
const MAX_BODY: usize = 16 * 1024 * 1024;

/// One finished operation.
pub struct Done {
    pub conn: usize,
    /// Checked payload bytes it delivered.
    pub bytes: u64,
    pub outcome: Result<(), &'static str>,
}

/// A set of connections speaking one protocol.
pub trait Endpoint {
    /// Connections that issue operations, one in flight each.
    fn conns(&self) -> usize;
    /// Every socket to watch, passive ones included.
    fn poll_set(&mut self) -> &mut [PollFd];
    /// Sends the next operation of the seeded stream on idle `conn`.
    fn start(&mut self, conn: usize) -> io::Result<()>;
    /// Handles readiness of poll-set entry `index`.
    fn ready(&mut self, index: usize, revents: i16, done: &mut Vec<Done>);
    /// Replaces the sockets of `conn` after a failed operation.
    fn reset(&mut self, conn: usize) -> io::Result<()>;
    /// A check over the endpoint's whole state, made when a phase ends.
    fn end_check(&self) -> Result<(), &'static str> {
        Ok(())
    }
    /// Operations at the head of the stream that are scripted, not
    /// drawn: the workload's warm pass.
    fn scripted(&self) -> usize {
        0
    }
}

#[derive(Clone, Copy)]
pub enum Pacing {
    /// This many operations in all, each connection sending its next
    /// when the last completes: the set-up handshake, a scripted pass.
    Count(usize),
    /// Next operation when the last completes, for the duration.
    Closed(Duration),
    /// Arrivals every `1/rate_rps` seconds for the duration.
    Open { rate_rps: f64, duration: Duration },
}

pub struct PhaseResult {
    pub summary: WindowSummary,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<&'static str>,
    /// Open phases: how late each send was, against the later of its due
    /// time and the moment its connection fell idle.
    pub lag_us: Vec<f64>,
    /// CPU time of the generator's thread over the phase's length.
    pub cpu_share: f64,
    pub elapsed: Duration,
}

/// The state of one phase in progress.
struct Phase {
    pacing: Pacing,
    start: Instant,
    end: Instant,
    /// Gap between arrivals of an open phase.
    interval: Option<Duration>,
    /// Arrivals of an open phase generated so far.
    arrivals: u32,
    /// Due times of arrivals no connection was free for.
    backlog: VecDeque<Instant>,
    /// Operations `Pacing::Count` has still to start.
    count_left: usize,
    /// Per connection: when its operation in flight was due and sent.
    in_flight: Vec<Option<(Instant, Instant)>>,
    idle_since: Vec<Instant>,
    windows: Windows,
    attempted: u64,
    failed: u64,
    first_failure: Option<&'static str>,
    lag_us: Vec<f64>,
}

impl Phase {
    fn fail(&mut self, why: &'static str) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// When the next arrival of an open phase is due, if one is left.
    fn next_arrival(&self) -> Option<Instant> {
        let due = self.start + self.interval? * self.arrivals;
        (due < self.end).then_some(due)
    }

    /// Starts every operation that is due on a connection that is free.
    fn issue(&mut self, ep: &mut dyn Endpoint, now: Instant) -> io::Result<()> {
        while let Some(due) = self.next_arrival().filter(|&due| due <= now) {
            self.backlog.push_back(due);
            self.arrivals += 1;
        }
        for conn in 0..self.in_flight.len() {
            if self.in_flight[conn].is_some() {
                continue;
            }
            let due = match self.pacing {
                Pacing::Count(_) if self.count_left > 0 => {
                    self.count_left -= 1;
                    now
                }
                Pacing::Closed(_) if now < self.end => now,
                Pacing::Open { .. } => match self.backlog.pop_front() {
                    Some(due) => {
                        let could_send = due.max(self.idle_since[conn]);
                        self.lag_us
                            .push(now.saturating_duration_since(could_send).as_secs_f64() * 1e6);
                        due
                    }
                    None => break,
                },
                _ => break,
            };
            self.attempted += 1;
            match ep.start(conn) {
                Ok(()) => self.in_flight[conn] = Some((due, now)),
                Err(_) => {
                    self.fail("send failed");
                    ep.reset(conn)?;
                }
            }
        }
        Ok(())
    }

    /// Books finished operations as of `now`.
    fn complete(&mut self, ep: &mut dyn Endpoint, done: &mut Vec<Done>, now: Instant) -> io::Result<()> {
        for d in done.drain(..) {
            let Some((due, _)) = self.in_flight[d.conn].take() else {
                continue;
            };
            self.idle_since[d.conn] = now;
            match d.outcome {
                Ok(()) => self.windows.record(
                    (now - self.start).as_micros() as u64,
                    (now - due).as_secs_f64() * 1e6,
                    d.bytes,
                ),
                Err(why) => {
                    self.fail(why);
                    ep.reset(d.conn)?;
                }
            }
        }
        Ok(())
    }

    /// Fails operations unanswered for [`OP_TIMEOUT`].
    fn expire(&mut self, ep: &mut dyn Endpoint, now: Instant) -> io::Result<()> {
        for conn in 0..self.in_flight.len() {
            if self.in_flight[conn].is_some_and(|(_, sent)| now >= sent + OP_TIMEOUT) {
                self.in_flight[conn] = None;
                self.idle_since[conn] = now;
                self.fail("unanswered within 1 s");
                ep.reset(conn)?;
            }
        }
        Ok(())
    }

    /// How long the loop may sleep: until the phase ends, an operation
    /// times out, or the next arrival is due on a free connection.
    fn timeout(&self, now: Instant, hard_stop: Instant) -> Duration {
        let mut until = if now < self.end { self.end } else { hard_stop };
        for (_, sent) in self.in_flight.iter().flatten() {
            until = until.min(*sent + OP_TIMEOUT);
        }
        if self.in_flight.iter().any(Option::is_none) {
            until = self.next_arrival().map_or(until, |next| until.min(next));
        }
        until.saturating_duration_since(now)
    }
}

/// Runs one phase on the first `conns` connections of `ep`. The
/// calling thread sleeps in its waits: the server is free to run on the
/// generator's CPU, and a thread that polled without sleeping would
/// starve it there.
pub fn run_phase(ep: &mut dyn Endpoint, pacing: Pacing, conns: usize) -> io::Result<PhaseResult> {
    let conns = conns.min(ep.conns());
    let (duration, interval) = match pacing {
        Pacing::Count(_) => (Duration::ZERO, None),
        Pacing::Closed(d) => (d, None),
        Pacing::Open { rate_rps, duration } => (duration, Some(Duration::from_secs_f64(1.0 / rate_rps))),
    };
    let start = Instant::now();
    let cpu_before = sys::thread_cpu_time();
    let mut phase = Phase {
        pacing,
        start,
        end: start + duration,
        interval,
        arrivals: 0,
        backlog: VecDeque::new(),
        count_left: if let Pacing::Count(n) = pacing { n } else { 0 },
        in_flight: vec![None; conns],
        idle_since: vec![start; conns],
        windows: Windows::new(duration),
        attempted: 0,
        failed: 0,
        first_failure: None,
        lag_us: Vec::new(),
    };
    // Completions may trail the end by an operation's timeout; a counted
    // phase has no end but its count, and a generous deadline.
    let hard_stop = match pacing {
        Pacing::Count(_) => start + Duration::from_secs(30),
        _ => phase.end + OP_TIMEOUT + OP_TIMEOUT,
    };
    let mut done: Vec<Done> = Vec::new();
    let mut events: Vec<(usize, i16)> = Vec::new();
    loop {
        let now = Instant::now();
        phase.issue(ep, now)?;
        let drained = phase.in_flight.iter().all(Option::is_none) && phase.backlog.is_empty();
        if (drained && now >= phase.end && phase.count_left == 0) || now >= hard_stop {
            break;
        }
        let fds = ep.poll_set();
        let ready = sys::wait(fds, phase.timeout(now, hard_stop))?;
        if ready > 0 {
            events.clear();
            events.extend(
                fds.iter()
                    .enumerate()
                    .filter(|(_, fd)| fd.revents != 0)
                    .map(|(i, fd)| (i, fd.revents)),
            );
            for &(index, revents) in &events {
                ep.ready(index, revents, &mut done);
                let now = Instant::now();
                phase.complete(ep, &mut done, now)?;
                // An arrival that fell due while responses were being
                // read goes out now, not after the last of them.
                if interval.is_some() {
                    phase.issue(ep, now)?;
                }
            }
        }
        phase.expire(ep, Instant::now())?;
    }
    // Arrivals never sent and operations never answered have failed.
    let stranded = phase.backlog.len() as u64 + phase.in_flight.iter().flatten().count() as u64;
    phase.attempted += phase.backlog.len() as u64;
    phase.failed += stranded;
    if stranded > 0 {
        phase
            .first_failure
            .get_or_insert("unanswered at the end of the phase");
    }
    if let Err(why) = ep.end_check() {
        phase.fail(why);
    }
    let elapsed = start.elapsed();
    Ok(PhaseResult {
        summary: phase.windows.summarize(),
        attempted: phase.attempted,
        failed: phase.failed,
        first_failure: phase.first_failure,
        lag_us: phase.lag_us,
        cpu_share: (sys::thread_cpu_time() - cpu_before).as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
        elapsed,
    })
}

/// Opens one client connection of the generator: `TCP_NODELAY`, and a
/// read timeout for the blocking reads of set-up.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    Ok(stream)
}

/// Called after a read that leaves this side waiting for more with
/// nothing to send (in the middle of a response, or on a subscriber,
/// which never sends): acknowledges what has arrived now. Delaying
/// acknowledgements is a policy of the client's TCP stack, and a
/// generator that keeps it measures that policy, not the server.
pub fn ack_now(stream: &TcpStream) {
    sys::quick_ack(stream.as_raw_fd());
}

/// Writes `bytes` to a non-blocking socket; requests are far smaller
/// than a socket buffer, so a short write is an error, not a state.
fn send_all(stream: &mut TcpStream, bytes: &[u8]) -> io::Result<()> {
    match stream.write(bytes) {
        Ok(n) if n == bytes.len() => Ok(()),
        Ok(_) => Err(io::Error::new(ErrorKind::WriteZero, "short write of a request")),
        Err(e) => Err(e),
    }
}

struct HttpConn {
    stream: TcpStream,
    busy: bool,
    target: usize,
    /// Response head so far, then any body bytes that came with it.
    head: Vec<u8>,
    /// `Some((status, body length))` once the head is complete.
    parsed: Option<(u16, usize)>,
    /// Reused across responses; only `..body length` is meaningful.
    body: Vec<u8>,
    filled: usize,
}

impl HttpConn {
    fn open(addr: SocketAddr) -> io::Result<HttpConn> {
        let stream = connect(addr)?;
        stream.set_nonblocking(true)?;
        Ok(HttpConn {
            stream,
            busy: false,
            target: 0,
            head: Vec::with_capacity(512),
            parsed: None,
            body: Vec::new(),
            filled: 0,
        })
    }

    /// Reads what the socket holds. `Ok(true)` when a whole response is
    /// in `body`.
    fn read_response(&mut self) -> Result<bool, &'static str> {
        let mut budget = READ_BUDGET;
        loop {
            let read = match self.parsed {
                None => {
                    let old = self.head.len();
                    self.head.resize(old + 4096, 0);
                    let r = self.stream.read(&mut self.head[old..]);
                    self.head.truncate(old + *r.as_ref().unwrap_or(&0));
                    r
                }
                Some((_, len)) => {
                    let upto = len.min(self.filled + budget);
                    self.stream.read(&mut self.body[self.filled..upto])
                }
            };
            match read {
                Ok(0) => return Err("connection closed by the server"),
                Ok(n) => match self.parsed {
                    Some((_, len)) => {
                        self.filled += n;
                        if self.filled == len {
                            return Ok(true);
                        }
                        budget -= n;
                        if budget == 0 {
                            // The socket stays readable and the loop
                            // comes back, after sending what fell due.
                            return Ok(false);
                        }
                    }
                    None => {
                        // The terminator may straddle two reads.
                        let from = (self.head.len() - n).saturating_sub(3);
                        let Some(at) = self.head[from..].windows(4).position(|w| w == b"\r\n\r\n") else {
                            if self.head.len() > MAX_HEAD {
                                return Err("response head too large");
                            }
                            continue;
                        };
                        let head_end = from + at + 4;
                        let (status, len) = parse_head(&self.head[..head_end])?;
                        if self.body.len() < len {
                            self.body.resize(len, 0);
                        }
                        let extra = self.head.len() - head_end;
                        if extra > len {
                            return Err("more bytes than Content-Length");
                        }
                        self.body[..extra].copy_from_slice(&self.head[head_end..]);
                        self.filled = extra;
                        self.parsed = Some((status, len));
                        if extra == len {
                            return Ok(true);
                        }
                    }
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Mid-response: the server may be waiting for this
                    // side's acknowledgement before it sends the rest.
                    ack_now(&self.stream);
                    return Ok(false);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err("connection reset"),
            }
        }
    }
}

/// Status and `Content-Length` of a complete response head.
pub fn parse_head(head: &[u8]) -> Result<(u16, usize), &'static str> {
    let text = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8")?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1."))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or("no Content-Length")?;
    if len > MAX_BODY {
        return Err("Content-Length too large");
    }
    Ok((status, len))
}

/// Keep-alive HTTP: `web_small`, `web_large` and `image_zipf`.
pub struct HttpEndpoint {
    addr: SocketAddr,
    inputs: HttpInputs,
    /// Targets to request before the seeded stream begins.
    script: VecDeque<usize>,
    conns: Vec<HttpConn>,
    fds: Vec<PollFd>,
}

impl HttpEndpoint {
    pub fn connect(addr: SocketAddr, inputs: HttpInputs, conns: usize) -> io::Result<HttpEndpoint> {
        let conns: Vec<HttpConn> = (0..conns)
            .map(|_| HttpConn::open(addr))
            .collect::<io::Result<_>>()?;
        let fds = conns
            .iter()
            .map(|c| PollFd::new(c.stream.as_raw_fd(), POLLIN))
            .collect();
        Ok(HttpEndpoint {
            addr,
            script: inputs.warm_pass().into(),
            inputs,
            conns,
            fds,
        })
    }
}

impl Endpoint for HttpEndpoint {
    fn conns(&self) -> usize {
        self.conns.len()
    }

    fn poll_set(&mut self) -> &mut [PollFd] {
        &mut self.fds
    }

    fn start(&mut self, conn: usize) -> io::Result<()> {
        let request = match self.script.pop_front() {
            Some(target) => self.inputs.request_for(target),
            None => self.inputs.next_request(),
        };
        let c = &mut self.conns[conn];
        c.target = request.target;
        c.busy = true;
        c.head.clear();
        c.parsed = None;
        send_all(&mut c.stream, &request.wire)
    }

    fn ready(&mut self, index: usize, revents: i16, done: &mut Vec<Done>) {
        let c = &mut self.conns[index];
        if revents & (POLLIN | POLLERR | POLLHUP) == 0 || !c.busy {
            // Nothing is owed on an idle connection; bytes or a hang-up
            // here surface as a failure of its next operation.
            return;
        }
        let outcome = match c.read_response() {
            Ok(false) => return,
            Ok(true) => {
                let (status, len) = c.parsed.expect("a whole response has a parsed head");
                self.inputs.check(c.target, status, &c.body[..len])
            }
            Err(why) => Err(why),
        };
        c.busy = false;
        let bytes = c.parsed.map_or(0, |(_, len)| len as u64);
        done.push(Done {
            conn: index,
            bytes,
            outcome,
        });
    }

    fn scripted(&self) -> usize {
        self.script.len()
    }

    fn reset(&mut self, conn: usize) -> io::Result<()> {
        self.conns[conn] = HttpConn::open(self.addr)?;
        self.fds[conn] = PollFd::new(self.conns[conn].stream.as_raw_fd(), POLLIN);
        Ok(())
    }
}

struct Subscriber {
    stream: TcpStream,
    buf: Vec<u8>,
    last_seq: u64,
}

struct Topic {
    model: TopicModel,
    publisher: TcpStream,
    subscribers: Vec<Subscriber>,
    /// The `MSG` line of the publish in flight, as the model has it.
    expected: Vec<u8>,
    in_flight: bool,
    delivered: usize,
    bytes: u64,
}

impl Topic {
    /// Connects the publisher and its passive subscribers; returns once
    /// the server has acknowledged every subscription.
    fn open(addr: SocketAddr, model: TopicModel) -> io::Result<Topic> {
        let publisher = connect(addr)?;
        publisher.set_nonblocking(true)?;
        let mut subscribers = Vec::with_capacity(SUBSCRIBERS);
        for _ in 0..SUBSCRIBERS {
            let mut stream = connect(addr)?;
            stream.write_all(format!("SUB {}\n", model.topic).as_bytes())?;
            let want = format!("+OK {}\n", model.topic);
            let mut ack = vec![0u8; want.len()];
            stream.read_exact(&mut ack)?;
            if ack != want.as_bytes() {
                return Err(io::Error::other("subscription not acknowledged"));
            }
            stream.set_nonblocking(true)?;
            subscribers.push(Subscriber {
                stream,
                buf: Vec::new(),
                last_seq: 0,
            });
        }
        Ok(Topic {
            model,
            publisher,
            subscribers,
            expected: Vec::new(),
            in_flight: false,
            delivered: 0,
            bytes: 0,
        })
    }

    /// Reads subscriber `k`'s socket and checks every whole line.
    fn read_subscriber(&mut self, k: usize) -> Result<(), &'static str> {
        let sub = &mut self.subscribers[k];
        let mut chunk = [0u8; 4096];
        loop {
            match sub.stream.read(&mut chunk) {
                Ok(0) => return Err("subscriber closed by the server"),
                Ok(n) => sub.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    ack_now(&sub.stream);
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err("subscriber reset"),
            }
        }
        let mut consumed = 0;
        while let Some(nl) = sub.buf[consumed..].iter().position(|&b| b == b'\n') {
            let line = &sub.buf[consumed..consumed + nl + 1];
            consumed += nl + 1;
            let msg = parse_message(&line[..nl])?;
            if msg.topic != self.model.topic {
                return Err("MSG for another topic");
            }
            if msg.seq <= sub.last_seq {
                return Err("seq out of order");
            }
            if msg.seq > self.model.seq {
                return Err("seq ahead of the publisher");
            }
            if msg.seq == self.model.seq {
                // One publisher per topic makes the index exact, so the
                // whole line is known: window count, top-k and value.
                if line != self.expected.as_slice() {
                    return Err("MSG differs from the reference model");
                }
                if self.in_flight {
                    self.delivered += 1;
                }
            }
            sub.last_seq = msg.seq;
            self.bytes += line.len() as u64;
        }
        sub.buf.drain(..consumed);
        Ok(())
    }
}

/// `pubsub_fanout`: connection `i` publishes to topic `i`; an operation
/// is one publish, complete when all its subscribers hold the message.
pub struct PubSubEndpoint {
    addr: SocketAddr,
    topics: Vec<Topic>,
    fds: Vec<PollFd>,
}

/// Poll-set entries per topic: the publisher, then its subscribers.
const PER_TOPIC: usize = 1 + SUBSCRIBERS;

impl PubSubEndpoint {
    pub fn connect(addr: SocketAddr, models: Vec<TopicModel>) -> io::Result<PubSubEndpoint> {
        let topics: Vec<Topic> = models
            .into_iter()
            .map(|m| Topic::open(addr, m))
            .collect::<io::Result<_>>()?;
        let mut ep = PubSubEndpoint {
            addr,
            topics,
            fds: Vec::new(),
        };
        ep.rebuild_poll_set();
        Ok(ep)
    }

    fn rebuild_poll_set(&mut self) {
        self.fds = self
            .topics
            .iter()
            .flat_map(|t| {
                std::iter::once(t.publisher.as_raw_fd())
                    .chain(t.subscribers.iter().map(|s| s.stream.as_raw_fd()))
            })
            .map(|fd| PollFd::new(fd, POLLIN))
            .collect();
    }
}

impl Endpoint for PubSubEndpoint {
    fn conns(&self) -> usize {
        self.topics.len()
    }

    fn poll_set(&mut self) -> &mut [PollFd] {
        &mut self.fds
    }

    fn start(&mut self, conn: usize) -> io::Result<()> {
        let t = &mut self.topics[conn];
        let (publish, message) = t.model.publish();
        t.expected = message;
        t.in_flight = true;
        t.delivered = 0;
        t.bytes = 0;
        send_all(&mut t.publisher, &publish)
    }

    fn ready(&mut self, index: usize, _revents: i16, done: &mut Vec<Done>) {
        let (conn, k) = (index / PER_TOPIC, index % PER_TOPIC);
        let t = &mut self.topics[conn];
        let outcome = if k == 0 {
            // The server never writes to a publisher: readiness here is a
            // hang-up or an error line.
            Err("publisher connection closed or answered")
        } else {
            t.read_subscriber(k - 1)
        };
        if !t.in_flight || (outcome.is_ok() && t.delivered < SUBSCRIBERS) {
            return;
        }
        t.in_flight = false;
        done.push(Done {
            conn,
            bytes: t.bytes,
            outcome,
        });
    }

    fn reset(&mut self, conn: usize) -> io::Result<()> {
        // The server keeps the topic's sequence; so does the model.
        let old = self.topics.remove(conn);
        self.topics.insert(conn, Topic::open(self.addr, old.model)?);
        self.rebuild_poll_set();
        Ok(())
    }

    /// Streaming progress: within a topic no subscriber may trail its
    /// peers by more than one publish.
    fn end_check(&self) -> Result<(), &'static str> {
        for t in &self.topics {
            let seqs = t.subscribers.iter().map(|s| s.last_seq);
            let (lo, hi) = (seqs.clone().min().unwrap_or(0), seqs.max().unwrap_or(0));
            if hi - lo > 1 {
                return Err("a subscriber stalled while its peers advanced");
            }
        }
        Ok(())
    }
}

/// Median round trip of a 64-byte echo on one connection to `addr`,
/// through the same non-blocking read and `ppoll` path the phases use:
/// the part of a request's latency that is loopback and generator.
pub fn rtt_floor_us(addr: SocketAddr, rounds: usize) -> io::Result<f64> {
    let mut stream = connect(addr)?;
    stream.set_nonblocking(true)?;
    let mut fds = [PollFd::new(stream.as_raw_fd(), POLLIN)];
    let payload = [0x5Au8; 64];
    let mut back = [0u8; 64];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        send_all(&mut stream, &payload)?;
        let mut got = 0;
        while got < payload.len() {
            sys::wait(&mut fds, OP_TIMEOUT)?;
            match stream.read(&mut back[got..]) {
                Ok(0) => return Err(io::Error::other("echo listener closed")),
                Ok(n) => got += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if t0.elapsed() > OP_TIMEOUT {
                        return Err(io::Error::other("echo unanswered"));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Inputs};
    use std::net::TcpListener;

    /// A fake keep-alive HTTP server for the web workloads' inputs:
    /// answers every request correctly after `mangle` has had its way
    /// with the response, and sleeps `stall` once, before answering the
    /// request with index `stall_at`.
    fn fake_server(
        inputs: HttpInputs,
        conns: usize,
        stall_at: usize,
        stall: Duration,
        mangle: fn(usize, &mut u16, &mut Vec<u8>),
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut streams: Vec<TcpStream> = (0..conns).map(|_| listener.accept().unwrap().0).collect();
            for s in &streams {
                s.set_nonblocking(true).unwrap();
                s.set_nodelay(true).unwrap();
            }
            let mut bufs = vec![Vec::new(); conns];
            let mut served = 0usize;
            let mut open = conns;
            while open > 0 {
                let mut idle = true;
                for (s, buf) in streams.iter_mut().zip(&mut bufs) {
                    let mut chunk = [0u8; 1024];
                    match s.read(&mut chunk) {
                        Ok(0) => {
                            open -= 1;
                            // Park the closed socket on a dead read.
                            *s = TcpStream::connect(addr).unwrap();
                            s.set_nonblocking(true).unwrap();
                            continue;
                        }
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        Err(_) => continue,
                    }
                    idle = false;
                    while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head = String::from_utf8(buf.drain(..end + 4).collect()).unwrap();
                        let path = head.split(' ').nth(1).unwrap().to_string();
                        let target = (0..inputs.targets()).find(|&t| inputs.path(t) == path).unwrap();
                        if served == stall_at {
                            std::thread::sleep(stall);
                        }
                        let mut status = 200;
                        let mut body = inputs.web_files()[target].body.clone();
                        mangle(served, &mut status, &mut body);
                        served += 1;
                        let head = format!("HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n", body.len());
                        s.set_nonblocking(false).unwrap();
                        s.write_all(head.as_bytes()).unwrap();
                        s.write_all(&body).unwrap();
                        s.set_nonblocking(true).unwrap();
                    }
                }
                if idle {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        });
        (addr, handle)
    }

    fn web_inputs() -> HttpInputs {
        match generate("web_small", 11, 2, None).unwrap() {
            Inputs::Http(h) => h,
            _ => unreachable!(),
        }
    }

    fn no_mangle(_: usize, _: &mut u16, _: &mut Vec<u8>) {}

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_due_during_it() {
        let stall = Duration::from_millis(50);
        let (addr, server) = fake_server(web_inputs(), 2, 300, stall, no_mangle);
        let mut ep = HttpEndpoint::connect(addr, web_inputs(), 2).unwrap();
        // 1000 rps for 1 s: about 50 arrivals fall due inside the stall.
        let r = run_phase(
            &mut ep,
            Pacing::Open {
                rate_rps: 1000.0,
                duration: Duration::from_secs(1),
            },
            2,
        )
        .unwrap();
        drop(ep);
        server.join().unwrap();
        assert_eq!((r.attempted, r.failed), (1000, 0), "{:?}", r.first_failure);
        // A generator that waits for the stalled response before sending
        // on records one slow request per connection. Timed from the
        // scheduled send, the backlog drains as a ramp from 50 ms down:
        // every request due in the stall's first 25 ms is over 25 ms
        // late, and those are more than the slowest hundredth.
        assert!(r.summary.p99_us > 25_000.0, "p99 {}", r.summary.p99_us);
        assert_eq!(r.lag_us.len(), 1000);
    }

    #[test]
    fn closed_loop_counts_every_operation_and_checks_it() {
        let (addr, server) = fake_server(web_inputs(), 2, usize::MAX, Duration::ZERO, no_mangle);
        let mut ep = HttpEndpoint::connect(addr, web_inputs(), 2).unwrap();
        let once = run_phase(&mut ep, Pacing::Count(2), 2).unwrap();
        assert_eq!((once.attempted, once.failed), (2, 0));
        let r = run_phase(&mut ep, Pacing::Closed(Duration::from_secs(1)), 2).unwrap();
        drop(ep);
        server.join().unwrap();
        assert_eq!(r.failed, 0, "{:?}", r.first_failure);
        assert!(r.attempted > 100);
        assert_eq!(r.summary.windows, 1);
        assert!(r.summary.samples as u64 <= r.attempted);
        assert!(r.summary.mib_per_s > 0.0);
    }

    #[test]
    fn wrong_responses_are_failures_not_samples() {
        fn mangle(served: usize, status: &mut u16, body: &mut Vec<u8>) {
            match served {
                3 => body[0] ^= 0x80,
                5 => {
                    body.pop();
                }
                7 => *status = 503,
                _ => {}
            }
        }
        let (addr, server) = fake_server(web_inputs(), 1, usize::MAX, Duration::ZERO, mangle);
        let mut ep = HttpEndpoint::connect(addr, web_inputs(), 1).unwrap();
        let mut failures = Vec::new();
        let mut done = Vec::new();
        for _ in 0..10 {
            ep.start(0).unwrap();
            while done.is_empty() {
                sys::wait(ep.poll_set(), Duration::from_secs(1)).unwrap();
                ep.ready(0, POLLIN, &mut done);
            }
            failures.push(done.pop().unwrap().outcome.err());
        }
        drop(ep);
        server.join().unwrap();
        let mut want = vec![None; 10];
        want[3] = Some("body hash differs");
        want[5] = Some("body length differs");
        want[7] = Some("status is not 200");
        assert_eq!(failures, want);
    }

    #[test]
    fn head_parser_needs_a_status_and_a_length() {
        assert_eq!(
            parse_head(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n"),
            Ok((200, 5))
        );
        assert_eq!(
            parse_head(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"),
            Ok((404, 0))
        );
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_head(b"ICY 200 OK\r\nContent-Length: 1\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n").is_err());
    }

    /// A fake pub/sub server for one topic with `SUBSCRIBERS` subscribers
    /// that relays what `script` makes of each publish.
    fn fake_pubsub(
        script: fn(u64, usize, &str) -> Option<String>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (publisher, _) = listener.accept().unwrap();
            let mut subs = Vec::new();
            for _ in 0..SUBSCRIBERS {
                let (mut s, _) = listener.accept().unwrap();
                let mut line = [0u8; 7];
                s.read_exact(&mut line).unwrap();
                assert_eq!(&line, b"SUB t0\n");
                s.write_all(b"+OK t0\n").unwrap();
                subs.push(s);
            }
            let mut reference = match generate("pubsub_fanout", 5, 1, None).unwrap() {
                Inputs::PubSub(mut t) => t.remove(0),
                _ => unreachable!(),
            };
            let mut lines = io::BufReader::new(publisher);
            let mut line = String::new();
            while io::BufRead::read_line(&mut lines, &mut line).unwrap() > 0 {
                let (_, message) = reference.publish();
                let message = String::from_utf8(message).unwrap();
                for (k, s) in subs.iter_mut().enumerate() {
                    if let Some(m) = script(reference.seq, k, &message) {
                        let _ = s.write_all(m.as_bytes());
                    }
                }
                line.clear();
            }
        });
        (addr, handle)
    }

    fn one_topic() -> Vec<TopicModel> {
        match generate("pubsub_fanout", 5, 1, None).unwrap() {
            Inputs::PubSub(mut t) => {
                t.truncate(1);
                t
            }
            _ => unreachable!(),
        }
    }

    fn publish_until_failure(
        script: fn(u64, usize, &str) -> Option<String>,
        publishes: usize,
    ) -> Option<&'static str> {
        let (addr, server) = fake_pubsub(script);
        let mut ep = PubSubEndpoint::connect(addr, one_topic()).unwrap();
        let mut failure = None;
        let mut done = Vec::new();
        'outer: for _ in 0..publishes {
            ep.start(0).unwrap();
            let deadline = Instant::now() + Duration::from_millis(300);
            while done.is_empty() {
                if Instant::now() > deadline {
                    failure = Some("timed out");
                    break 'outer;
                }
                sys::wait(ep.poll_set(), Duration::from_millis(50)).unwrap();
                let events: Vec<(usize, i16)> = ep
                    .poll_set()
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.revents != 0)
                    .map(|(i, f)| (i, f.revents))
                    .collect();
                for (i, revents) in events {
                    ep.ready(i, revents, &mut done);
                }
            }
            if let Err(why) = done.pop().unwrap().outcome {
                failure = Some(why);
                break;
            }
        }
        let end = ep.end_check().err();
        drop(ep);
        server.join().unwrap();
        failure.or(end)
    }

    #[test]
    fn faithful_fanout_passes() {
        assert_eq!(publish_until_failure(|_, _, m| Some(m.to_string()), 50), None);
    }

    #[test]
    fn repeated_seq_is_out_of_order() {
        // Subscriber 4 gets publish 10 twice.
        let script = |seq, k, m: &str| {
            Some(if seq == 10 && k == 4 {
                format!("{m}{m}")
            } else {
                m.to_string()
            })
        };
        assert_eq!(publish_until_failure(script, 20), Some("seq out of order"));
    }

    #[test]
    fn altered_message_differs_from_the_model() {
        let script = |seq, k, m: &str| {
            Some(if seq == 6 && k == 0 {
                m.replace(" v", " w")
            } else {
                m.to_string()
            })
        };
        assert_eq!(
            publish_until_failure(script, 20),
            Some("MSG differs from the reference model")
        );
    }

    #[test]
    fn stalled_subscriber_fails_the_publish() {
        let script = |seq, k, m: &str| (!(seq >= 3 && k == 15)).then(|| m.to_string());
        assert_eq!(publish_until_failure(script, 20), Some("timed out"));
    }
}
