//! The Flux streaming pub/sub server: windowed per-topic aggregation
//! with refcounted multicast fan-out.
//!
//! Where the other four servers are request/response, this one is a
//! *streaming* workload: producers publish at high rate, subscribers
//! receive a continuous feed, and one inbound event fans out to N
//! outbound writes. It exercises the two pieces of infrastructure built
//! for it — [`flux_net::SharedPayload`] (one encoded buffer submitted
//! to every subscriber, returned to the pool by whichever connection
//! drains last) and topic-keyed session pinning
//! ([`NodeRegistry::session_pinned`]): the session key is a hash of the
//! *topic*, not the connection, so a topic's window state always
//! executes on its home dispatcher shard.
//!
//! # Protocol
//!
//! Newline-delimited text, one command per line (trailing `\r`
//! tolerated):
//!
//! ```text
//! SUB <topic>            -> +OK <topic>
//! PUB <topic> <value>    (no acknowledgement)
//! ```
//!
//! Every publish triggers one aggregation round on the topic and one
//! fan-out message to every current subscriber:
//!
//! ```text
//! MSG <topic> <seq> <count> <top-k> <last>
//! ```
//!
//! where `<seq>` is the total values ever published to the topic,
//! `<count>` the current window population, `<top-k>` the k most
//! frequent window values as `value:count` pairs joined by commas
//! (`-` when the window is empty), and `<last>` echoes the value of
//! the publish that triggered the round (the fan-out benchmark embeds
//! a timestamp there to measure end-to-end latency). Unrecognized
//! lines are dropped.
//!
//! # Window semantics
//!
//! Each topic keeps a count-based sliding window of the last
//! [`PubSubSpec::window`] published values (default 64) with
//! incremental frequency counts; top-k (default 3) is recomputed per
//! round over the ≤window distinct values. The whole state lives in
//! one striped map entry whose flows are pinned to the topic's home
//! shard, so the common path takes an uncontended stripe lock.
//!
//! # Fan-out
//!
//! `Aggregate` encodes the `MSG` line **once** into a driver-pooled
//! buffer and seals it into a [`flux_net::SharedPayload`]; `Fanout`
//! submits that one buffer to every subscriber
//! ([`ConnDriver::submit_write_shared`]), so the payload-copy count
//! per publish is exactly 1 regardless of the subscriber count. A
//! subscriber that stops draining is evicted when its output buffer
//! hits `max_pending_out` (counted in
//! [`flux_net::DriverCounters::slow_consumer_evicted`]); its token
//! then fails fast on the next round and is pruned from the topic.

use crate::builder::{RunningServer, ServerSpec};
use flux_core::CompiledProgram;
use flux_net::{ConnDriver, DriverEvent, Listener, NetConfig, SharedPayload, Token};
use flux_runtime::{FanoutStat, NodeOutcome, NodeRegistry, SourceOutcome};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The Flux program (mirrors `programs/pubsub.flux`): one source, two
/// predicate-dispatched paths (subscribe and publish), session-scoped
/// atomicity on the topic state.
pub const FLUX_SRC: &str = r#"
    Listen () => (int token, pubsub_cmd *cmd);
    Subscribe (int token, pubsub_cmd *cmd) => (int token, pubsub_cmd *cmd);
    Ack (int token, pubsub_cmd *cmd) => ();
    Aggregate (int token, pubsub_cmd *cmd) => (int token, pubsub_cmd *cmd);
    Fanout (int token, pubsub_cmd *cmd) => ();
    Drop (int token, pubsub_cmd *cmd) => ();

    typedef is_sub IsSub;
    typedef is_pub IsPub;

    source Listen => Cmd;
    Cmd:[_, is_sub] = Subscribe -> Ack;
    Cmd:[_, is_pub] = Aggregate -> Fanout;
    Cmd:[_, _] = Drop;

    handle error Subscribe => Drop;
    handle error Aggregate => Drop;

    atomic Subscribe: {topics(session)};
    atomic Aggregate: {topics(session)};
    atomic Fanout: {topics(session)};
"#;

/// One parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PubSubCmd {
    /// `SUB <topic>`: register the connection as a subscriber.
    Sub { topic: String },
    /// `PUB <topic> <value>`: publish. Consecutive publishes to the
    /// same topic from one readable burst coalesce into one command
    /// (one aggregation round, one fan-out — `values.len() - 1` counts
    /// as coalesced).
    Pub { topic: String, values: Vec<String> },
    /// Anything unparseable; routed to `Drop`.
    Junk,
}

impl PubSubCmd {
    fn topic(&self) -> Option<&str> {
        match self {
            PubSubCmd::Sub { topic } | PubSubCmd::Pub { topic, .. } => Some(topic),
            PubSubCmd::Junk => None,
        }
    }
}

/// Per-flow payload: the originating connection and its command, plus
/// the fields `Aggregate` hands to `Fanout` (the sealed payload and the
/// subscriber snapshot).
pub struct PubSubFlow {
    pub token: Token,
    pub cmd: PubSubCmd,
    payload: Option<SharedPayload>,
    subs: Vec<Token>,
}

impl PubSubFlow {
    fn new(token: Token, cmd: PubSubCmd) -> Self {
        PubSubFlow {
            token,
            cmd,
            payload: None,
            subs: Vec::new(),
        }
    }

    /// Session key: FNV-1a of the topic, so every flow touching a topic
    /// — and therefore its window state — homes on one dispatcher
    /// shard. Junk flows key on the connection instead (they touch no
    /// shared state, any shard will do).
    fn session_key(&self) -> u64 {
        match self.cmd.topic() {
            Some(topic) => fnv1a(topic.as_bytes()),
            None => self.token,
        }
    }
}

/// FNV-1a: deterministic (unlike `std`'s keyed SipHash), cheap on the
/// short topic names this protocol carries.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One topic's sliding-window state plus its subscriber list.
struct TopicState {
    /// The last ≤window published values, oldest first.
    window: VecDeque<String>,
    /// Frequency of each distinct value currently in the window.
    counts: HashMap<String, u32>,
    /// Total values ever published to this topic.
    seq: u64,
    /// Subscriber tokens; dead ones are pruned lazily when a fan-out
    /// submission reports the token gone.
    subs: Vec<Token>,
}

impl TopicState {
    fn new() -> Self {
        TopicState {
            window: VecDeque::new(),
            counts: HashMap::new(),
            seq: 0,
            subs: Vec::new(),
        }
    }

    /// Applies one published value to the window.
    fn push(&mut self, value: String, window: usize) {
        self.seq += 1;
        *self.counts.entry(value.clone()).or_insert(0) += 1;
        self.window.push_back(value);
        while self.window.len() > window {
            let old = self.window.pop_front().expect("window non-empty");
            if let Some(n) = self.counts.get_mut(&old) {
                *n -= 1;
                if *n == 0 {
                    self.counts.remove(&old);
                }
            }
        }
    }

    /// The k most frequent window values as `value:count` pairs joined
    /// by commas (ties broken by value for determinism), `-` when the
    /// window is empty.
    fn topk(&self, k: usize) -> String {
        if self.counts.is_empty() {
            return "-".to_string();
        }
        let mut pairs: Vec<(&String, u32)> = self.counts.iter().map(|(v, &n)| (v, n)).collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        pairs.truncate(k);
        let mut out = String::new();
        for (i, (v, n)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(v);
            out.push(':');
            out.push_str(&n.to_string());
        }
        out
    }
}

/// How many lock stripes the topic map spreads over. Pinning already
/// keeps each topic's flows on one shard; the stripes only decorrelate
/// *different* topics that share a shard.
const TOPIC_STRIPES: usize = 16;

/// Shared server context captured by the node closures.
pub struct PubSubCtx {
    pub driver: Arc<ConnDriver>,
    /// Fan-out counters; the builder shares this very block into
    /// [`flux_runtime::ServerStats::fanout`].
    pub fanout: Arc<FanoutStat>,
    /// `MSG` payload encodes. The zero-copy invariant the tests assert:
    /// `encodes == fanout.publishes` — one encode per aggregation
    /// round, no matter how many subscribers the round delivered to.
    pub encodes: AtomicU64,
    /// Successful `SUB` registrations.
    pub subscriptions: AtomicU64,
    topics: Vec<Mutex<HashMap<String, TopicState>>>,
    window: usize,
    topk: usize,
}

impl PubSubCtx {
    fn stripe(&self, topic: &str) -> &Mutex<HashMap<String, TopicState>> {
        &self.topics[(fnv1a(topic.as_bytes()) % TOPIC_STRIPES as u64) as usize]
    }

    /// Current subscriber count of a topic (test/ops introspection).
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.stripe(topic)
            .lock()
            .get(topic)
            .map_or(0, |t| t.subs.len())
    }
}

/// The pub/sub server's build spec: what [`crate::ServerBuilder`]
/// consumes.
pub struct PubSubSpec {
    pub listener: Box<dyn Listener>,
    /// Sliding-window size in values (default 64).
    pub window: usize,
    /// How many top values each `MSG` reports (default 3).
    pub topk: usize,
}

impl PubSubSpec {
    pub fn new(listener: Box<dyn Listener>) -> Self {
        PubSubSpec {
            listener,
            window: 64,
            topk: 3,
        }
    }

    /// Overrides the sliding-window size.
    pub fn window(mut self, values: usize) -> Self {
        self.window = values.max(1);
        self
    }

    /// Overrides how many top values each `MSG` reports.
    pub fn topk(mut self, k: usize) -> Self {
        self.topk = k.max(1);
        self
    }
}

impl ServerSpec for PubSubSpec {
    type Flow = PubSubFlow;
    type Ctx = Arc<PubSubCtx>;

    fn build(self, net: &NetConfig) -> (CompiledProgram, NodeRegistry<PubSubFlow>, Arc<PubSubCtx>) {
        build_spec(self, net)
    }

    fn driver(ctx: &Arc<PubSubCtx>) -> Option<Arc<ConnDriver>> {
        Some(ctx.driver.clone())
    }

    fn fanout(ctx: &Arc<PubSubCtx>) -> Option<Arc<FanoutStat>> {
        Some(ctx.fanout.clone())
    }
}

/// How many driver events one `Listen` poll may drain (same bound as
/// the web server's batched hot path).
const LISTEN_BATCH: usize = 128;

/// Largest single read per readable event. Leftover bytes re-trigger
/// readiness after the re-arm, so a firehose publisher cannot starve
/// the rest of the reactor round.
const READ_CHUNK: usize = 16 * 1024;

/// Parses one protocol line (`\r`-tolerant, already `\n`-stripped).
fn parse_line(line: &[u8]) -> PubSubCmd {
    let line = match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    };
    let Ok(line) = std::str::from_utf8(line) else {
        return PubSubCmd::Junk;
    };
    let mut words = line.splitn(3, ' ');
    match (words.next(), words.next(), words.next()) {
        (Some("SUB"), Some(topic), None) if !topic.is_empty() => PubSubCmd::Sub {
            topic: topic.to_string(),
        },
        (Some("PUB"), Some(topic), Some(value)) if !topic.is_empty() && !value.is_empty() => {
            PubSubCmd::Pub {
                topic: topic.to_string(),
                values: vec![value.to_string()],
            }
        }
        _ => PubSubCmd::Junk,
    }
}

/// Drains the complete lines of one readable burst into flows,
/// coalescing consecutive publishes to the same topic into one command.
/// Returns how many extra publishes were coalesced.
fn parse_burst(token: Token, scratch: &mut Vec<u8>, flows: &mut Vec<PubSubFlow>) -> u64 {
    let mut consumed = 0;
    let mut coalesced = 0;
    while let Some(nl) = scratch[consumed..].iter().position(|&b| b == b'\n') {
        let line = &scratch[consumed..consumed + nl];
        consumed += nl + 1;
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            PubSubCmd::Pub { topic, mut values } => {
                // Coalesce into the immediately preceding publish to the
                // same topic: one flow, one aggregation round, one
                // fan-out for the whole burst.
                if let Some(PubSubFlow {
                    token: prev,
                    cmd:
                        PubSubCmd::Pub {
                            topic: prev_topic,
                            values: prev_values,
                        },
                    ..
                }) = flows.last_mut()
                {
                    if *prev == token && *prev_topic == topic {
                        prev_values.append(&mut values);
                        coalesced += 1;
                        continue;
                    }
                }
                flows.push(PubSubFlow::new(token, PubSubCmd::Pub { topic, values }));
            }
            cmd => flows.push(PubSubFlow::new(token, cmd)),
        }
    }
    scratch.drain(..consumed);
    coalesced
}

fn build_spec(
    spec: PubSubSpec,
    net: &NetConfig,
) -> (CompiledProgram, NodeRegistry<PubSubFlow>, Arc<PubSubCtx>) {
    let PubSubSpec {
        listener,
        window,
        topk,
    } = spec;
    let program = flux_core::compile(FLUX_SRC).expect("pub/sub Flux program compiles");
    let driver = Arc::new(ConnDriver::with_config(net));
    driver.spawn_acceptor(listener);
    let io_timeout = net.io_timeout;
    let ctx = Arc::new(PubSubCtx {
        driver,
        fanout: Arc::new(FanoutStat::default()),
        encodes: AtomicU64::new(0),
        subscriptions: AtomicU64::new(0),
        topics: (0..TOPIC_STRIPES)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
        window,
        topk,
    });

    let mut reg: NodeRegistry<PubSubFlow> = NodeRegistry::new();

    // Source: the readiness multiplexer *and* the protocol parser. The
    // topic must be known before the flow enters the runtime (the
    // session key is derived from it), so lines are split here, with
    // the partial tail of a burst kept in the connection's driver
    // scratch across events. Streaming connections are re-armed
    // immediately — a publisher's next burst must not wait for the
    // previous flow to complete.
    let c = ctx.clone();
    let events: Mutex<Vec<DriverEvent>> = Mutex::new(Vec::new());
    reg.source("Listen", move || {
        let mut buf = events.lock();
        buf.clear();
        if c.driver.next_events(&mut buf, LISTEN_BATCH, io_timeout) == 0 {
            return SourceOutcome::Skip;
        }
        let mut flows: Vec<PubSubFlow> = Vec::new();
        let mut coalesced = 0;
        for ev in buf.drain(..) {
            match ev {
                DriverEvent::Incoming(token) => c.driver.arm(token),
                DriverEvent::WriteDone(_) | DriverEvent::WriteFailed(_) => {}
                DriverEvent::Readable(token) => {
                    let Some(conn) = c.driver.get(token) else {
                        continue;
                    };
                    let mut chunk = [0u8; READ_CHUNK];
                    let read = {
                        use std::io::Read as _;
                        conn.lock().read(&mut chunk)
                    };
                    match read {
                        Ok(0) | Err(_) => {
                            // EOF or error: drop the connection; its
                            // subscriptions are pruned lazily when the
                            // next fan-out round finds the token gone.
                            c.driver.remove(token);
                        }
                        Ok(n) => {
                            let mut scratch = c.driver.take_read_buf(token);
                            scratch.extend_from_slice(&chunk[..n]);
                            let before = flows.len();
                            coalesced += parse_burst(token, &mut scratch, &mut flows);
                            if flows.len() > before {
                                // A complete protocol line is progress;
                                // trickled partial lines are not, so a
                                // slow-loris publisher stays reapable.
                                c.driver.mark_progress(token);
                            }
                            c.driver.put_read_buf(token, scratch);
                            c.driver.arm(token);
                        }
                    }
                }
            }
        }
        if coalesced > 0 {
            c.fanout
                .coalesced_publishes
                .fetch_add(coalesced, Ordering::Relaxed);
        }
        match flows.len() {
            0 => SourceOutcome::Skip,
            1 => SourceOutcome::New(flows.pop().expect("len checked")),
            _ => SourceOutcome::Batch(flows),
        }
    });

    // Topic-keyed session affinity: hash the *topic*, and tell the
    // runtime the key pins execution — every flow touching a topic runs
    // on the topic's home shard, so the stripe lock below is
    // uncontended on the steady-state path.
    reg.session_pinned("Listen", |f: &PubSubFlow| f.session_key());

    reg.predicate("IsSub", |f: &PubSubFlow| {
        matches!(f.cmd, PubSubCmd::Sub { .. })
    });
    reg.predicate("IsPub", |f: &PubSubFlow| {
        matches!(f.cmd, PubSubCmd::Pub { .. })
    });

    let c = ctx.clone();
    reg.node("Subscribe", move |f: &mut PubSubFlow| {
        let PubSubCmd::Sub { topic } = &f.cmd else {
            unreachable!("IsSub matched");
        };
        if c.driver.get(f.token).is_none() {
            return NodeOutcome::Err(1); // connection already gone
        }
        let mut stripe = c.stripe(topic).lock();
        let state = stripe.entry(topic.clone()).or_insert_with(TopicState::new);
        if !state.subs.contains(&f.token) {
            state.subs.push(f.token);
        }
        drop(stripe);
        c.subscriptions.fetch_add(1, Ordering::Relaxed);
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("Ack", move |f: &mut PubSubFlow| {
        let PubSubCmd::Sub { topic } = &f.cmd else {
            unreachable!("IsSub matched");
        };
        let mut buf = c.driver.take_write_buf();
        buf.extend_from_slice(b"+OK ");
        buf.extend_from_slice(topic.as_bytes());
        buf.push(b'\n');
        c.driver.submit_write_buf(f.token, buf);
        NodeOutcome::Ok
    });

    // Aggregate: apply the publish burst to the topic window, then
    // encode the MSG line exactly once into a pooled buffer and seal it
    // for sharing. The subscriber snapshot travels in the flow so
    // Fanout needs no second stripe lookup on the hot path.
    let c = ctx.clone();
    reg.node("Aggregate", move |f: &mut PubSubFlow| {
        let PubSubCmd::Pub { topic, values } = &f.cmd else {
            unreachable!("IsPub matched");
        };
        if values.is_empty() {
            return NodeOutcome::Err(1);
        }
        let last = values.last().expect("non-empty").clone();
        let mut stripe = c.stripe(topic).lock();
        let state = stripe.entry(topic.clone()).or_insert_with(TopicState::new);
        for value in values {
            state.push(value.clone(), c.window);
        }
        let mut buf = c.driver.take_write_buf();
        buf.extend_from_slice(b"MSG ");
        buf.extend_from_slice(topic.as_bytes());
        buf.extend_from_slice(
            format!(
                " {} {} {} {}\n",
                state.seq,
                state.window.len(),
                state.topk(c.topk),
                last
            )
            .as_bytes(),
        );
        f.subs.clear();
        f.subs.extend_from_slice(&state.subs);
        drop(stripe);
        f.payload = Some(c.driver.seal_write_buf(buf));
        c.encodes.fetch_add(1, Ordering::Relaxed);
        c.fanout.publishes.fetch_add(1, Ordering::Relaxed);
        NodeOutcome::Ok
    });

    // Fanout: submit the one sealed payload to every subscriber. Each
    // submission that reaches a live connection buffers an Arc clone,
    // never a copy; the buffer returns to the driver's pool when the
    // last connection drains (or fails). Tokens the driver no longer
    // knows — closed or slow-consumer-evicted — are pruned from the
    // topic here.
    let c = ctx.clone();
    reg.node("Fanout", move |f: &mut PubSubFlow| {
        let Some(payload) = f.payload.take() else {
            return NodeOutcome::Ok; // aggregation errored upstream
        };
        let PubSubCmd::Pub { topic, .. } = &f.cmd else {
            unreachable!("IsPub matched");
        };
        let mut delivered = 0u64;
        let mut dead: Vec<Token> = Vec::new();
        for &sub in &f.subs {
            if c.driver.submit_write_shared(sub, &payload) {
                delivered += 1;
            } else {
                dead.push(sub);
            }
        }
        if delivered > 0 {
            c.fanout.deliveries.fetch_add(delivered, Ordering::Relaxed);
        }
        if !dead.is_empty() {
            let mut stripe = c.stripe(topic).lock();
            if let Some(state) = stripe.get_mut(topic) {
                state.subs.retain(|t| !dead.contains(t));
            }
        }
        NodeOutcome::Ok
    });

    // Drop: terminal for junk lines and the error arms of
    // Subscribe/Aggregate. The connection stays armed (the source
    // re-arms on every read), so one bad line does not kill a session.
    reg.node("Drop", move |_f: &mut PubSubFlow| NodeOutcome::Ok);

    // Overload shedding (OverloadPolicy::Bounded): a command whose home
    // shard stands at the depth cap is answered `-BUSY` on the source
    // thread instead of queueing. The connection stays open — this is a
    // streaming protocol and the client may retry — and the shed count
    // lands in the runtime's overload stats.
    let c = ctx.clone();
    reg.on_shed(move |f: PubSubFlow| {
        let mut buf = c.driver.take_write_buf();
        buf.extend_from_slice(b"-BUSY\n");
        c.driver.submit_write_buf(f.token, buf);
    });

    (program, reg, ctx)
}

/// A running Flux pub/sub server plus its context — what
/// [`crate::ServerBuilder::spawn`] returns for a [`PubSubSpec`].
pub type PubSubServer = RunningServer<PubSubFlow, Arc<PubSubCtx>>;

/// Stops a pub/sub server: shuts down sources, the driver and runtime.
pub fn stop(server: PubSubServer) {
    server.ctx.driver.stop();
    server.handle.server().request_shutdown();
    server.handle.stop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_net::MemNet;
    use flux_runtime::RuntimeKind;
    use std::io::{BufRead, BufReader, Write};

    fn spawn_on(net: &Arc<MemNet>, runtime: RuntimeKind) -> PubSubServer {
        let listener = net.listen("pubsub").unwrap();
        crate::ServerBuilder::new(PubSubSpec::new(Box::new(listener)))
            .runtime(runtime)
            .spawn()
    }

    fn subscribe(net: &Arc<MemNet>, topic: &str) -> BufReader<flux_net::MemConn> {
        let mut conn = net.connect("pubsub").unwrap();
        writeln!(conn, "SUB {topic}").unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, format!("+OK {topic}\n"));
        reader
    }

    fn read_msg(reader: &mut BufReader<flux_net::MemConn>) -> Vec<String> {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "truncated: {line:?}");
        line.trim_end().split(' ').map(str::to_string).collect()
    }

    fn run_pubsub_test(runtime: RuntimeKind) {
        let net = MemNet::new();
        let server = spawn_on(&net, runtime);

        let mut sub_a = subscribe(&net, "news");
        let mut sub_b = subscribe(&net, "news");
        let mut publisher = net.connect("pubsub").unwrap();

        writeln!(publisher, "PUB news alpha").unwrap();
        for sub in [&mut sub_a, &mut sub_b] {
            let msg = read_msg(sub);
            assert_eq!(&msg[..4], &["MSG", "news", "1", "1"]);
            assert_eq!(&msg[4..], &["alpha:1", "alpha"]);
        }

        publisher
            .write_all(b"PUB news beta\nPUB news beta\n")
            .unwrap();
        // Whether the two lines coalesce depends on arrival timing;
        // drain rounds until seq reaches 3 on both subscribers.
        for sub in [&mut sub_a, &mut sub_b] {
            loop {
                let msg = read_msg(sub);
                assert_eq!(&msg[..2], &["MSG", "news"]);
                if msg[2] == "3" {
                    assert_eq!(msg[3], "3"); // window population
                    assert_eq!(msg[4], "beta:2,alpha:1");
                    assert_eq!(msg[5], "beta");
                    break;
                }
            }
        }

        // A topic nobody subscribes to still aggregates without error.
        writeln!(publisher, "PUB quiet x").unwrap();
        // Junk lines are dropped without killing the session.
        publisher.write_all(b"NOPE\nPUB news gamma\n").unwrap();
        for sub in [&mut sub_a, &mut sub_b] {
            let msg = read_msg(sub);
            assert_eq!(&msg[..3], &["MSG", "news", "4"]);
            assert_eq!(msg[5], "gamma");
        }

        let publishes = server.ctx.fanout.publishes.load(Ordering::Relaxed);
        let encodes = server.ctx.encodes.load(Ordering::Relaxed);
        assert_eq!(
            encodes, publishes,
            "zero-copy invariant: one encode per aggregation round"
        );
        // The deliveries counter is bumped *after* `submit_write_shared`
        // makes the bytes reader-visible, so the reads above can
        // complete a beat before the publisher flow's fetch_add lands —
        // wait for the counter rather than racing it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while server.ctx.fanout.deliveries.load(Ordering::Relaxed) < 2 * 3
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(server.ctx.fanout.deliveries.load(Ordering::Relaxed) >= 2 * 3);
        assert_eq!(server.ctx.subscriptions.load(Ordering::Relaxed), 2);
        stop(server);
    }

    #[test]
    fn pubsub_on_sharded_event_runtime() {
        run_pubsub_test(RuntimeKind::event_driven_sharded(4, 4));
    }

    #[test]
    fn pubsub_on_single_shard_event_runtime() {
        run_pubsub_test(RuntimeKind::event_driven_sharded(1, 4));
    }

    #[test]
    fn pubsub_on_thread_pool() {
        run_pubsub_test(RuntimeKind::ThreadPool { workers: 4 });
    }

    #[test]
    fn pubsub_on_thread_per_flow() {
        run_pubsub_test(RuntimeKind::ThreadPerFlow);
    }

    /// The acceptance invariant: with 8 subscribers, one publish
    /// encodes its payload exactly once (copy count 1) and submits the
    /// same shared buffer 8 times.
    #[test]
    fn one_publish_encodes_once_for_eight_subscribers() {
        let net = MemNet::new();
        let server = spawn_on(&net, RuntimeKind::event_driven_sharded(2, 4));

        let mut subs: Vec<_> = (0..8).map(|_| subscribe(&net, "bulk")).collect();
        let mut publisher = net.connect("pubsub").unwrap();
        writeln!(publisher, "PUB bulk payload-once").unwrap();
        for sub in &mut subs {
            let msg = read_msg(sub);
            assert_eq!(&msg[..2], &["MSG", "bulk"]);
            assert_eq!(msg[5], "payload-once");
        }

        assert_eq!(server.ctx.fanout.publishes.load(Ordering::Relaxed), 1);
        assert_eq!(
            server.ctx.encodes.load(Ordering::Relaxed),
            1,
            "payload-copy count per publish must be 1"
        );
        // As in `run_pubsub_test`: the counter is bumped after the bytes
        // are reader-visible, so wait for it rather than race it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while server.ctx.fanout.deliveries.load(Ordering::Relaxed) < 8
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(server.ctx.fanout.deliveries.load(Ordering::Relaxed), 8);
        assert_eq!(
            server
                .ctx
                .driver
                .counters()
                .writes_shared
                .load(Ordering::Relaxed),
            8
        );
        stop(server);
    }

    /// Subscribers that disconnect are pruned on the next round and do
    /// not break delivery to the rest.
    #[test]
    fn dead_subscribers_are_pruned() {
        let net = MemNet::new();
        let server = spawn_on(&net, RuntimeKind::event_driven_sharded(2, 4));

        let mut stays = subscribe(&net, "churn");
        let goes = subscribe(&net, "churn");
        drop(goes);

        let mut publisher = net.connect("pubsub").unwrap();
        // First round may still submit to the closing token; the one
        // that sticks around must receive every round.
        writeln!(publisher, "PUB churn one").unwrap();
        assert_eq!(read_msg(&mut stays)[5], "one");
        writeln!(publisher, "PUB churn two").unwrap();
        assert_eq!(read_msg(&mut stays)[5], "two");

        // The dead token is gone from the topic once a round saw it
        // fail (the EOF may race the first publish, hence the retry).
        for _ in 0..50 {
            if server.ctx.subscriber_count("churn") == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            writeln!(publisher, "PUB churn again").unwrap();
            read_msg(&mut stays);
        }
        assert_eq!(server.ctx.subscriber_count("churn"), 1);
        stop(server);
    }

    #[test]
    fn program_compiles_and_is_small() {
        let program = flux_core::compile(FLUX_SRC).unwrap();
        assert_eq!(program.flows.len(), 1);
        let lines = FLUX_SRC
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim().starts_with("//"))
            .count();
        assert!(
            lines <= 30,
            "Flux pub/sub server stays small: {lines} lines"
        );
    }

    #[test]
    fn parse_and_coalesce() {
        assert_eq!(parse_line(b"SUB a"), PubSubCmd::Sub { topic: "a".into() });
        assert_eq!(
            parse_line(b"PUB a hello world\r"),
            PubSubCmd::Pub {
                topic: "a".into(),
                values: vec!["hello world".into()],
            }
        );
        assert_eq!(parse_line(b"SUB"), PubSubCmd::Junk);
        assert_eq!(parse_line(b"PUB a"), PubSubCmd::Junk);
        assert_eq!(parse_line(b"GET /"), PubSubCmd::Junk);

        let mut scratch = b"PUB t 1\nPUB t 2\nPUB u 3\nPUB t 4\nSUB t\nPUB t 5\npartial".to_vec();
        let mut flows = Vec::new();
        let coalesced = parse_burst(7, &mut scratch, &mut flows);
        assert_eq!(coalesced, 1); // only the t:1/t:2 pair is consecutive
        assert_eq!(scratch, b"partial");
        assert_eq!(flows.len(), 5);
        assert_eq!(
            flows[0].cmd,
            PubSubCmd::Pub {
                topic: "t".into(),
                values: vec!["1".into(), "2".into()],
            }
        );
        assert!(matches!(&flows[3].cmd, PubSubCmd::Sub { topic } if topic == "t"));

        // Session keys: same topic, same key — whether SUB or PUB;
        // different topics diverge; junk keys on the connection token.
        assert_eq!(flows[0].session_key(), flows[2].session_key());
        assert_eq!(flows[0].session_key(), flows[3].session_key());
        assert_ne!(flows[0].session_key(), flows[1].session_key());
        assert_eq!(PubSubFlow::new(3, PubSubCmd::Junk).session_key(), 3);
    }

    /// Window semantics: values older than the window fall out of both
    /// the population and the top-k counts.
    #[test]
    fn window_evicts_and_topk_orders() {
        let mut state = TopicState::new();
        for v in ["a", "b", "a", "c", "a", "b"] {
            state.push(v.to_string(), 4);
        }
        // Window holds the last 4: [a, c, a, b].
        assert_eq!(state.seq, 6);
        assert_eq!(state.window.len(), 4);
        assert_eq!(state.topk(3), "a:2,b:1,c:1");
        assert_eq!(state.topk(1), "a:2");
        assert_eq!(TopicState::new().topk(3), "-");
    }
}
