//! The connection driver: a readiness queue over a table of connections.
//!
//! Flux flows are acyclic, so a keep-alive connection cannot loop inside
//! one flow; instead (as in the paper's web and BitTorrent servers, whose
//! source nodes select over existing clients) the *source* multiplexes:
//! it emits one unit of work per ready connection. The driver supplies
//! that readiness stream from three producers feeding one channel:
//!
//! * an **acceptor thread** per listener, queueing
//!   [`DriverEvent::Incoming`]. It waits in [`Listener::accept`] — for
//!   TCP a `poll(2)` on the listener fd, so a connect wakes it at once
//!   and a backlog drains in one wake; transient accept failures
//!   (`EMFILE`, `ECONNABORTED`, …) are retried with a short backoff
//!   instead of killing the listener, with retries counted in
//!   [`DriverCounters`];
//! * the in-memory transport's **watch callbacks** (zero threads: the
//!   writer's thread fires the callback at write time). Callbacks are
//!   *coalesced*: each appends to a shared buffer and only the
//!   empty→non-empty transition sends a channel marker
//!   ([`Delivery::Coalesced`]), so a burst of N mem writes costs one
//!   channel op, mirroring the reactor's batch delivery
//!   ([`DriverCounters::watch_coalesced`] counts the saved sends);
//! * the shared **readiness reactor** ([`crate::reactor::Reactor`]) for
//!   every transport that exposes a raw file descriptor (TCP). One
//!   reactor thread serves *all* registered sockets over the configured
//!   [`crate::poller::Poller`] backend (`poll(2)`, or `epoll(7)` — the
//!   Linux default; see [`NetConfig`]).
//!
//! **The hot path is slab-indexed and batched.** A [`Token`] encodes a
//! `(slot, generation)` pair ([`token_slot`]/[`token_gen`]): the
//! connection table is a slab of per-slot locks, so looking a token up
//! costs one shared read of the slot vector plus one uncontended
//! per-slot mutex — no global `Mutex<HashMap>` and no hashing — and a
//! `submit_write` on one connection never contends with another
//! connection's event dispatch. The generation in the token makes
//! stale handles safe: a removed token's generation never matches the
//! slot again (the slot's generation advances on every reuse), so a
//! late `get`/`submit_write`/`arm` against a closed connection is a
//! clean `None`/`false`, never a hit on the slot's next tenant.
//!
//! Readiness events travel in **batches**: the reactor ships one
//! recycled `Vec<DriverEvent>` per `wait` round and consumers drain it
//! through [`ConnDriver::next_events`], so a burst of N ready sockets
//! costs one channel transfer instead of N — the runtime's
//! `route_home_batch` then appends the whole batch to a shard queue
//! under one lock. [`ConnDriver::next_event`] remains for
//! one-at-a-time consumers (and is how non-batching servers poll).
//!
//! Read watches are one-shot: after a `Readable` event the connection is
//! quiescent until [`ConnDriver::arm`] is called again (the web server's
//! `Complete` node re-arms keep-alive connections).
//!
//! **The write path.** [`ConnDriver::submit_write`] queues response
//! bytes on the connection's output buffer without blocking: transports
//! that complete synchronously (the in-memory pipe, or TCP with socket
//! buffer room) emit [`DriverEvent::WriteDone`] immediately; a partial
//! TCP write arms a `POLLOUT` drain on the reactor, which batches
//! non-blocking writes until the buffer empties (`WriteDone`) or the
//! connection breaks (`WriteFailed`, after which the connection is
//! removed). `Write` nodes therefore never occupy an I/O worker thread
//! or hold a session lock across a send. [`ConnDriver::submit_write_buf`]
//! is the pooled variant: the payload `Vec` (checked out with
//! [`ConnDriver::take_write_buf`]) is recycled through a bounded
//! [`crate::pool::BytePool`] as soon as the transport has taken or
//! buffered the bytes, so steady-state response serialization performs
//! no heap allocation. [`ConnDriver::submit_response`] is the
//! two-part variant a web server replies through: a pooled head and a
//! refcounted [`SharedPayload`] body leave in one gather write and
//! count as one submission, and a body the socket could not take at
//! once is buffered by reference — a static file is never copied on
//! its way out. [`ConnDriver::remove_when_flushed`] defers a
//! close until every queued byte has drained, and
//! [`NetConfig::max_pending_out`] bounds each connection's buffer
//! (replacing the blocking path's socket-buffer backpressure) so a peer
//! that never reads cannot grow server memory without limit.
//!
//! [`ConnDriver::stop`] is a real shutdown: it joins the reactor,
//! acceptor and fallback-watch threads (all of which poll the stop flag
//! on bounded timeouts), so no driver thread can outlive the server and
//! fire into a dropped channel.

use crate::pool::{BatchPool, BytePool, SharedPayload};
use crate::traits::{Conn, Listener, WriteProgress};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A registered connection's identity: `(generation << 32) | slot`.
/// The slot indexes the driver's connection slab; the generation
/// distinguishes successive tenants of the same slot, so a stale token
/// can never alias a newer connection (see [`token_slot`]).
pub type Token = u64;

/// The slab slot a token addresses (low 32 bits).
#[inline]
pub fn token_slot(token: Token) -> usize {
    (token & 0xFFFF_FFFF) as usize
}

/// The registration generation a token carries (high 32 bits). The
/// driver's slots start at generation 1, so tokens it issues are
/// always `> u32::MAX`; small literal tokens (tests, synthetic timer
/// events) carry generation 0 and can never match a live slot.
#[inline]
pub fn token_gen(token: Token) -> u32 {
    (token >> 32) as u32
}

#[inline]
fn make_token(slot: u32, gen: u32) -> Token {
    ((gen as u64) << 32) | slot as u64
}

/// How long event consumers (server `Listen` sources) block in
/// [`ConnDriver::next_event`] per poll before re-checking their
/// shutdown flag.
pub const IO_TIMEOUT: Duration = Duration::from_millis(20);

/// Network-layer configuration, consumed by [`ConnDriver::with_config`]
/// and carried by `flux_servers::ServerBuilder` so every server,
/// example, bench harness and test constructs its driver the same way.
/// It is the only place these values are set: the driver reads them
/// once, at construction.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Which readiness backend multiplexes fd-backed transports:
    /// epoll on Linux, poll elsewhere. Tests set `Poll` here to run
    /// the poll backend on Linux. The only substitution is an epoll
    /// that fails to initialise coming up as poll, counted in
    /// [`DriverCounters::poller_fallbacks`].
    #[cfg(unix)]
    pub backend: crate::poller::PollerBackend,
    /// Per-connection output-buffer bound for the non-blocking write
    /// path. The blocking write path had natural backpressure (the
    /// socket buffer stalled the writer); the non-blocking path
    /// replaces it with this explicit bound: a submission that would
    /// exceed it fails and the connection is removed, so a peer that
    /// never reads cannot grow server memory without bound. Default
    /// 64 MiB.
    pub max_pending_out: usize,
    /// Hard cap on live registered connections (edge admission). An
    /// accept at capacity is completed and immediately closed — the
    /// kernel backlog keeps draining, the peer sees a clean reset-ish
    /// close instead of a hung SYN — and counted in
    /// [`DriverCounters::accepts_governed`]. `0` = unlimited (default).
    pub max_conns: usize,
    /// Idle / slow-loris reaping deadline: a connection that makes no
    /// *application progress* (request completed, response drained —
    /// see [`ConnDriver::mark_progress`]) for this long is removed by
    /// the periodic idle sweep, releasing its slab slot and reactor
    /// watch. Raw received bytes do NOT count as progress, so a
    /// slow-loris trickling header bytes forever is still reaped.
    /// `None` = no reaping (default).
    pub idle_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            #[cfg(unix)]
            backend: crate::poller::PollerBackend::default(),
            max_pending_out: 64 * 1024 * 1024,
            max_conns: 0,
            idle_timeout: None,
        }
    }
}

/// What the driver reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverEvent {
    /// A new connection was accepted and registered.
    Incoming(Token),
    /// A watched connection became readable (or hit EOF).
    Readable(Token),
    /// One submitted write fully reached the transport.
    WriteDone(Token),
    /// A submitted write failed; the connection has been removed.
    WriteFailed(Token),
}

/// What travels on the driver's event channel: the reactor ships one
/// recycled batch per `wait` round; mem-transport watch callbacks
/// accumulate into the driver's shared coalescing buffer and send one
/// `Coalesced` marker per empty→non-empty transition; everything else
/// (accepts, write completions) sends single events.
pub(crate) enum Delivery {
    One(DriverEvent),
    Batch(Vec<DriverEvent>),
    /// Marker: the watch coalescing buffer went non-empty. The events
    /// themselves are in [`ConnDriver::watch_batch`]; `unpack` drains
    /// it wholesale, so a burst of watch callbacks costs one channel
    /// send + one unpack instead of one channel op per event.
    Coalesced,
}

/// A shared handle to a registered connection. Nodes lock it for the
/// duration of one read/write interaction.
pub type SharedConn = Arc<Mutex<Box<dyn Conn>>>;

/// Driver-level counters, cheap enough to stay on in production. The
/// server glue publishes them into `flux_runtime::ServerStats` next to
/// the shard counters.
#[derive(Debug, Default)]
pub struct DriverCounters {
    /// Transient accept errors survived by the acceptor's retry loop.
    pub accept_retries: AtomicU64,
    /// Writes handed to [`ConnDriver::submit_write`].
    pub writes_submitted: AtomicU64,
    /// Writes fully drained (synchronously or by the reactor).
    pub writes_drained: AtomicU64,
    /// Times a write hit `WouldBlock` and (re-)armed a `POLLOUT` drain.
    pub write_would_block: AtomicU64,
    /// Writes that failed (connection removed).
    pub writes_failed: AtomicU64,
    /// Shared payloads handed to [`ConnDriver::submit_write_shared`]
    /// or, as a response body, to [`ConnDriver::submit_response`]
    /// (each is also counted in `writes_submitted`).
    pub writes_shared: AtomicU64,
    /// Connections evicted because a submission would push their
    /// output buffer past [`NetConfig::max_pending_out`] — the
    /// slow-consumer policy: drop the subscriber, never buffer without
    /// bound.
    pub slow_consumer_evicted: AtomicU64,
    /// Watch-callback events that piggybacked on an already-pending
    /// `Coalesced` marker instead of sending their own channel op —
    /// the mem-transport batching amortization factor.
    pub watch_coalesced: AtomicU64,
    /// Connections admitted by the acceptor (registered and announced
    /// as `Incoming`). With the overload books, `accepts_admitted +
    /// accepts_governed` equals the accepts the listener completed.
    pub accepts_admitted: AtomicU64,
    /// Accepts refused by edge admission: at [`NetConfig::max_conns`]
    /// capacity the connection is closed on the spot. The work never
    /// enters the system — refused at the edge, counted, not queued.
    pub accepts_governed: AtomicU64,
    /// Connections retired by the idle sweep: no application progress
    /// within [`NetConfig::idle_timeout`] (the slow-loris defence).
    pub idle_reaped: AtomicU64,
    /// Write submissions that joined an already non-empty output buffer
    /// (the connection is falling behind but is still under the
    /// eviction cap) — the backpressure signal operators see *before*
    /// the `slow_consumer_evicted` cliff.
    pub writes_deferred: AtomicU64,
    /// 1 when the requested epoll backend could not be constructed
    /// (`epoll_create1` failed, or the host is not Linux) and poll ran
    /// instead. Paired with [`ConnDriver::poller_backend`] so
    /// harnesses can refuse to attribute numbers to a backend that
    /// never actually ran.
    pub poller_fallbacks: AtomicU64,
}

/// One slab slot's state, behind its own lock. `gen` is written only
/// here (under the lock), so every token check is consistent with the
/// conn/write state it guards.
#[derive(Default)]
struct SlotState {
    /// Generation of the current (or, while the slot is free, the most
    /// recent) registration. Advances on every [`ConnDriver::add`], so
    /// a removed token can only false-match after 2^32 reuses of one
    /// slot — and even then only while the slot is empty, where every
    /// operation still observes `conn: None`.
    gen: u32,
    conn: Option<SharedConn>,
    /// Submissions whose bytes are still (partially) buffered.
    submissions: u64,
    /// Close the connection once the buffer drains
    /// ([`ConnDriver::remove_when_flushed`]).
    close_after: bool,
    /// Per-connection read scratch, reused across requests (see
    /// [`ConnDriver::take_read_buf`]).
    scratch: Vec<u8>,
    /// Milliseconds (since the driver's epoch) of the last observed
    /// application progress: set on registration, refreshed by
    /// [`ConnDriver::mark_progress`] and by successful write drains.
    /// The idle sweep reaps connections whose stamp falls behind
    /// [`NetConfig::idle_timeout`]. Raw received bytes deliberately do
    /// not refresh it — that is what makes slow-loris reapable.
    progress: u64,
    /// Raw fd captured at registration (fd-backed transports only).
    /// Lets the idle reaper sever the socket with `shutdown(2)`
    /// *without* taking the conn lock — a slow-loris peer's parked
    /// blocking read holds that lock indefinitely.
    #[cfg(unix)]
    fd: Option<std::os::fd::RawFd>,
}

type ConnSlot = Mutex<SlotState>;

/// `shutdown(2)` both directions — severs a socket without closing the
/// fd, so a thread parked in a blocking read on it returns EOF.
#[cfg(unix)]
const SHUT_RDWR: std::os::raw::c_int = 2;
#[cfg(unix)]
extern "C" {
    fn shutdown(sockfd: std::os::raw::c_int, how: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// Multiplexes connection readiness into a single event stream.
pub struct ConnDriver {
    tx: Sender<Delivery>,
    rx: Receiver<Delivery>,
    /// Events unpacked from deliveries, awaiting a consumer. Batches
    /// are recycled into `event_batches` the moment they are unpacked.
    pending: Mutex<VecDeque<DriverEvent>>,
    /// The connection slab: grow-only vector of per-slot locks. The
    /// outer `RwLock` is write-locked only to grow; every steady-state
    /// lookup takes the shared read path plus one per-slot mutex.
    slots: RwLock<Vec<Arc<ConnSlot>>>,
    /// Slots available for reuse. A slot is pushed here only after its
    /// reactor watch is deregistered, so a new tenant can never race a
    /// stale watch on the same slot.
    free_slots: Mutex<Vec<u32>>,
    conn_count: AtomicUsize,
    counters: Arc<DriverCounters>,
    /// Coalescing buffer for mem-transport watch callbacks (see
    /// [`Delivery::Coalesced`]). A separate `Arc` — not `Arc<Self>` —
    /// so a watch closure held by a connection never forms a
    /// driver → slot → conn → closure → driver reference cycle.
    watch_batch: Arc<Mutex<Vec<DriverEvent>>>,
    /// Recycled payload buffers for [`ConnDriver::submit_write_buf`]
    /// and [`ConnDriver::seal_write_buf`] (shared, so sealed payloads
    /// can return their buffer from any releasing thread).
    write_bufs: Arc<BytePool>,
    /// Recycled event vectors for the reactor's per-round batches.
    event_batches: Arc<BatchPool<DriverEvent>>,
    /// Per-connection output-buffer bound
    /// ([`NetConfig::max_pending_out`]).
    max_pending_out: usize,
    /// Live-connection cap for edge admission (0 = unlimited).
    max_conns: usize,
    /// Idle-reaping deadline in milliseconds (0 = reaping off).
    idle_timeout_ms: u64,
    /// The instant progress stamps are measured from.
    epoch: Instant,
    /// Next idle sweep due, in epoch-millis: the CAS here dedupes the
    /// sweep between its two drivers (the reactor's per-round tick and
    /// the acceptor loop, which covers fd-less transports).
    reap_next_due: AtomicU64,
    stopping: AtomicBool,
    /// Acceptor and fallback-watch threads, joined by [`ConnDriver::stop`].
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Work queue of the lazily spawned `flux-net-drain` thread (fd-less
    /// transports with buffered writes, i.e. the shaped mem transport).
    drain_tx: Mutex<Option<Sender<(Token, SharedConn)>>>,
    /// The readiness multiplexer for fd-backed transports (poll or
    /// epoll, per [`NetConfig::backend`]). Its thread is spawned lazily
    /// on the first fd registration.
    #[cfg(unix)]
    reactor: Arc<crate::reactor::Reactor>,
}

impl Default for ConnDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnDriver {
    /// A driver with the default [`NetConfig`] (epoll on Linux, poll
    /// elsewhere or when `epoll_create1` fails).
    pub fn new() -> Self {
        Self::with_config(&NetConfig::default())
    }

    /// A driver configured explicitly — the path every
    /// `flux_servers::ServerBuilder` takes.
    pub fn with_config(config: &NetConfig) -> Self {
        let (tx, rx) = unbounded();
        let event_batches = Arc::new(BatchPool::new(8));
        #[cfg(unix)]
        let reactor =
            crate::reactor::Reactor::new(tx.clone(), event_batches.clone(), config.backend);
        let counters = Arc::new(DriverCounters::default());
        #[cfg(unix)]
        if reactor.backend_fell_back() {
            counters.poller_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        ConnDriver {
            #[cfg(unix)]
            reactor,
            tx,
            rx,
            pending: Mutex::new(VecDeque::new()),
            slots: RwLock::new(Vec::new()),
            free_slots: Mutex::new(Vec::new()),
            conn_count: AtomicUsize::new(0),
            counters,
            watch_batch: Arc::new(Mutex::new(Vec::new())),
            write_bufs: Arc::new(BytePool::default()),
            event_batches,
            max_pending_out: config.max_pending_out,
            max_conns: config.max_conns,
            idle_timeout_ms: config.idle_timeout.map_or(0, |d| d.as_millis() as u64),
            epoch: Instant::now(),
            reap_next_due: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            drain_tx: Mutex::new(None),
        }
    }

    /// The readiness backend actually in use (`"poll"` or `"epoll"`,
    /// after the epoll → poll fallback — see
    /// [`DriverCounters::poller_fallbacks`]); `"none"` on non-unix
    /// hosts.
    pub fn poller_backend(&self) -> &'static str {
        #[cfg(unix)]
        {
            self.reactor.backend_name()
        }
        #[cfg(not(unix))]
        {
            "none"
        }
    }

    /// True when the reactor thread pinned itself to a core (multi-core
    /// hosts; see [`crate::affinity`]).
    #[cfg(unix)]
    pub fn reactor_pinned(&self) -> bool {
        self.reactor.pinned()
    }

    fn send_one(&self, ev: DriverEvent) {
        let _ = self.tx.send(Delivery::One(ev));
    }

    /// The per-slot lock for a token's slot, if the slot exists. The
    /// generation is checked by callers under the slot lock.
    fn slot_arc(&self, token: Token) -> Option<Arc<ConnSlot>> {
        self.slots.read().get(token_slot(token)).cloned()
    }

    /// Registers an existing connection, returning its token. No
    /// readiness watch is armed until [`ConnDriver::arm`].
    pub fn add(&self, conn: Box<dyn Conn>) -> Token {
        let (idx, slot) = match self.free_slots.lock().pop() {
            Some(i) => (i, self.slots.read()[i as usize].clone()),
            None => {
                let mut slots = self.slots.write();
                let i = slots.len() as u32;
                let s: Arc<ConnSlot> = Arc::new(Mutex::new(SlotState::default()));
                slots.push(s.clone());
                (i, s)
            }
        };
        let now = self.now_ms();
        #[cfg(unix)]
        let fd = conn.raw_fd();
        let gen = {
            let mut st = slot.lock();
            debug_assert!(st.conn.is_none(), "free slot must be empty");
            st.gen = st.gen.wrapping_add(1).max(1);
            st.conn = Some(Arc::new(Mutex::new(conn)));
            st.submissions = 0;
            st.close_after = false;
            st.progress = now;
            #[cfg(unix)]
            {
                st.fd = fd;
            }
            st.gen
        };
        self.conn_count.fetch_add(1, Ordering::Relaxed);
        make_token(idx, gen)
    }

    /// The shared handle for `token`.
    pub fn get(&self, token: Token) -> Option<SharedConn> {
        let slot = self.slot_arc(token)?;
        let st = slot.lock();
        if st.gen != token_gen(token) {
            return None;
        }
        st.conn.clone()
    }

    /// Removes (closes) the connection. The reactor watch is
    /// deregistered *before* this returns — and before the fd can close,
    /// since the caller still holds the `SharedConn` being returned — so
    /// a kernel-reused fd can never be polled under the stale token.
    /// Pending write submissions are failed (one `WriteFailed` each), so
    /// `submit_write`'s one-completion-per-call contract holds. The slot
    /// returns to the free list only after the deregistration, so its
    /// next tenant can never race the stale watch.
    pub fn remove(&self, token: Token) -> Option<SharedConn> {
        let slot = self.slot_arc(token)?;
        let (conn, failed) = {
            let mut st = slot.lock();
            if st.gen != token_gen(token) {
                return None;
            }
            let conn = st.conn.take()?;
            let failed = st.submissions;
            st.submissions = 0;
            st.close_after = false;
            (conn, failed)
        };
        self.conn_count.fetch_sub(1, Ordering::Relaxed);
        if failed > 0 {
            self.counters
                .writes_failed
                .fetch_add(failed, Ordering::Relaxed);
            for _ in 0..failed {
                self.send_one(DriverEvent::WriteFailed(token));
            }
        }
        #[cfg(unix)]
        self.reactor.deregister(token);
        self.free_slots.lock().push(token_slot(token) as u32);
        Some(conn)
    }

    /// Removes the connection once every submitted write has drained:
    /// immediately when nothing is buffered, otherwise after the reactor
    /// delivers the final `WriteDone`.
    pub fn remove_when_flushed(&self, token: Token) {
        if let Some(slot) = self.slot_arc(token) {
            let mut st = slot.lock();
            if st.gen == token_gen(token) && st.conn.is_some() && st.submissions > 0 {
                st.close_after = true;
                return;
            }
        }
        self.remove(token);
    }

    /// Number of registered connections.
    pub fn len(&self) -> usize {
        self.conn_count.load(Ordering::Relaxed)
    }

    /// True when no connections are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Driver-level counters (accept retries, write-path traffic).
    pub fn counters(&self) -> Arc<DriverCounters> {
        self.counters.clone()
    }

    /// Bytes submitted for `token` that have not yet reached the
    /// transport.
    pub fn pending_out(&self, token: Token) -> usize {
        self.get(token).map_or(0, |c| c.lock().pending_out())
    }

    /// Milliseconds since driver construction — the clock `progress`
    /// stamps are taken against.
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Records application progress on a connection (protocol parsers
    /// call this when a complete request has been read), deferring the
    /// idle sweep's deadline.
    pub fn mark_progress(&self, token: Token) {
        let now = self.now_ms();
        if let Some(slot) = self.slot_arc(token) {
            let mut st = slot.lock();
            if st.gen == token_gen(token) && st.conn.is_some() {
                st.progress = now;
            }
        }
    }

    /// Sweeps the slab and removes every connection whose last progress
    /// stamp is older than the configured idle timeout, returning how
    /// many were reaped (also counted in
    /// [`DriverCounters::idle_reaped`]). Connections with writes still
    /// draining (or queued for close-after-flush) are skipped — a slow
    /// *reader* being drained by the reactor is progress in flight, not
    /// idleness. Cold path: one brief per-slot lock per live slot.
    pub fn reap_idle(&self) -> usize {
        let timeout = self.idle_timeout_ms;
        if timeout == 0 {
            return 0;
        }
        let now = self.now_ms();
        let cutoff = now.saturating_sub(timeout);
        let slots: Vec<Arc<ConnSlot>> = self.slots.read().clone();
        let mut reaped = 0usize;
        for (idx, slot) in slots.iter().enumerate() {
            let (token, fd) = {
                let st = slot.lock();
                if st.conn.is_none()
                    || st.submissions > 0
                    || st.close_after
                    || st.progress >= cutoff
                {
                    continue;
                }
                #[cfg(unix)]
                let fd = st.fd;
                #[cfg(not(unix))]
                let fd = ();
                (make_token(idx as u32, st.gen), fd)
            };
            // The slot lock is re-taken (and the generation re-checked)
            // inside `remove`, so a racing removal/reuse is benign.
            if let Some(conn) = self.remove(token) {
                // Sever at the OS level while we still hold the
                // returned handle (the fd cannot have been reused): a
                // worker parked in a blocking read on this connection
                // — the slow-loris case — observes EOF and returns
                // instead of occupying the pool forever.
                #[cfg(unix)]
                if let Some(fd) = fd {
                    unsafe {
                        shutdown(fd, SHUT_RDWR);
                    }
                }
                #[cfg(not(unix))]
                let _ = fd;
                drop(conn);
                reaped += 1;
            }
        }
        if reaped > 0 {
            self.counters
                .idle_reaped
                .fetch_add(reaped as u64, Ordering::Relaxed);
        }
        reaped
    }

    /// Rate-limited [`ConnDriver::reap_idle`]: runs the sweep only when
    /// the deadline-derived interval has elapsed, CAS-deduplicated so
    /// concurrent callers (the reactor tick and the acceptor loop) do
    /// at most one sweep per interval between them.
    fn maybe_reap(&self) {
        let timeout = self.idle_timeout_ms;
        if timeout == 0 {
            return;
        }
        let interval = (timeout / 4).clamp(10, 250);
        let now = self.now_ms();
        let due = self.reap_next_due.load(Ordering::Relaxed);
        if now < due {
            return;
        }
        if self
            .reap_next_due
            .compare_exchange(due, now + interval, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.reap_idle();
        }
    }

    /// Checks out a recycled payload buffer. Serialize a response into
    /// it and hand it back through [`ConnDriver::submit_write_buf`]; the
    /// pool bounds how many (and how large) buffers stay resident.
    pub fn take_write_buf(&self) -> Vec<u8> {
        self.write_bufs.take()
    }

    /// Like [`ConnDriver::submit_write`], but recycles the payload
    /// buffer into the driver's pool once the transport has taken (or
    /// buffered) the bytes — `enqueue_write` copies only the unwritten
    /// tail, so the buffer is reusable the moment the submit returns.
    pub fn submit_write_buf(self: &Arc<Self>, token: Token, buf: Vec<u8>) -> bool {
        let ok = self.submit_write(token, &buf);
        self.write_bufs.put(buf);
        ok
    }

    /// Takes the connection's read scratch buffer (empty on first use).
    /// Request parsers reuse it across every request on the connection;
    /// return it with [`ConnDriver::put_read_buf`].
    pub fn take_read_buf(&self, token: Token) -> Vec<u8> {
        match self.slot_arc(token) {
            Some(slot) => {
                let mut st = slot.lock();
                if st.gen == token_gen(token) {
                    std::mem::take(&mut st.scratch)
                } else {
                    Vec::new()
                }
            }
            None => Vec::new(),
        }
    }

    /// Returns a read scratch buffer to its connection slot (dropped if
    /// the connection is gone or the buffer grew past 256 KiB).
    pub fn put_read_buf(&self, token: Token, buf: Vec<u8>) {
        if buf.capacity() > 256 * 1024 {
            return;
        }
        if let Some(slot) = self.slot_arc(token) {
            let mut st = slot.lock();
            if st.gen == token_gen(token) && st.conn.is_some() {
                st.scratch = buf;
            }
        }
    }

    /// Queues `bytes` for transmission on `token` without blocking.
    ///
    /// Returns `false` when the connection is unknown. Otherwise exactly
    /// one [`DriverEvent::WriteDone`] or [`DriverEvent::WriteFailed`]
    /// per call is (eventually) emitted, in FIFO submission order per
    /// connection; the bytes themselves are transmitted in submission
    /// order. On failure — including a buffer overflow past
    /// [`NetConfig::max_pending_out`] — the connection is removed
    /// (which fails any earlier still-pending submissions too).
    pub fn submit_write(self: &Arc<Self>, token: Token, bytes: &[u8]) -> bool {
        self.submit_with(token, bytes.len(), |conn| conn.enqueue_write(bytes))
    }

    /// Seals an encoded buffer (typically from
    /// [`ConnDriver::take_write_buf`]) into a refcounted
    /// [`SharedPayload`] backed by the driver's pool: submit it to any
    /// number of connections via [`ConnDriver::submit_write_shared`];
    /// the buffer recycles exactly once, when the last connection
    /// releases it.
    pub fn seal_write_buf(&self, buf: Vec<u8>) -> SharedPayload {
        self.write_bufs.seal(buf)
    }

    /// Like [`ConnDriver::submit_write`], but submits a refcounted
    /// payload without copying: a connection that cannot take the bytes
    /// immediately buffers a reference in its segment-queue output
    /// buffer, so one encode fans out to N subscribers with a
    /// per-publish payload-copy count of 1. Completion-event and
    /// slow-consumer-eviction semantics are identical to
    /// `submit_write`.
    pub fn submit_write_shared(self: &Arc<Self>, token: Token, payload: &SharedPayload) -> bool {
        self.counters.writes_shared.fetch_add(1, Ordering::Relaxed);
        self.submit_with(token, payload.len(), |conn| {
            conn.enqueue_write_shared(payload)
        })
    }

    /// Submits a response as one write of two parts: `head`, serialized
    /// into a buffer from [`ConnDriver::take_write_buf`] (recycled here,
    /// as in [`ConnDriver::submit_write_buf`]), and a refcounted `body`
    /// that is transmitted, and if need be buffered, by reference — see
    /// [`Conn::enqueue_write_parts`]. One submission: one completion
    /// event, `writes_submitted` and `writes_shared` each advance by
    /// one. Eviction and failure semantics are those of `submit_write`.
    pub fn submit_response(
        self: &Arc<Self>,
        token: Token,
        head: Vec<u8>,
        body: &SharedPayload,
    ) -> bool {
        self.counters.writes_shared.fetch_add(1, Ordering::Relaxed);
        let ok = self.submit_with(token, head.len() + body.len(), |conn| {
            conn.enqueue_write_parts(&head, body)
        });
        self.write_bufs.put(head);
        ok
    }

    /// Common body of the submit paths: slot/generation validation, the
    /// output-buffer cap (slow-consumer eviction), the enqueue itself,
    /// and pending-submission bookkeeping with drain arming.
    fn submit_with(
        self: &Arc<Self>,
        token: Token,
        len: usize,
        enqueue: impl FnOnce(&mut Box<dyn Conn>) -> std::io::Result<WriteProgress>,
    ) -> bool {
        let Some(slot) = self.slot_arc(token) else {
            return false;
        };
        let shared = {
            let st = slot.lock();
            if st.gen != token_gen(token) {
                return false;
            }
            match &st.conn {
                Some(c) => c.clone(),
                None => return false,
            }
        };
        self.counters
            .writes_submitted
            .fetch_add(1, Ordering::Relaxed);
        // The connection lock is held across the enqueue *and* the
        // bookkeeping below, so a reactor drain completing concurrently
        // cannot retire this submission before its bytes are buffered.
        let mut conn = shared.lock();
        let cap = self.max_pending_out;
        let already = conn.pending_out();
        if already.saturating_add(len) > cap {
            drop(conn);
            self.counters
                .slow_consumer_evicted
                .fetch_add(1, Ordering::Relaxed);
            self.finish_writes(token, 1, false);
            return true;
        }
        match enqueue(&mut conn) {
            Ok(WriteProgress::Complete) => {
                self.finish_writes(token, 1, true);
                true
            }
            Ok(WriteProgress::Pending) => {
                self.counters
                    .write_would_block
                    .fetch_add(1, Ordering::Relaxed);
                if already > 0 {
                    // This submission queued *behind* bytes the peer has
                    // not yet taken — backpressure an operator can see
                    // before the eviction cliff at `max_pending_out`.
                    self.counters
                        .writes_deferred
                        .fetch_add(1, Ordering::Relaxed);
                }
                // Record the pending submission under the slot lock; a
                // concurrent `remove` either sees it (and fails it) or
                // already emptied the slot (we fail it ourselves).
                let first_pending = {
                    let mut st = slot.lock();
                    if st.gen == token_gen(token) && st.conn.is_some() {
                        st.submissions += 1;
                        Some(st.submissions == 1)
                    } else {
                        None
                    }
                };
                match first_pending {
                    None => {
                        drop(conn);
                        self.finish_writes(token, 1, false);
                    }
                    Some(first) => {
                        if first {
                            self.arm_drain(&mut conn, &shared, token);
                        }
                        drop(conn);
                        // A concurrent `remove` between the bookkeeping
                        // and the watch registration above could not see
                        // the watch; re-validate and clean up ourselves.
                        if self.get(token).is_none() {
                            #[cfg(unix)]
                            self.reactor.deregister(token);
                            self.finish_writes(token, 0, false);
                        }
                    }
                }
                true
            }
            Err(_) => {
                drop(conn);
                self.finish_writes(token, 1, false);
                true
            }
        }
    }

    /// Arms the drain path for a connection whose output buffer just
    /// became non-empty: a `POLLOUT` reactor watch for fd-backed
    /// transports, a helper thread otherwise (the shaped in-memory
    /// transport, whose "transmission time" sleep must not run on a
    /// dispatcher shard). Called with the connection lock held.
    fn arm_drain(
        self: &Arc<Self>,
        conn: &mut parking_lot::MutexGuard<'_, Box<dyn Conn>>,
        shared: &SharedConn,
        token: Token,
    ) {
        #[cfg(unix)]
        if let Some(fd) = conn.raw_fd() {
            let this = Arc::downgrade(self);
            let drain_conn = shared.clone();
            self.reactor.register_write(
                fd,
                token,
                Box::new(move |call| {
                    use crate::reactor::{DrainCall, DrainResult};
                    let Some(driver) = this.upgrade() else {
                        return DrainResult::Failed;
                    };
                    if matches!(call, DrainCall::Abort) {
                        driver.finish_writes(token, 0, false);
                        return DrainResult::Failed;
                    }
                    // Never park the reactor thread on a connection
                    // lock (a flow may hold it across a blocking
                    // read): report Busy so the reactor re-offers the
                    // drain after a short park instead of spinning on
                    // the level-triggered POLLOUT.
                    let Some(mut conn) = drain_conn.try_lock() else {
                        return DrainResult::Busy;
                    };
                    match conn.drain_out() {
                        Ok(WriteProgress::Complete) => {
                            driver.finish_writes(token, 0, true);
                            DrainResult::Complete
                        }
                        Ok(WriteProgress::Pending) => {
                            driver
                                .counters
                                .write_would_block
                                .fetch_add(1, Ordering::Relaxed);
                            DrainResult::Pending
                        }
                        Err(_) => {
                            driver.finish_writes(token, 0, false);
                            DrainResult::Failed
                        }
                    }
                }),
            );
            return;
        }
        let _ = conn;
        self.queue_helper_drain(shared.clone(), token);
    }

    /// Retires `extra` submissions plus every submission tracked for
    /// `token` (the whole buffer drained, or the whole connection
    /// failed), emitting one completion event per submission. Callers
    /// hold the connection lock, which orders completions with enqueues.
    fn finish_writes(&self, token: Token, extra: u64, ok: bool) {
        let now = self.now_ms();
        let (n, close_after) = match self.slot_arc(token) {
            Some(slot) => {
                let mut st = slot.lock();
                if st.gen == token_gen(token) {
                    let n = st.submissions;
                    st.submissions = 0;
                    let ca = st.close_after;
                    st.close_after = false;
                    if ok {
                        // A completed drain is application progress: the
                        // idle sweep must not reap a connection whose
                        // response just left the buffer.
                        st.progress = now;
                    }
                    (n + extra, ca)
                } else {
                    (extra, false)
                }
            }
            None => (extra, false),
        };
        let (event, counter): (fn(Token) -> DriverEvent, _) = if ok {
            (DriverEvent::WriteDone, &self.counters.writes_drained)
        } else {
            (DriverEvent::WriteFailed, &self.counters.writes_failed)
        };
        counter.fetch_add(n, Ordering::Relaxed);
        for _ in 0..n {
            self.send_one(event(token));
        }
        if close_after || !ok {
            self.remove(token);
        }
    }

    /// Drain path for transports with a pending buffer but no raw fd
    /// (the shaped in-memory transport): one persistent
    /// `flux-net-drain` thread services a queue of connections,
    /// absorbing the shaper's transmission-time sleeps — the write-side
    /// analogue of the paper's select-simulation thread. Draining is
    /// round-robin chunk by chunk (a connection with more buffered
    /// bytes re-queues itself), which matches the serial link the
    /// shaper models while keeping any one connection from starving the
    /// rest.
    fn queue_helper_drain(self: &Arc<Self>, shared: SharedConn, token: Token) {
        let tx = {
            let mut guard = self.drain_tx.lock();
            if guard.is_none() {
                let (tx, rx) = unbounded::<(Token, SharedConn)>();
                *guard = Some(tx);
                let this = self.clone();
                self.spawn_tracked("flux-net-drain", move || this.drain_loop(rx));
            }
            guard.as_ref().expect("just installed").clone()
        };
        let _ = tx.send((token, shared));
    }

    /// The persistent drain thread's main loop.
    fn drain_loop(self: Arc<Self>, rx: Receiver<(Token, SharedConn)>) {
        loop {
            if self.stopping.load(Ordering::Relaxed) {
                return;
            }
            let (token, shared) = match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(item) => item,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            if self.get(token).is_none() {
                // Removed while queued: submissions already failed.
                continue;
            }
            // The lock is held across drain_out *and* the completion
            // bookkeeping: a submission enqueued concurrently either
            // lands before the drain (its bytes go out now) or after
            // the finish (it creates a fresh write state and re-queues
            // the token) — never in between, where it would be retired
            // with its bytes still buffered.
            let mut conn = shared.lock();
            match conn.drain_out() {
                Ok(WriteProgress::Complete) => self.finish_writes(token, 0, true),
                Ok(WriteProgress::Pending) => {
                    // One chunk transmitted; take the next turn after
                    // every other waiting connection.
                    drop(conn);
                    let guard = self.drain_tx.lock();
                    if let Some(tx) = guard.as_ref() {
                        let _ = tx.send((token, shared));
                    }
                    continue;
                }
                Err(_) => self.finish_writes(token, 0, false),
            }
        }
    }

    /// Arms a one-shot readability watch: when the connection has data
    /// (or EOF), a [`DriverEvent::Readable`] is queued. In-memory
    /// transports install a watch callback; fd-backed transports (TCP)
    /// are registered with the shared reactor thread. Only a
    /// transport with neither capability falls back to a helper thread.
    pub fn arm(self: &Arc<Self>, token: Token) {
        let Some(shared) = self.get(token) else {
            return;
        };
        let tx = self.tx.clone();
        let watched = {
            let conn = shared.lock();
            // Coalescing: callbacks append to the shared watch buffer
            // and send one `Coalesced` marker per empty→non-empty
            // transition. The buffer lock serializes racing callbacks,
            // so the transition check is exact: a callback that sees a
            // non-empty buffer is guaranteed its event rides on a
            // marker that is still in flight (the consumer drains the
            // buffer wholesale when it unpacks the marker). The closure
            // captures the buffer/counter Arcs, never the driver —
            // avoiding a driver → slot → conn → closure → driver cycle.
            conn.set_read_watch(Box::new({
                let tx = tx.clone();
                let batch = self.watch_batch.clone();
                let counters = self.counters.clone();
                move || {
                    let was_empty = {
                        let mut b = batch.lock();
                        let was_empty = b.is_empty();
                        b.push(DriverEvent::Readable(token));
                        was_empty
                    };
                    if was_empty {
                        let _ = tx.send(Delivery::Coalesced);
                    } else {
                        counters.watch_coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }))
        };
        if watched {
            return;
        }
        #[cfg(unix)]
        {
            let fd = shared.lock().raw_fd();
            if let Some(fd) = fd {
                self.reactor.register(fd, token);
                // A concurrent `remove` between our `get` and the
                // registration could not see the watch (and `register`
                // would have resurrected the liveness entry); re-validate
                // so a removed token never stays armed.
                if self.get(token).is_none() {
                    self.reactor.deregister(token);
                }
                return;
            }
        }
        self.arm_with_helper_thread(shared, token, tx);
    }

    /// Last-resort watch for transports with neither watch callbacks nor
    /// a raw fd: one helper thread performs the wait (the paper's
    /// select-simulation thread). No in-tree transport takes this path.
    fn arm_with_helper_thread(
        self: &Arc<Self>,
        shared: SharedConn,
        token: Token,
        tx: Sender<Delivery>,
    ) {
        let this = self.clone();
        let clone = {
            let conn = shared.lock();
            conn.try_clone()
        };
        self.spawn_tracked("flux-net-watch", move || {
            let Ok(conn) = clone else {
                let _ = tx.send(Delivery::One(DriverEvent::Readable(token)));
                return;
            };
            loop {
                if this.stopping.load(Ordering::Relaxed) {
                    return;
                }
                match conn.wait_readable(Some(Duration::from_millis(100))) {
                    Ok(true) => {
                        let _ = tx.send(Delivery::One(DriverEvent::Readable(token)));
                        return;
                    }
                    Ok(false) => continue,
                    Err(_) => {
                        let _ = tx.send(Delivery::One(DriverEvent::Readable(token)));
                        return;
                    }
                }
            }
        });
    }

    /// Spawns a driver-owned thread whose handle [`ConnDriver::stop`]
    /// will join. Finished handles are pruned on each spawn so the list
    /// stays bounded.
    fn spawn_tracked(&self, name: &str, f: impl FnOnce() + Send + 'static) {
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(f)
            .unwrap_or_else(|e| panic!("spawn {name} thread: {e}"));
        let mut threads = self.threads.lock();
        threads.retain(|h| !h.is_finished());
        threads.push(handle);
    }

    /// Accepts connections from `listener` on a background thread,
    /// registering each and queueing [`DriverEvent::Incoming`]. The
    /// thread's idle wait is `listener.accept()` itself, bounded at
    /// 50 ms so the stop flag is seen; the error back-off sleeps below
    /// are deliberate pacing, not readiness polling.
    ///
    /// Transient accept errors (`EMFILE`, `ECONNABORTED`, a momentarily
    /// exhausted backlog) make the loop back off — briefly at first,
    /// capped at 500 ms, with deterministic per-listener jitter so many
    /// listeners hitting `EMFILE` together don't retry in lockstep —
    /// and retry instead of silently killing the listener for the life
    /// of the server; each retry increments
    /// [`DriverCounters::accept_retries`], and an fd-exhaustion error
    /// (`EMFILE`/`ENFILE`) first runs an idle-reap sweep to reclaim
    /// slots. Errors that mean the listener itself is gone
    /// (`BrokenPipe`, `NotConnected`, `InvalidInput`,
    /// `AddrNotAvailable`) end the loop, since no amount of retrying
    /// brings a dead listener back. The thread also exits when
    /// [`ConnDriver::stop`] is called.
    ///
    /// This loop is also the **accept governor**: past
    /// [`NetConfig::max_conns`] a fresh socket is accepted (so the
    /// kernel backlog keeps draining — the peer sees a prompt close,
    /// not a hung SYN) and dropped, counted in
    /// [`DriverCounters::accepts_governed`].
    pub fn spawn_acceptor(self: &Arc<Self>, listener: Box<dyn Listener>) {
        use std::io::ErrorKind;
        let this = self.clone();
        listener.set_accept_timeout(Some(Duration::from_millis(50)));
        #[cfg(unix)]
        {
            // The reactor drives the idle sweep from its wait loop (one
            // cheap check per round, ≤250 ms apart thanks to the
            // backstop timeout); `maybe_reap` CAS-dedupes against the
            // acceptor loop's own calls so the sweep runs once per
            // interval no matter how many drivers poke it.
            let weak = Arc::downgrade(self);
            self.reactor.set_tick(Box::new(move || {
                if let Some(driver) = weak.upgrade() {
                    driver.maybe_reap();
                }
            }));
        }
        self.spawn_tracked("flux-net-accept", move || {
            // Deterministic jitter seed: the listener allocation address
            // is stable for this loop's lifetime and distinct per
            // listener, so simultaneous EMFILE storms de-synchronize
            // without a PRNG dependency.
            let seed = &*listener as *const dyn Listener as *const () as u64;
            let mut retries: u64 = 0;
            let mut backoff = Duration::from_millis(10);
            loop {
                if this.stopping.load(Ordering::Relaxed) {
                    return;
                }
                this.maybe_reap();
                match listener.accept() {
                    Ok(conn) => {
                        backoff = Duration::from_millis(10);
                        let max = this.max_conns;
                        if max != 0 && this.conn_count.load(Ordering::Relaxed) >= max {
                            // At the connection cap: close immediately.
                            // Cheaper than registering + reaping, and it
                            // keeps draining the kernel backlog so
                            // waiting peers fail fast instead of timing
                            // out on an un-accepted SYN. Counted before
                            // the close, so a peer that sees EOF also
                            // sees the count.
                            this.counters
                                .accepts_governed
                                .fetch_add(1, Ordering::Relaxed);
                            drop(conn);
                            continue;
                        }
                        this.counters
                            .accepts_admitted
                            .fetch_add(1, Ordering::Relaxed);
                        let token = this.add(conn);
                        this.send_one(DriverEvent::Incoming(token));
                    }
                    Err(e) if e.kind() == ErrorKind::TimedOut => continue,
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::BrokenPipe
                                | ErrorKind::NotConnected
                                | ErrorKind::InvalidInput
                                | ErrorKind::AddrNotAvailable
                        ) =>
                    {
                        return; // the listener itself is dead
                    }
                    Err(e) => {
                        this.counters.accept_retries.fetch_add(1, Ordering::Relaxed);
                        if matches!(e.raw_os_error(), Some(23) | Some(24)) {
                            // ENFILE/EMFILE: the process (or host) is out
                            // of descriptors — reclaim idle ones *now*
                            // rather than waiting out the sweep interval.
                            this.reap_idle();
                        }
                        // Deterministic jitter in [0, backoff/2): a
                        // splitmix-style hash of (listener, retry#), so
                        // each listener walks its own retry schedule.
                        retries = retries.wrapping_add(1);
                        let h = (seed ^ retries).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let half_us = (backoff.as_micros() as u64 / 2).max(1);
                        let jitter = Duration::from_micros((h >> 33) % half_us);
                        // Sleep in short slices so stop() stays prompt
                        // even at the backoff cap.
                        let deadline = Instant::now() + backoff + jitter;
                        while Instant::now() < deadline {
                            if this.stopping.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        backoff = (backoff * 2).min(Duration::from_millis(500));
                    }
                }
            }
        });
    }

    /// Moves one delivery (plus anything else already queued) from the
    /// channel into `pending`. Called with the pending lock held.
    fn refill(&self, pending: &mut VecDeque<DriverEvent>, timeout: Duration) {
        match self.rx.recv_timeout(timeout) {
            Ok(d) => self.unpack(d, pending),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => return,
        }
        // Greedy: pull whatever else the producers already queued so a
        // burst is unpacked once, not one channel op per event. Bounded
        // so a firehose producer cannot pin the consumer here.
        while pending.len() < 4096 {
            match self.rx.try_recv() {
                Ok(d) => self.unpack(d, pending),
                Err(_) => break,
            }
        }
    }

    fn unpack(&self, d: Delivery, pending: &mut VecDeque<DriverEvent>) {
        match d {
            Delivery::One(ev) => pending.push_back(ev),
            Delivery::Batch(mut batch) => {
                pending.extend(batch.drain(..));
                self.event_batches.put(batch);
            }
            Delivery::Coalesced => {
                // Drain everything the watch callbacks accumulated
                // since the marker was sent — including events that
                // piggybacked after it.
                pending.extend(self.watch_batch.lock().drain(..));
            }
        }
    }

    /// Next readiness event, or `None` on timeout.
    pub fn next_event(&self, timeout: Duration) -> Option<DriverEvent> {
        let mut pending = self.pending.lock();
        if let Some(ev) = pending.pop_front() {
            return Some(ev);
        }
        self.refill(&mut pending, timeout);
        pending.pop_front()
    }

    /// Appends up to `max` ready events to `out`, blocking up to
    /// `timeout` for the first one; returns how many were delivered.
    /// This is the batched consumer path: one call drains a whole
    /// reactor round (plus any accepts/completions queued around it),
    /// so batch-aware sources can submit the lot to the runtime in one
    /// shard-queue append.
    pub fn next_events(&self, out: &mut Vec<DriverEvent>, max: usize, timeout: Duration) -> usize {
        let mut pending = self.pending.lock();
        if pending.is_empty() {
            self.refill(&mut pending, timeout);
        }
        let n = pending.len().min(max);
        out.extend(pending.drain(..n));
        n
    }

    /// Injects a synthetic event (used by timer sources).
    pub fn inject(&self, ev: DriverEvent) {
        self.send_one(ev);
    }

    /// Stops and **joins** the acceptor, reactor and watcher threads.
    /// All of them poll the stop flag on bounded timeouts (50–250 ms),
    /// so the join completes promptly; after `stop` returns, no driver
    /// thread survives to fire into a dropped channel.
    ///
    /// Every still-registered connection is then removed: a connection
    /// whose [`ConnDriver::remove_when_flushed`] was pending when the
    /// reactor stopped (its drain can no longer complete) must not
    /// outlive the driver holding a buffered response — its pending
    /// submissions are failed and its output buffer dropped, so no
    /// token stays registered after `stop` returns.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::Relaxed);
        #[cfg(unix)]
        self.reactor.stop();
        let handles = std::mem::take(&mut *self.threads.lock());
        let me = std::thread::current().id();
        for h in handles {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
        let tokens: Vec<Token> = {
            let slots = self.slots.read();
            slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| {
                    let st = slot.lock();
                    st.conn.as_ref().map(|_| make_token(i as u32, st.gen))
                })
                .collect()
        };
        for token in tokens {
            drop(self.remove(token));
        }
    }

    /// The number of readiness events delivered by the reactor
    /// (fd-backed transports only; watch-based events are not counted).
    #[cfg(unix)]
    pub fn reactor_events(&self) -> u64 {
        self.reactor.events_delivered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemNet;
    use std::io::{Read, Write};

    #[test]
    fn incoming_and_readable_events() {
        let net = MemNet::new();
        let listener = net.listen("srv").unwrap();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(listener));

        let mut client = net.connect("srv").unwrap();
        let ev = driver.next_event(Duration::from_secs(2)).unwrap();
        let DriverEvent::Incoming(token) = ev else {
            panic!("expected Incoming, got {ev:?}");
        };
        driver.arm(token);
        assert!(
            driver.next_event(Duration::from_millis(50)).is_none(),
            "no data yet"
        );
        client.write_all(b"hello").unwrap();
        assert_eq!(
            driver.next_event(Duration::from_secs(2)),
            Some(DriverEvent::Readable(token))
        );
        driver.stop();
    }

    #[test]
    fn arm_fires_on_eof() {
        let net = MemNet::new();
        let listener = net.listen("srv").unwrap();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(listener));
        let client = net.connect("srv").unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        driver.arm(token);
        drop(client);
        assert_eq!(
            driver.next_event(Duration::from_secs(2)),
            Some(DriverEvent::Readable(token))
        );
        driver.stop();
    }

    /// A burst of mem-transport watch callbacks with an idle consumer
    /// coalesces into one channel marker: every event is still
    /// delivered, and all but the first are counted as coalesced.
    #[test]
    fn mem_watch_burst_coalesces_into_one_marker() {
        const CONNS: usize = 16;
        let net = MemNet::new();
        let listener = net.listen("srv").unwrap();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(listener));

        let mut clients = Vec::new();
        let mut tokens = Vec::new();
        for _ in 0..CONNS {
            clients.push(net.connect("srv").unwrap());
            let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
            else {
                panic!("expected Incoming");
            };
            driver.arm(token);
            tokens.push(token);
        }
        // Consumer idle: every write fires its watch callback from this
        // thread, back to back — only the first transition should reach
        // the channel.
        for c in &mut clients {
            c.write_all(b"x").unwrap();
        }
        let mut got = Vec::new();
        while got.len() < CONNS {
            let n = driver.next_events(&mut got, CONNS, Duration::from_secs(2));
            assert!(n > 0, "missing readable events: {}/{CONNS}", got.len());
        }
        let mut readable: Vec<Token> = got
            .iter()
            .map(|ev| match ev {
                DriverEvent::Readable(t) => *t,
                other => panic!("expected Readable, got {other:?}"),
            })
            .collect();
        readable.sort_unstable();
        tokens.sort_unstable();
        assert_eq!(readable, tokens, "every armed conn delivered exactly once");
        assert_eq!(
            driver.counters().watch_coalesced.load(Ordering::Relaxed),
            CONNS as u64 - 1,
            "all but the transition send piggybacked"
        );
        driver.stop();
    }

    #[test]
    fn remove_drops_connection() {
        let driver = Arc::new(ConnDriver::new());
        let (a, _b) = crate::mem::MemConn::pair();
        let t = driver.add(Box::new(a));
        assert_eq!(driver.len(), 1);
        assert!(driver.remove(t).is_some());
        assert!(driver.is_empty());
        assert!(driver.get(t).is_none());
        assert!(driver.remove(t).is_none(), "double remove is a no-op");
    }

    /// The slab reuses slots, but never tokens: a removed token's
    /// generation can't match the slot's next tenant.
    #[test]
    fn slot_reuse_never_aliases_tokens() {
        let driver = Arc::new(ConnDriver::new());
        let mut seen = std::collections::HashSet::new();
        for round in 0..100 {
            let (a, _b) = crate::mem::MemConn::pair();
            let t = driver.add(Box::new(a));
            assert!(seen.insert(t), "token {t} reissued (round {round})");
            assert_eq!(token_slot(t), 0, "single live conn reuses slot 0");
            assert!(driver.get(t).is_some());
            driver.remove(t);
            assert!(driver.get(t).is_none(), "stale token resolves to nothing");
        }
        // Every retired token still resolves to nothing.
        let (a, _b) = crate::mem::MemConn::pair();
        let live = driver.add(Box::new(a));
        for &t in &seen {
            assert!(driver.get(t).is_none(), "stale {t} must not see {live}");
        }
        assert!(driver.get(live).is_some());
    }

    /// Model check of the slab table: random interleavings of
    /// add/remove/get agree with a HashMap reference, stale gets
    /// included (the generation check subsumes the old `live` map).
    mod slab_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn slab_matches_model_under_random_ops(seed in 0u64..1_000_000) {
                let mut rng = proptest::test_rng(&format!("slab-{seed}"));
                let driver = Arc::new(ConnDriver::new());
                let mut model: std::collections::HashMap<Token, bool> =
                    std::collections::HashMap::new(); // token -> live
                let mut live: Vec<Token> = Vec::new();
                for _ in 0..200 {
                    match rng.next_u64() % 3 {
                        0 => {
                            let (a, _b) = crate::mem::MemConn::pair();
                            let t = driver.add(Box::new(a));
                            prop_assert!(model.insert(t, true).is_none(), "token reissued");
                            live.push(t);
                        }
                        1 if !live.is_empty() => {
                            let i = (rng.next_u64() as usize) % live.len();
                            let t = live.swap_remove(i);
                            prop_assert!(driver.remove(t).is_some());
                            model.insert(t, false);
                        }
                        _ => {
                            for (&t, &alive) in model.iter() {
                                prop_assert_eq!(driver.get(t).is_some(), alive,
                                    "get({}) disagrees with model", t);
                            }
                        }
                    }
                }
                prop_assert_eq!(driver.len(), live.len());
            }

            /// Conservation under random admit/progress/reap/remove
            /// interleavings: every added connection is accounted for as
            /// explicitly removed, idle-reaped, or still live — no slab
            /// slot leaks, no double-reap — and only connections whose
            /// last progress stamp predates the idle window get reaped.
            #[test]
            fn reap_conserves_connections(seed in 0u64..1_000_000) {
                let mut rng = proptest::test_rng(&format!("reap-{seed}"));
                let config = NetConfig {
                    idle_timeout: Some(Duration::from_millis(20)),
                    ..NetConfig::default()
                };
                let driver = Arc::new(ConnDriver::with_config(&config));
                let mut live: std::collections::HashMap<Token, std::time::Instant> =
                    std::collections::HashMap::new(); // token -> last progress
                let (mut added, mut removed, mut reaped) = (0u64, 0u64, 0u64);
                for _ in 0..60 {
                    match rng.next_u64() % 8 {
                        0..=2 => {
                            let (a, _b) = crate::mem::MemConn::pair();
                            let t = driver.add(Box::new(a));
                            prop_assert!(live.insert(t, std::time::Instant::now()).is_none());
                            added += 1;
                        }
                        3 | 4 if !live.is_empty() => {
                            let i = (rng.next_u64() as usize) % live.len();
                            let (&t, _) = live.iter().nth(i).expect("index in range");
                            driver.mark_progress(t);
                            live.insert(t, std::time::Instant::now());
                        }
                        5 if !live.is_empty() => {
                            let i = (rng.next_u64() as usize) % live.len();
                            let t = *live.keys().nth(i).expect("index in range");
                            live.remove(&t);
                            prop_assert!(driver.remove(t).is_some());
                            removed += 1;
                        }
                        6 => {
                            // Let every live connection cross the idle
                            // threshold so the next sweep has prey.
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        _ => {
                            let before: Vec<(Token, std::time::Instant)> =
                                live.iter().map(|(&t, &s)| (t, s)).collect();
                            let n = driver.reap_idle();
                            let mut gone = 0usize;
                            for (t, stamp) in before {
                                if driver.get(t).is_none() {
                                    gone += 1;
                                    live.remove(&t);
                                    prop_assert!(
                                        stamp.elapsed() >= Duration::from_millis(10),
                                        "reaped a connection with recent progress"
                                    );
                                }
                            }
                            prop_assert_eq!(n, gone, "reap count disagrees with the slab");
                            reaped += n as u64;
                        }
                    }
                }
                prop_assert_eq!(driver.len(), live.len(), "slab leaked a slot");
                prop_assert_eq!(added, removed + reaped + live.len() as u64,
                    "connection not conserved");
                prop_assert_eq!(
                    driver.counters().idle_reaped.load(Ordering::Relaxed),
                    reaped
                );
            }
        }
    }

    #[test]
    fn inject_synthetic_events() {
        let driver = ConnDriver::new();
        driver.inject(DriverEvent::Readable(99));
        assert_eq!(
            driver.next_event(Duration::from_millis(10)),
            Some(DriverEvent::Readable(99))
        );
    }

    /// `next_events` drains a burst in one call, preserving order.
    #[test]
    fn next_events_returns_a_batch() {
        let driver = ConnDriver::new();
        for i in 0..5 {
            driver.inject(DriverEvent::Readable(i));
        }
        let mut out = Vec::new();
        let n = driver.next_events(&mut out, 3, Duration::from_millis(50));
        assert_eq!(n, 3, "bounded by max");
        assert_eq!(
            out,
            vec![
                DriverEvent::Readable(0),
                DriverEvent::Readable(1),
                DriverEvent::Readable(2)
            ]
        );
        out.clear();
        let n = driver.next_events(&mut out, 16, Duration::from_millis(50));
        assert_eq!(n, 2, "remainder of the burst");
        out.clear();
        assert_eq!(
            driver.next_events(&mut out, 16, Duration::from_millis(20)),
            0,
            "timeout on empty queue"
        );
    }

    #[test]
    fn tcp_readiness_via_reactor() {
        let acceptor = crate::tcp::TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(acceptor));
        let mut client = crate::tcp::TcpConn::connect(&addr).unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        driver.arm(token);
        client.write_all(b"x").unwrap();
        assert_eq!(
            driver.next_event(Duration::from_secs(2)),
            Some(DriverEvent::Readable(token))
        );
        #[cfg(unix)]
        assert_eq!(
            driver.reactor_events(),
            1,
            "TCP readiness must come from the reactor, not helper threads"
        );
        driver.stop();
    }

    /// Many armed TCP connections are all served by the single reactor
    /// thread — the acceptance criterion for retiring the per-connection
    /// helper threads.
    #[test]
    #[cfg(unix)]
    fn one_reactor_thread_serves_many_tcp_conns() {
        let acceptor = crate::tcp::TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(acceptor));
        let mut clients = Vec::new();
        let mut tokens = Vec::new();
        for _ in 0..32 {
            clients.push(crate::tcp::TcpConn::connect(&addr).unwrap());
            let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
            else {
                panic!()
            };
            driver.arm(token);
            tokens.push(token);
        }
        for c in &mut clients {
            c.write_all(b"!").unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        while seen.len() < 32 {
            match driver.next_event(Duration::from_secs(2)) {
                Some(DriverEvent::Readable(t)) => {
                    seen.insert(t);
                }
                other => panic!("expected Readable, got {other:?}"),
            }
        }
        assert_eq!(seen, tokens.iter().copied().collect());
        assert_eq!(driver.reactor_events(), 32);
        driver.stop();
    }

    /// A synchronous (in-memory) write completes with an immediate
    /// `WriteDone` and the bytes arrive at the peer.
    #[test]
    fn submit_write_mem_completes_synchronously() {
        let net = MemNet::new();
        let listener = net.listen("srv").unwrap();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(listener));
        let mut client = net.connect("srv").unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        assert!(driver.submit_write(token, b"response"));
        assert_eq!(
            driver.next_event(Duration::from_secs(2)),
            Some(DriverEvent::WriteDone(token))
        );
        let mut buf = [0u8; 8];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"response");
        assert_eq!(driver.counters().writes_drained.load(Ordering::Relaxed), 1);
        assert_eq!(driver.pending_out(token), 0);
        driver.stop();
    }

    /// The pooled submit path delivers the same bytes and recycles the
    /// payload buffer for the next response.
    #[test]
    fn submit_write_buf_recycles_the_payload() {
        let net = MemNet::new();
        let listener = net.listen("srv").unwrap();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(listener));
        let mut client = net.connect("srv").unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        let mut buf = driver.take_write_buf();
        buf.extend_from_slice(b"pooled");
        let cap = buf.capacity();
        assert!(driver.submit_write_buf(token, buf));
        let recycled = driver.take_write_buf();
        assert!(recycled.is_empty());
        assert_eq!(recycled.capacity(), cap, "payload buffer was recycled");
        let mut got = [0u8; 6];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"pooled");
        driver.stop();
    }

    #[test]
    fn submit_write_unknown_token_is_refused() {
        let driver = Arc::new(ConnDriver::new());
        assert!(!driver.submit_write(42, b"x"));
    }

    /// On a shaped (rate-limited) in-memory link, `submit_write` must
    /// return immediately — the shaper's transmission-time sleep runs on
    /// the drain helper, never the submitting thread.
    #[test]
    fn shaped_mem_write_does_not_block_the_submitter() {
        let net = MemNet::new();
        net.set_link_capacity(Some(1_000_000.0)); // 1 MB/s, 64 KiB burst
        let listener = net.listen("srv").unwrap();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(listener));
        let mut client = net.connect("srv").unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        // 320 KiB past the burst at 1 MB/s ≈ 250+ ms of shaper sleep.
        let payload = vec![7u8; 384 * 1024];
        let t0 = std::time::Instant::now();
        assert!(driver.submit_write(token, &payload));
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "submit must not absorb the shaped transmission time \
             (took {:?})",
            t0.elapsed()
        );
        assert_eq!(
            driver.next_event(Duration::from_secs(10)),
            Some(DriverEvent::WriteDone(token))
        );
        let mut got = 0usize;
        let mut buf = vec![0u8; 64 * 1024];
        while got < payload.len() {
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0);
            got += n;
        }
        driver.stop();
    }

    /// A submission that would overflow the per-connection output bound
    /// fails (`WriteFailed`) and removes the connection instead of
    /// growing server memory without limit.
    #[test]
    #[cfg(unix)]
    fn overflowing_pending_out_fails_the_write() {
        let (driver, _client, token) = tcp_pair_with(&NetConfig {
            max_pending_out: 256 * 1024,
            ..NetConfig::default()
        });
        assert!(driver.submit_write(token, &vec![0u8; 512 * 1024]));
        assert_eq!(
            driver.next_event(Duration::from_secs(2)),
            Some(DriverEvent::WriteFailed(token))
        );
        assert!(driver.get(token).is_none(), "overflowing conn removed");
        assert_eq!(driver.counters().writes_failed.load(Ordering::Relaxed), 1);
        driver.stop();
    }

    /// `remove` fails still-pending submissions so every `submit_write`
    /// gets its completion event.
    #[test]
    #[cfg(unix)]
    fn remove_fails_pending_submissions() {
        let (driver, _client, token) = tcp_pair();
        // Large enough to stay partially buffered (client never reads).
        assert!(driver.submit_write(token, &vec![1u8; 8 * 1024 * 1024]));
        assert!(driver.pending_out(token) > 0);
        driver.remove(token);
        assert_eq!(
            driver.next_event(Duration::from_secs(2)),
            Some(DriverEvent::WriteFailed(token))
        );
        driver.stop();
    }

    /// The acceptor must survive transient accept errors (the seed
    /// version returned, killing the listener for the life of the
    /// server on a single `EMFILE`/`ECONNABORTED`).
    #[test]
    fn acceptor_survives_transient_accept_errors() {
        /// Fails the first `fail` accepts, then delegates.
        struct FlakyListener {
            inner: Box<dyn Listener>,
            remaining: AtomicU64,
        }
        impl Listener for FlakyListener {
            fn accept(&self) -> std::io::Result<Box<dyn Conn>> {
                if self.remaining.load(Ordering::Relaxed) > 0 {
                    self.remaining.fetch_sub(1, Ordering::Relaxed);
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "transient accept failure",
                    ));
                }
                self.inner.accept()
            }
            fn set_accept_timeout(&self, d: Option<Duration>) {
                self.inner.set_accept_timeout(d);
            }
            fn local_addr(&self) -> String {
                self.inner.local_addr()
            }
        }

        let net = MemNet::new();
        let listener = net.listen("srv").unwrap();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(FlakyListener {
            inner: Box::new(listener),
            remaining: AtomicU64::new(3),
        }));
        // The seed acceptor would be dead by now; the fixed one retries
        // through the injected errors and still accepts.
        let _client = net.connect("srv").unwrap();
        let ev = driver.next_event(Duration::from_secs(5));
        assert!(
            matches!(ev, Some(DriverEvent::Incoming(_))),
            "acceptor must survive transient errors, got {ev:?}"
        );
        assert!(
            driver.counters().accept_retries.load(Ordering::Relaxed) >= 3,
            "retries surfaced in counters"
        );
        driver.stop();
    }

    /// Accepts one TCP connection through the driver and returns
    /// `(driver, client, token)`.
    #[cfg(unix)]
    fn tcp_pair() -> (Arc<ConnDriver>, crate::tcp::TcpConn, Token) {
        tcp_pair_with(&NetConfig::default())
    }

    #[cfg(unix)]
    fn tcp_pair_with(config: &NetConfig) -> (Arc<ConnDriver>, crate::tcp::TcpConn, Token) {
        let acceptor = crate::tcp::TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let driver = Arc::new(ConnDriver::with_config(config));
        driver.spawn_acceptor(Box::new(acceptor));
        let client = crate::tcp::TcpConn::connect(&addr).unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        (driver, client, token)
    }

    /// A write larger than the kernel socket buffers completes via the
    /// reactor's POLLOUT drain once the (initially slow) client reads.
    #[test]
    #[cfg(unix)]
    fn partial_tcp_write_completes_via_pollout() {
        let (driver, mut client, token) = tcp_pair();
        // Big enough to overrun loopback socket buffers by a wide margin.
        let payload: Vec<u8> = (0..8 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        assert!(driver.submit_write(token, &payload));
        assert!(
            driver.pending_out(token) > 0,
            "an 8 MiB write must not complete synchronously"
        );
        assert!(
            driver.next_event(Duration::from_millis(100)).is_none(),
            "no completion while the client reads nothing"
        );
        // Slow reader: the reactor drains in batches as buffer space opens.
        let mut got = Vec::with_capacity(payload.len());
        let mut buf = vec![0u8; 64 * 1024];
        while got.len() < payload.len() {
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0, "EOF before the payload drained");
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, payload, "drained bytes match");
        assert_eq!(
            driver.next_event(Duration::from_secs(5)),
            Some(DriverEvent::WriteDone(token))
        );
        let counters = driver.counters();
        assert!(
            counters.write_would_block.load(Ordering::Relaxed) > 0,
            "the drain must have hit WouldBlock at least once"
        );
        assert_eq!(counters.writes_drained.load(Ordering::Relaxed), 1);
        driver.stop();
    }

    /// Two writes submitted while the socket is full drain in FIFO
    /// order, with one WriteDone per submission.
    #[test]
    #[cfg(unix)]
    fn queued_writes_drain_fifo() {
        let (driver, mut client, token) = tcp_pair();
        let first: Vec<u8> = vec![b'a'; 8 * 1024 * 1024];
        let second: Vec<u8> = vec![b'b'; 1024];
        assert!(driver.submit_write(token, &first));
        assert!(driver.submit_write(token, &second));
        let mut got = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        while got.len() < first.len() + second.len() {
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0);
            got.extend_from_slice(&buf[..n]);
        }
        assert!(got[..first.len()].iter().all(|&b| b == b'a'), "FIFO order");
        assert!(got[first.len()..].iter().all(|&b| b == b'b'), "FIFO order");
        let mut done = 0;
        while done < 2 {
            match driver.next_event(Duration::from_secs(5)) {
                Some(DriverEvent::WriteDone(t)) => {
                    assert_eq!(t, token);
                    done += 1;
                }
                other => panic!("expected WriteDone, got {other:?}"),
            }
        }
        driver.stop();
    }

    /// `remove_when_flushed` keeps the connection open until the buffer
    /// drains, then closes it — the client sees the full payload
    /// followed by EOF.
    #[test]
    #[cfg(unix)]
    fn remove_when_flushed_defers_close_until_drained() {
        let (driver, mut client, token) = tcp_pair();
        let payload: Vec<u8> = vec![b'z'; 8 * 1024 * 1024];
        assert!(driver.submit_write(token, &payload));
        driver.remove_when_flushed(token);
        assert!(
            driver.get(token).is_some(),
            "close must be deferred while bytes are buffered"
        );
        let mut got = 0usize;
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            let n = client.read(&mut buf).unwrap();
            if n == 0 {
                break; // EOF only after the whole payload
            }
            assert!(buf[..n].iter().all(|&b| b == b'z'));
            got += n;
        }
        assert_eq!(got, payload.len(), "every byte drained before close");
        assert_eq!(
            driver.next_event(Duration::from_secs(5)),
            Some(DriverEvent::WriteDone(token))
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while driver.get(token).is_some() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(driver.get(token).is_none(), "removed after the drain");
        driver.stop();
    }

    /// The two-part response path ([`ConnDriver::submit_response`]):
    /// head and shared body over real TCP with a send buffer small
    /// enough that every response is a partial write, and over the
    /// shaped in-memory link (the `flux-net-drain` thread path).
    mod response_parts {
        use super::*;
        use crate::tcp::TcpConn;

        const BODY_LEN: usize = 1024 * 1024;

        fn head(n: u8) -> Vec<u8> {
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
                 X-Response: {n}\r\nContent-Length: {BODY_LEN}\r\nServer: flux-rs/0.1\r\n\
                 Connection: keep-alive\r\n\r\n"
            )
            .into_bytes()
        }

        fn body(n: u8) -> SharedPayload {
            let bytes: Vec<u8> = (0..BODY_LEN).map(|i| (i % 251) as u8 ^ n).collect();
            SharedPayload::detached(bytes)
        }

        /// Submits `head` through a pooled buffer, as a server would.
        fn submit(driver: &Arc<ConnDriver>, token: Token, head: &[u8], body: &SharedPayload) {
            let mut buf = driver.take_write_buf();
            buf.extend_from_slice(head);
            assert!(driver.submit_response(token, buf, body));
        }

        fn read_exactly(client: &mut dyn Read, len: usize) -> Vec<u8> {
            let mut got = vec![0u8; len];
            client.read_exact(&mut got).unwrap();
            got
        }

        /// Waits for the drain's last reference to `payload` to go: the
        /// reactor and the drain thread drop their handle to a removed
        /// connection (and with it its output buffer) on their own time.
        fn released(payload: &SharedPayload) -> bool {
            let deadline = Instant::now() + Duration::from_secs(5);
            while payload.ref_count() > 1 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            payload.ref_count() == 1
        }

        fn expect_done(driver: &ConnDriver, token: Token, n: usize) {
            for _ in 0..n {
                assert_eq!(
                    driver.next_event(Duration::from_secs(10)),
                    Some(DriverEvent::WriteDone(token))
                );
            }
            assert_eq!(
                driver.next_event(Duration::from_millis(50)),
                None,
                "exactly one WriteDone per response"
            );
        }

        /// A loopback pair whose server side has the smallest send
        /// buffer the kernel grants, so the client has to read before a
        /// response can finish.
        #[cfg(target_os = "linux")]
        fn tight_tcp_pair() -> (TcpConn, std::net::TcpStream) {
            use std::ffi::{c_int, c_void};
            use std::os::fd::AsRawFd;
            const SOL_SOCKET: c_int = 1;
            const SO_SNDBUF: c_int = 7;
            extern "C" {
                fn setsockopt(
                    fd: c_int,
                    level: c_int,
                    name: c_int,
                    value: *const c_void,
                    len: u32,
                ) -> c_int;
            }
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            let tiny: c_int = 1;
            // SAFETY: `tiny` is a live c_int of the length passed; the fd
            // belongs to `server`.
            let rc = unsafe {
                setsockopt(
                    server.as_raw_fd(),
                    SOL_SOCKET,
                    SO_SNDBUF,
                    (&tiny as *const c_int).cast(),
                    std::mem::size_of::<c_int>() as u32,
                )
            };
            assert_eq!(rc, 0, "setsockopt(SO_SNDBUF)");
            (TcpConn::new(server), client)
        }

        /// One 1 MiB response whose first `sendmsg` is stopped at `cut`
        /// bytes (`None`: wherever the tiny send buffer stops it) arrives
        /// byte-exact behind a stalled reader, as one submission with
        /// one completion, and the body is referenced — never copied —
        /// for exactly as long as some of it is unsent.
        #[cfg(target_os = "linux")]
        fn one_response_split_at(cut: Option<usize>) {
            let (mut conn, mut client) = tight_tcp_pair();
            if let Some(cut) = cut {
                conn.cap_next_send(cut);
            }
            let driver = Arc::new(ConnDriver::new());
            let token = driver.add(Box::new(conn));
            let (head, body) = (head(1), body(1));
            let total = head.len() + body.len();

            submit(&driver, token, &head, &body);
            let pending = driver.pending_out(token);
            match cut {
                Some(cut) => assert_eq!(pending, total - cut, "cut={cut}"),
                None => assert!(pending > 0 && pending < body.len(), "pending={pending}"),
            }
            assert_eq!(
                body.ref_count(),
                2,
                "the unsent body is buffered by reference"
            );
            assert_eq!(driver.next_event(Duration::from_millis(50)), None);

            let got = read_exactly(&mut client, total);
            assert!(got[..head.len()] == head[..], "head bytes (cut={cut:?})");
            assert!(got[head.len()..] == body[..], "body bytes (cut={cut:?})");
            expect_done(&driver, token, 1);
            assert_eq!(body.ref_count(), 1, "released by the drain");
            let counters = driver.counters();
            assert_eq!(counters.writes_submitted.load(Ordering::Relaxed), 1);
            assert_eq!(counters.writes_shared.load(Ordering::Relaxed), 1);
            assert_eq!(counters.writes_drained.load(Ordering::Relaxed), 1);
            driver.stop();
        }

        #[test]
        #[cfg(target_os = "linux")]
        fn tcp_first_send_stops_mid_head() {
            one_response_split_at(Some(head(1).len() / 2));
        }

        #[test]
        #[cfg(target_os = "linux")]
        fn tcp_first_send_stops_at_the_head_body_boundary() {
            one_response_split_at(Some(head(1).len()));
        }

        #[test]
        #[cfg(target_os = "linux")]
        fn tcp_first_send_stops_mid_body() {
            one_response_split_at(Some(head(1).len() + 1000));
        }

        #[test]
        #[cfg(target_os = "linux")]
        fn tcp_first_send_stops_where_the_socket_is_full() {
            one_response_split_at(None);
        }

        /// Two responses pipelined on one connection, the second queued
        /// whole behind the first's remainder: head₁ body₁ head₂ body₂
        /// on the wire, one `WriteDone` each.
        fn pipelined_responses_keep_order(
            driver: Arc<ConnDriver>,
            token: Token,
            client: &mut dyn Read,
        ) {
            let (h1, b1, h2, b2) = (head(1), body(1), head(2), body(2));
            for (h, b) in [(&h1, &b1), (&h2, &b2)] {
                submit(&driver, token, h, b);
            }
            assert_eq!((b1.ref_count(), b2.ref_count()), (2, 2));
            assert_eq!(driver.counters().writes_deferred.load(Ordering::Relaxed), 1);
            for (h, b) in [(&h1, &b1), (&h2, &b2)] {
                assert!(read_exactly(client, h.len()) == h[..], "head in order");
                assert!(read_exactly(client, b.len()) == b[..], "body in order");
            }
            expect_done(&driver, token, 2);
            assert_eq!((b1.ref_count(), b2.ref_count()), (1, 1));
            assert_eq!(
                driver.counters().writes_submitted.load(Ordering::Relaxed),
                2
            );
            assert_eq!(driver.counters().writes_shared.load(Ordering::Relaxed), 2);
            driver.stop();
        }

        /// Removing the connection mid-drain fails the submission and
        /// releases the body.
        fn removal_mid_drain_releases_the_body(driver: Arc<ConnDriver>, token: Token) {
            let body = body(3);
            submit(&driver, token, &head(3), &body);
            assert_eq!(body.ref_count(), 2);
            drop(driver.remove(token));
            assert_eq!(
                driver.next_event(Duration::from_secs(5)),
                Some(DriverEvent::WriteFailed(token))
            );
            assert!(released(&body), "refs left: {}", body.ref_count());
            driver.stop();
        }

        #[test]
        #[cfg(target_os = "linux")]
        fn tcp_pipelined_responses_keep_order() {
            let (conn, mut client) = tight_tcp_pair();
            let driver = Arc::new(ConnDriver::new());
            let token = driver.add(Box::new(conn));
            pipelined_responses_keep_order(driver, token, &mut client);
        }

        #[test]
        #[cfg(target_os = "linux")]
        fn tcp_removal_mid_drain_releases_the_body() {
            let (conn, _client) = tight_tcp_pair();
            let driver = Arc::new(ConnDriver::new());
            let token = driver.add(Box::new(conn));
            removal_mid_drain_releases_the_body(driver, token);
        }

        /// A server-side connection on a 16 MB/s in-memory link: the
        /// 1 MiB bodies overrun the shaper's burst, so every response is
        /// buffered for the drain thread.
        fn shaped_mem_pair() -> (Arc<ConnDriver>, Token, crate::mem::MemConn) {
            let net = MemNet::new();
            net.set_link_capacity(Some(16_000_000.0));
            let listener = net.listen("srv").unwrap();
            let driver = Arc::new(ConnDriver::new());
            driver.spawn_acceptor(Box::new(listener));
            let client = net.connect("srv").unwrap();
            let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
            else {
                panic!("expected Incoming");
            };
            (driver, token, client)
        }

        #[test]
        fn shaped_mem_response_drains_by_reference() {
            let (driver, token, mut client) = shaped_mem_pair();
            let (head, body) = (head(1), body(1));
            submit(&driver, token, &head, &body);
            assert_eq!(
                body.ref_count(),
                2,
                "buffered for the drain thread by reference"
            );
            assert!(read_exactly(&mut client, head.len()) == head[..]);
            assert!(read_exactly(&mut client, body.len()) == body[..]);
            expect_done(&driver, token, 1);
            assert_eq!(body.ref_count(), 1);
            assert_eq!(
                driver.counters().writes_submitted.load(Ordering::Relaxed),
                1
            );
            assert_eq!(driver.counters().writes_shared.load(Ordering::Relaxed), 1);
            driver.stop();
        }

        #[test]
        fn shaped_mem_pipelined_responses_keep_order() {
            let (driver, token, mut client) = shaped_mem_pair();
            pipelined_responses_keep_order(driver, token, &mut client);
        }

        #[test]
        fn shaped_mem_removal_mid_drain_releases_the_body() {
            let (driver, token, _client) = shaped_mem_pair();
            removal_mid_drain_releases_the_body(driver, token);
        }

        /// On an unshaped pipe the response completes synchronously and
        /// nothing holds the body afterwards.
        #[test]
        fn mem_response_completes_synchronously() {
            let driver = Arc::new(ConnDriver::new());
            let (mut client, server) = crate::mem::MemConn::pair();
            let token = driver.add(Box::new(server));
            let (head, body) = (head(1), body(1));
            submit(&driver, token, &head, &body);
            assert_eq!(driver.pending_out(token), 0);
            assert_eq!(body.ref_count(), 1);
            expect_done(&driver, token, 1);
            assert!(read_exactly(&mut client, head.len()) == head[..]);
            assert!(read_exactly(&mut client, body.len()) == body[..]);
            assert!(
                driver.take_write_buf().capacity() >= head.len(),
                "the head buffer went back to the pool"
            );
            driver.stop();
        }
    }

    /// The fd-reuse race end-to-end: remove a connection (closing its
    /// fd) and immediately accept a new one that reuses it. The stale
    /// token must never fire.
    #[test]
    #[cfg(unix)]
    fn removed_token_never_fires_after_fd_reuse() {
        let acceptor = crate::tcp::TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let driver = Arc::new(ConnDriver::new());
        driver.spawn_acceptor(Box::new(acceptor));
        let mut dead_tokens = std::collections::HashSet::new();
        for round in 0..25 {
            let old_client = crate::tcp::TcpConn::connect(&addr).unwrap();
            let DriverEvent::Incoming(old_token) =
                driver.next_event(Duration::from_secs(2)).unwrap()
            else {
                panic!()
            };
            driver.arm(old_token);
            // Remove while the watch is armed and no data has arrived:
            // the fd closes here, may be reused by the next accept, and
            // any Readable(old_token) from now on is a stale delivery
            // (POLLNVAL on the closed fd, or the new connection's data
            // observed under the old token).
            drop(driver.remove(old_token));
            dead_tokens.insert(old_token);
            drop(old_client);

            // The next accept very likely reuses the freed fd.
            let mut new_client = crate::tcp::TcpConn::connect(&addr).unwrap();
            let DriverEvent::Incoming(new_token) =
                driver.next_event(Duration::from_secs(2)).unwrap()
            else {
                panic!()
            };
            driver.arm(new_token);
            new_client.write_all(b"fresh").unwrap();
            match driver.next_event(Duration::from_secs(2)) {
                Some(DriverEvent::Readable(t)) => {
                    assert!(
                        !dead_tokens.contains(&t),
                        "stale watch fired for removed token {t} (round {round})"
                    );
                    assert_eq!(t, new_token);
                }
                other => panic!("expected Readable({new_token}), got {other:?}"),
            }
            driver.remove(new_token);
            dead_tokens.insert(new_token);
        }
        driver.stop();
    }
}
