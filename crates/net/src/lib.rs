//! # flux-net — network substrate for the Flux servers
//!
//! The paper's servers sit on POSIX sockets; this crate abstracts the
//! transport behind [`Conn`]/[`Listener`]/[`Datagram`] traits and the
//! readiness machinery behind a layered, swappable stack:
//!
//! * **mem** — a hermetic in-memory transport (duplex pipes, a listener
//!   registry, datagram sockets) with optional aggregate link shaping,
//!   so benchmarks are reproducible and can exhibit network saturation;
//! * **tcp** — real TCP/UDP over `std::net`; the acceptor waits for
//!   connections in `poll(2)` and output goes out with
//!   `sendmsg(MSG_DONTWAIT)` — a gather write over a response's head
//!   and body, or over the queued segments of a drain — so nothing at
//!   this edge sleep-polls, flips socket modes or copies a body;
//! * **driver** — a readiness multiplexer ([`ConnDriver`]) that turns
//!   accepts, per-connection readability and asynchronous write
//!   completions into one event stream, which Flux source nodes consume
//!   (the paper's select loop). [`ConnDriver::submit_write`] and its
//!   by-reference siblings ([`ConnDriver::submit_response`],
//!   [`ConnDriver::submit_write_shared`]) queue output without
//!   blocking; `WriteDone`/`WriteFailed` events report completion.
//!   Construction goes through [`NetConfig`]
//!   (backend choice, output-buffer bound, event-poll timeout) —
//!   servers reach it via `flux_servers::ServerBuilder`;
//! * **reactor** — the single multiplexer thread behind the driver:
//!   every registered TCP socket carries read/write *interest*, output
//!   buffers drain on writability instead of parking an I/O worker in
//!   `send(2)`, and the fd-reuse (generation) and shutdown invariants
//!   are enforced here once, above the backend;
//! * **poller** — the syscall-facing core, behind the [`Poller`] trait
//!   (`add`/`modify`/`delete`/`wait` over interest-tagged fds): a
//!   portable `poll(2)` backend (interest maintained incrementally, so
//!   a wait costs O(changes) in bookkeeping, O(watched) only in the
//!   kernel scan poll(2) inherently pays), a raw-FFI `epoll(7)`
//!   backend (O(ready) per wakeup, one-shot re-arm), the Linux
//!   default. One backend per platform: epoll on Linux, poll
//!   elsewhere (and on Linux when `epoll_create1` fails);
//!   [`NetConfig::backend`] names poll on Linux for the conformance
//!   suite in `tests/`, which both pass. A kqueue backend would slot
//!   in behind the same four methods.
//!
//! ## The allocation-free hot path (slabs, batches, pools)
//!
//! The steady-state event path — socket ready → event delivered → flow
//! dispatched → response enqueued — performs no hashing, no global
//! lock and no heap allocation:
//!
//! * **Slab tables.** A [`Token`] encodes `(slot, generation)`
//!   ([`token_slot`]/[`token_gen`]). The driver's connection table is a
//!   slab of per-slot locks (no `Mutex<HashMap>`), and the reactor's
//!   watch table, fd map and liveness table are plain vectors indexed
//!   by slot and fd. The generation check — one atomic load against a
//!   per-slot cell — subsumes the old liveness `HashMap`: a stale
//!   token can never observe the slot's next tenant, which is the
//!   fd-reuse safety invariant PR 2 introduced, now O(1) and lock-free
//!   on the delivery path.
//! * **Batched delivery.** One backend `wait` round yields a batch of
//!   ready fds; the reactor ships the whole round as a single recycled
//!   `Vec<DriverEvent>` and consumers drain it via
//!   [`ConnDriver::next_events`] — one channel transfer and (in the
//!   runtime) one shard-queue lock per round instead of per event.
//! * **Buffer pooling: heads and small messages.** What a server
//!   serializes per reply is small — a response head, a pub/sub line, a
//!   BitTorrent block reply — and goes into a buffer checked out of a
//!   bounded [`pool::BytePool`] ([`ConnDriver::take_write_buf`]),
//!   recycled as soon as the transport has taken (or buffered) the
//!   bytes ([`ConnDriver::submit_write_buf`],
//!   [`ConnDriver::submit_response`]); per-connection read scratch
//!   ([`ConnDriver::take_read_buf`]) is reused across all requests on a
//!   keep-alive connection. Bodies never pass through the pool.
//! * **Shared payloads: bodies leave by reference.** Bytes that many
//!   writes share are held once, in a refcounted
//!   [`pool::SharedPayload`], and every write of them is a reference.
//!   A web reply is a pooled head plus the document root's own buffer
//!   as the body ([`ConnDriver::submit_response`]): one submission, one
//!   `sendmsg` over `[head, body]`, one completion event. A multicast
//!   result is encoded once, sealed ([`ConnDriver::seal_write_buf`])
//!   and submitted to every subscriber
//!   ([`ConnDriver::submit_write_shared`]). In both cases a connection
//!   that cannot take the bytes at once buffers a *reference* in its
//!   segment-queue [`pool::OutBuf`] (for a reply: a copy of the head's
//!   unsent tail and the body at its offset), the reactor's `POLLOUT`
//!   drain gathers the queued segments into one `sendmsg` per wake, and
//!   a sealed buffer returns to the pool exactly once, when the last
//!   drain (or teardown) releases it. A connection whose output buffer
//!   would exceed the configured bound is evicted (slow-consumer
//!   policy) rather than buffering without limit.
//!
//! On multi-core hosts the reactor thread pins itself to a core
//! ([`affinity`]), matching the runtime's pinned dispatcher shards.
//! Pinning has no opt-out.
//!
//! ## Overload invariants
//!
//! Edge admission lives here, in the [`ConnDriver`], in front of the
//! runtime's shard-queue depth caps (see `flux-runtime`'s "Overload
//! invariants" docs for the shedding layer above):
//!
//! * **Accept governing.** [`NetConfig::max_conns`] bounds live
//!   connections — past it an accepted socket is closed immediately
//!   (peers fail fast instead of parking in a backlog the server will
//!   never drain). The check runs on the acceptor thread, which
//!   otherwise waits in the kernel for the next connection, so an
//!   ungoverned accept costs no timer. Both outcomes are counted
//!   ([`DriverCounters::accepts_governed`] vs
//!   [`DriverCounters::accepts_admitted`]), so `admitted + governed`
//!   always reconciles with accepts observed.
//! * **Idle and slow-loris reaping.** With [`NetConfig::idle_timeout`]
//!   set, every slot carries a *progress* stamp refreshed only by
//!   **application-level progress** — a complete parsed request or a
//!   successful response drain, via [`ConnDriver::mark_progress`] —
//!   never by raw readable bytes, so a peer trickling one header byte
//!   per second is reaped on schedule. The sweep
//!   ([`ConnDriver::reap_idle`]) runs off the reactor's wait loop
//!   (bounded cadence, CAS-deduped), skips connections with writes in
//!   flight, and releases the slab slot, its buffers and the epoll
//!   watch in one pass; `EMFILE`/`ENFILE` on accept triggers an
//!   immediate sweep before backing off.
//! * **Backpressure is visible before it is fatal.**
//!   [`DriverCounters::writes_deferred`] counts submissions that
//!   queued behind existing output — the early-warning signal — while
//!   the existing bound still evicts the slow consumer when the buffer
//!   limit is hit.

pub mod affinity;
pub mod driver;
pub mod mem;
#[cfg(unix)]
pub mod poller;
pub mod pool;
pub mod reactor;
pub mod shaper;
pub mod tcp;
pub mod traits;

pub use driver::{
    token_gen, token_slot, ConnDriver, DriverCounters, DriverEvent, NetConfig, SharedConn, Token,
    IO_TIMEOUT,
};
pub use mem::{MemConn, MemDatagram, MemListener, MemNet};
#[cfg(target_os = "linux")]
pub use poller::EpollPoller;
#[cfg(unix)]
pub use poller::{create_poller, Interest, PollPoller, Poller, PollerBackend, PollerEvent};
pub use pool::{BytePool, OutBuf, SharedPayload};
#[cfg(unix)]
pub use reactor::Reactor;
pub use shaper::Shaper;
pub use tcp::{TcpAcceptor, TcpConn, UdpDatagram};
pub use traits::{read_exact_timeout, Conn, Datagram, Listener, WriteProgress};
