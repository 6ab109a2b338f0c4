//! The readiness reactor: one thread multiplexes every registered
//! connection, for **both** directions. Sockets wait in a pluggable
//! [`Poller`] backend (`poll(2)` or `epoll(7)` — see [`crate::poller`]);
//! in-memory endpoints ([`crate::mem::MemEndpoint`]) report on a ready
//! list that their writers push onto, and the reactor handles those
//! tokens in the same round, through the same code, as the backend's
//! events.
//!
//! The paper's event-driven runtime simulated asynchronous I/O with a
//! helper thread wrapped around `select`; the seed reproduction took the
//! same shortcut *per connection*, which silently degenerated into
//! thread-per-connection. This module is the real thing: the
//! [`ConnDriver`](crate::driver::ConnDriver) registers per-token
//! *interest* and a single `flux-net-reactor` thread parks in one
//! backend `wait` call across all of it. The watch table is
//! interest-based — each token carries a read/write interest pair:
//!
//! * **Read interest** is one-shot, mirroring the driver's `arm`
//!   contract: a readable (or EOF'd) connection emits
//!   [`DriverEvent::Readable`](crate::driver::DriverEvent) and the read
//!   bit is cleared until the next `arm`.
//! * **Write interest** carries a *drain closure* supplied by the
//!   driver. On writability the reactor calls it to flush that
//!   connection's output buffer (batched: the drain writes until
//!   `WouldBlock`, or until a shaped link's token bucket runs dry); the
//!   bit stays armed until the buffer empties, then the driver's
//!   completion bookkeeping emits `WriteDone`. Response transmission
//!   therefore never occupies an I/O worker thread.
//!
//! **Hot-path layout.** Tokens encode `(slot, generation)`
//! ([`crate::token_slot`]), so every reactor-side table is a plain
//! vector: the watch table is indexed by slot, the fd map by raw fd,
//! and liveness is a per-slot `Arc<AtomicU64>` cell whose value is the
//! current registration's generation (0 = dead). Delivering an event
//! therefore costs two vector indexes and one atomic load — no hashing
//! and no lock on the reactor thread. All `Readable` events from one
//! round are shipped to the driver as a single recycled batch vector,
//! so a burst of N ready connections costs one channel transfer.
//!
//! **Division of labour.** The backend owns only the mechanism of
//! waiting on fds; every invariant is enforced *here*, once, above the
//! [`Poller`] trait — so both backends, and the in-memory transport,
//! inherit it:
//!
//! * **No stale delivery.** Deregistration *synchronously* zeroes the
//!   slot's liveness cell: [`Reactor::deregister`] clears the token's
//!   generation before the caller can drop (and the kernel can reuse)
//!   the file descriptor, and the reactor thread compares the cell
//!   against the watch's recorded generation before delivering any
//!   event or running any drain. A stale watch delivers nothing; it is
//!   purged the first time the thread looks at it. An in-memory token
//!   pushed after its connection was removed meets the same check.
//! * **One-shot re-arm.** After a watch is reported, it is disarmed
//!   until the reactor re-arms it — exactly once per report, with the
//!   post-delivery interest: a backend `modify` for a socket, the
//!   pipe's armed token for an in-memory endpoint.
//! * **Parking.** A drain that cannot proceed parks the watch's write
//!   side until a deadline: 5 ms when it finds the connection lock
//!   contended (`Busy`), the shaper's next chunk of tokens when a
//!   shaped in-memory link runs its bucket dry. A parked socket watch
//!   is simply not re-armed for write until the park expires (the
//!   unpark pass issues the modify), while armed read interest stays
//!   live throughout — a park never delays read delivery. Events that
//!   arrive during a park still run the drain, so a broken connection
//!   retires immediately rather than bouncing unmaskable ERR/HUP
//!   readiness.
//!
//! The reactor wakes for control-plane changes (register/deregister/
//! stop) and for in-memory readiness through a self-pipe registered
//! with the same backend (`Waker`), so work queued while it is parked
//! in `wait` takes effect immediately. [`Reactor::stop`] joins the
//! thread, which exits promptly on the self-pipe wakeup, so no reactor
//! thread can outlive the driver that spawned it. On multi-core hosts
//! the thread pins itself to the last core.

use crate::driver::{token_slot, Delivery, DriverEvent, Token};
use crate::poller::{create_poller, Interest, Poller, PollerBackend, PollerEvent};
use crate::pool::BatchPool;
use crate::traits::Readiness;
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the reactor invokes a write-drain closure.
pub(crate) enum DrainCall {
    /// The connection reported writable: flush as much as it accepts.
    Drain,
    /// The watch is being discarded (backend failure): fail the write so
    /// the driver emits `WriteFailed` instead of leaving it in limbo.
    Abort,
}

/// What a drain closure reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DrainResult {
    /// Output buffer empty: clear write interest.
    Complete,
    /// More bytes remain: keep write interest armed (a socket waits for
    /// `POLLOUT`, a shaped link parks until its next tokens).
    Pending,
    /// The connection lock is contended (a flow holds it across a
    /// blocking read): park write interest briefly so the
    /// level-triggered readiness does not spin the reactor, then
    /// re-offer the drain.
    Busy,
    /// The connection broke: drop the watch.
    Failed,
}

/// Flushes one connection's output buffer; owned by the watch table and
/// called only from the reactor thread. The closure holds the shared
/// connection handle, which also keeps the fd open (and hence
/// un-reusable) until the watch itself is discarded.
pub(crate) type DrainFn = Box<dyn FnMut(DrainCall) -> DrainResult + Send>;

/// How long a drain that found the connection lock contended waits
/// before it is re-offered.
const BUSY_PARK: Duration = Duration::from_millis(5);

/// A registration epoch for a control op: the liveness cell and the
/// generation it held when the op was queued.
struct Epoch {
    gen: u64,
    cell: Arc<AtomicU64>,
}

enum Control {
    /// Arm one-shot read readiness for `token`.
    ReadInterest(Readiness, Token, Epoch),
    /// Arm a write drain for `token`.
    WriteInterest(Readiness, Token, Epoch, DrainFn),
    /// Drop any watch for `token` (connection removed).
    Deregister(Token),
}

struct Shared {
    control: Vec<Control>,
    thread_started: bool,
}

/// The shared liveness slab: one entry per token slot, holding the
/// token currently registered there and its generation cell (0 = dead).
/// The reactor thread never touches this table on the event path — each
/// watch carries a clone of its cell, so the liveness check is a single
/// atomic load.
struct LiveEntry {
    token: Token,
    gen: Arc<AtomicU64>,
}

/// Interrupts the reactor's backend `wait`: a byte on the self-pipe,
/// which the backend watches like any socket. In-memory endpoints hold
/// it to report readiness ([`Waker::ready`]); it is its own `Arc`, not
/// the reactor's, so an endpoint that outlives the driver keeps nothing
/// else alive.
#[derive(Default)]
pub(crate) struct Waker {
    /// Write end of the self-pipe, installed when the thread starts.
    pipe: Mutex<Option<std::io::PipeWriter>>,
    /// True while a wake byte is in flight. Deduplicates wake-ups so at
    /// most one byte is written per reactor round no matter how many
    /// producers race ahead of the reactor (the round's 64-byte drain
    /// keeps the running total near zero) — the blocking pipe write
    /// therefore can never fill the pipe and stall, not even when the
    /// reactor thread itself deregisters a connection from inside an
    /// Abort drain (it is the pipe's only reader).
    pending: AtomicBool,
    /// Tokens of armed in-memory endpoints that became readable.
    ready: Mutex<Vec<Token>>,
}

impl Waker {
    fn wake(&self) {
        if self.pending.swap(true, Ordering::SeqCst) {
            // A byte is already in flight: the reactor will re-read
            // control and the ready list after its next `wait`, which
            // covers everything queued after that byte was written.
            return;
        }
        if let Some(w) = self.pipe.lock().as_mut() {
            let _ = w.write(&[1]);
        }
    }

    /// Reports an armed in-memory endpoint readable (or closed).
    pub(crate) fn ready(&self, token: Token) {
        self.ready.lock().push(token);
        self.wake();
    }

    #[cfg(test)]
    pub(crate) fn take_ready(&self) -> Vec<Token> {
        std::mem::take(&mut *self.ready.lock())
    }
}

/// One token's entry in the reactor thread's watch table.
struct Watch {
    token: Token,
    src: Readiness,
    /// The generation this watch was registered under.
    gen: u64,
    /// The slot's liveness cell; `cell != gen` means stale.
    live: Arc<AtomicU64>,
    /// Read/write interest currently armed.
    interest: Interest,
    drain: Option<DrainFn>,
    /// While set (and in the future), write interest is masked — a
    /// [`DrainResult::Busy`] backoff, or a shaped link waiting for
    /// tokens.
    parked_until: Option<Instant>,
}

impl Watch {
    /// The interest actually armed: write is masked while the watch is
    /// parked (a socket stays registered so errors surface).
    fn effective(&self) -> Interest {
        Interest {
            read: self.interest.read,
            write: self.interest.write && self.parked_until.is_none(),
        }
    }

    fn is_live(&self) -> bool {
        self.live.load(Ordering::SeqCst) == self.gen
    }
}

/// One thread, many connections: the transport-agnostic readiness
/// multiplexer.
pub struct Reactor {
    shared: Mutex<Shared>,
    /// Liveness slab, indexed by token slot (see [`LiveEntry`]).
    /// Deregistration zeroes the cell *synchronously*, before the fd
    /// can close — the reactor thread delivers nothing for a watch
    /// whose cell no longer holds its generation.
    live: Mutex<Vec<Option<LiveEntry>>>,
    next_gen: AtomicU64,
    waker: Arc<Waker>,
    /// The reactor thread, joined by [`Reactor::stop`].
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The backend, created eagerly (so fallback is resolved and
    /// [`Reactor::backend_name`] is stable) and moved into the thread
    /// on first registration.
    poller: Mutex<Option<Box<dyn Poller>>>,
    backend_name: &'static str,
    /// True when the resolved backend differs from the requested one
    /// (epoll requested, poll chosen).
    backend_fell_back: bool,
    stopping: AtomicBool,
    pinned: AtomicBool,
    events_delivered: AtomicU64,
    tx: Sender<Delivery>,
    /// Recycled per-round event vectors, shared with the driver.
    batch_pool: Arc<BatchPool<DriverEvent>>,
    /// Optional per-round hook, invoked once per wait loop iteration
    /// (so at least every backstop timeout, ≤250 ms apart). The driver
    /// installs its idle-reap check here: the sweep runs on the reactor
    /// thread, where a reaped connection's watch deregistration is
    /// cheapest (no cross-thread wake needed).
    tick: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl Reactor {
    pub(crate) fn new(
        tx: Sender<Delivery>,
        batch_pool: Arc<BatchPool<DriverEvent>>,
        backend: PollerBackend,
    ) -> Arc<Self> {
        let poller = create_poller(backend);
        let backend_name = poller.name();
        let backend_fell_back = backend_name != backend.label();
        Arc::new(Reactor {
            shared: Mutex::new(Shared {
                control: Vec::new(),
                thread_started: false,
            }),
            live: Mutex::new(Vec::new()),
            next_gen: AtomicU64::new(1),
            waker: Arc::default(),
            thread: Mutex::new(None),
            poller: Mutex::new(Some(poller)),
            backend_name,
            backend_fell_back,
            stopping: AtomicBool::new(false),
            pinned: AtomicBool::new(false),
            events_delivered: AtomicU64::new(0),
            tx,
            batch_pool,
            tick: Mutex::new(None),
        })
    }

    /// Installs (or replaces) the per-round tick hook. The hook must be
    /// cheap and non-blocking in the common case — it runs on the
    /// reactor thread between wait rounds.
    pub(crate) fn set_tick(&self, f: Box<dyn Fn() + Send>) {
        *self.tick.lock() = Some(f);
    }

    /// Number of readiness (read) events the reactor has delivered
    /// (test and stats hook).
    pub fn events_delivered(&self) -> u64 {
        self.events_delivered.load(Ordering::Relaxed)
    }

    /// The backend actually in use (`"poll"` or `"epoll"`), after the
    /// epoll → poll fallback.
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// True when the requested backend could not be constructed and a
    /// fallback was substituted — the only one is an `epoll` request
    /// landing on poll (`epoll_create1` failed, or the host is not
    /// Linux). Surfaces in
    /// [`DriverCounters::poller_fallbacks`](crate::driver::DriverCounters)
    /// so CI and benches report the resolved backend honestly instead
    /// of silently measuring the wrong thing.
    pub fn backend_fell_back(&self) -> bool {
        self.backend_fell_back
    }

    /// True when the reactor thread pinned itself to a core.
    pub fn pinned(&self) -> bool {
        self.pinned.load(Ordering::Relaxed)
    }

    /// The token's current registration epoch, allocating a fresh
    /// generation if the slot is dead. Returns `None` for a stale
    /// caller whose slot is live under a *different* token — see the
    /// refusal comment below.
    fn live_gen(&self, token: Token) -> Option<Epoch> {
        let slot = token_slot(token);
        let mut live = self.live.lock();
        if live.len() <= slot {
            live.resize_with(slot + 1, || None);
        }
        if let Some(e) = &live[slot] {
            let gen = e.gen.load(Ordering::SeqCst);
            if e.token == token && gen != 0 {
                return Some(Epoch {
                    gen,
                    cell: e.gen.clone(),
                });
            }
            if e.token != token && gen != 0 {
                // The slot's LIVE registration belongs to a different
                // token. Slot reuse always deregisters the old tenant
                // before the new one can register (the driver frees a
                // slot only after `deregister` returns), so a caller
                // naming a different token here is itself stale — a
                // delayed arm/submit racing the removal of its
                // connection. Refuse rather than steal the tenant's
                // liveness cell, which would permanently kill the live
                // connection's watch.
                return None;
            }
        }
        let gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
        // The entry (if any) is dead (gen 0): its cell can be reused —
        // stale watches recorded a non-zero generation, which can never
        // match the fresh one.
        let cell = live[slot]
            .take()
            .map(|e| e.gen)
            .unwrap_or_else(|| Arc::new(AtomicU64::new(0)));
        cell.store(gen, Ordering::SeqCst);
        live[slot] = Some(LiveEntry {
            token,
            gen: cell.clone(),
        });
        Some(Epoch { gen, cell })
    }

    /// Arms one-shot read readiness. The reactor thread is spawned
    /// lazily on the first registration. A stale caller (its slot
    /// already re-registered by a newer token) is refused silently.
    pub(crate) fn register(self: &Arc<Self>, src: Readiness, token: Token) {
        let Some(epoch) = self.live_gen(token) else {
            return;
        };
        self.queue(Control::ReadInterest(src, token, epoch));
    }

    /// Arms a write drain: `drain` is called from the reactor thread
    /// whenever the connection is writable, until it returns
    /// [`DrainResult::Complete`] or [`DrainResult::Failed`]. A stale
    /// caller is refused silently; its submissions were (or will be)
    /// failed by the driver's `remove`, which is what made it stale.
    pub(crate) fn register_write(self: &Arc<Self>, src: Readiness, token: Token, drain: DrainFn) {
        let Some(epoch) = self.live_gen(token) else {
            return;
        };
        self.queue(Control::WriteInterest(src, token, epoch, drain));
    }

    fn queue(self: &Arc<Self>, ctl: Control) {
        let mut shared = self.shared.lock();
        shared.control.push(ctl);
        self.ensure_thread(&mut shared);
        drop(shared);
        self.waker.wake();
    }

    /// Drops any watch for `token`. The liveness cell is zeroed
    /// *before* this returns, so once `deregister` completes the caller
    /// may close the fd: even if the kernel reuses it immediately, the
    /// stale watch's generation no longer matches and it delivers
    /// nothing. Exact-token matching makes this safe against slot
    /// reuse: deregistering a token whose slot already hosts a newer
    /// registration is a no-op.
    pub(crate) fn deregister(&self, token: Token) {
        {
            let live = self.live.lock();
            match live.get(token_slot(token)) {
                Some(Some(e)) if e.token == token => e.gen.store(0, Ordering::SeqCst),
                // Never registered (or the slot moved on to a newer
                // token): nothing to tear down.
                _ => return,
            }
        }
        if self.stopping.load(Ordering::SeqCst) {
            // The reactor thread is gone (or going): the liveness
            // zeroing above is the only part that still matters, and
            // queueing controls or writing the dead self-pipe would be
            // pure waste — `ConnDriver::stop`'s post-join cleanup
            // removes every remaining connection through this path.
            return;
        }
        let mut shared = self.shared.lock();
        if !shared.thread_started {
            return;
        }
        shared.control.push(Control::Deregister(token));
        drop(shared);
        self.waker.wake();
    }

    /// Asks the reactor thread to exit and joins it (the self-pipe
    /// wakeup bounds the wait to one poll round).
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.thread.lock().take() {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }

    fn ensure_thread(self: &Arc<Self>, shared: &mut Shared) {
        if shared.thread_started {
            return;
        }
        shared.thread_started = true;
        let (pipe_rx, pipe_tx) = std::io::pipe().expect("reactor self-pipe");
        *self.waker.pipe.lock() = Some(pipe_tx);
        let poller = self.poller.lock().take().expect("poller created once");
        let this = self.clone();
        let handle = std::thread::Builder::new()
            .name("flux-net-reactor".into())
            .spawn(move || this.run(pipe_rx, poller))
            .expect("spawn reactor thread");
        *self.thread.lock() = Some(handle);
    }

    fn run(self: Arc<Self>, mut pipe_rx: std::io::PipeReader, poller: Box<dyn Poller>) {
        if crate::affinity::should_pin() {
            // Pin opposite the dispatcher shards (which fill cores from
            // 0 upward), so the reactor keeps a core to itself for as
            // long as the shard count allows.
            let core = crate::affinity::host_cores().saturating_sub(1);
            if crate::affinity::pin_current_thread(core) {
                self.pinned.store(true, Ordering::Relaxed);
            }
        }
        let mut t = Table {
            poller,
            watches: Vec::new(),
            fd_to_slot: Vec::new(),
            parked: Vec::new(),
            ready: Vec::new(),
        };
        let wake_fd = pipe_rx.as_raw_fd();
        let _ = t.poller.add(wake_fd, Interest::READ);
        let mut events: Vec<PollerEvent> = Vec::new();
        // This round's in-memory reports, swapped out of `t.ready` so
        // that re-arms made while handling them land in the next round.
        let mut due: Vec<(Token, Interest)> = Vec::new();
        // The round's outgoing Readable batch; recycled through the
        // driver's pool so the steady state allocates nothing.
        let mut round: Vec<DriverEvent> = self.batch_pool.take();

        // Control entries are swapped out of `self.shared` and
        // processed from this buffer with the lock RELEASED: backend
        // syscalls must not serialize register/arm/submit_write callers
        // behind the mutex, and fail_watch's Abort drain re-enters the
        // driver — which calls Reactor::deregister and hence takes
        // `self.shared` again on this very thread (a self-deadlock if
        // the lock were still held). The swap leaves the drained Vec's
        // capacity behind for the producers.
        let mut pending: Vec<Control> = Vec::new();
        loop {
            // Allow the next wake byte BEFORE taking the control batch
            // (and before the ready-list check below): a producer that
            // pushes afterwards either sees the flag cleared and writes
            // a byte, or loses the flag race to a producer whose byte
            // is younger than this reset — either way the next `wait`
            // wakes, so no registration or in-memory report waits out
            // the backstop timeout.
            self.waker.pending.store(false, Ordering::SeqCst);
            std::mem::swap(&mut pending, &mut self.shared.lock().control);
            for ctl in pending.drain(..) {
                let (src, token, epoch, drain) = match ctl {
                    Control::ReadInterest(src, token, epoch) => (src, token, epoch, None),
                    Control::WriteInterest(src, token, epoch, drain) => {
                        (src, token, epoch, Some(drain))
                    }
                    Control::Deregister(token) => {
                        let _ = t.discard(token);
                        continue;
                    }
                };
                if epoch.cell.load(Ordering::SeqCst) != epoch.gen {
                    continue; // raced with deregister
                }
                let w = t.upsert(src, token, &epoch);
                match drain {
                    None => w.interest.read = true,
                    Some(drain) => {
                        w.interest.write = true;
                        w.drain = Some(drain);
                        // A fresh drain supersedes any park.
                        w.parked_until = None;
                    }
                }
                t.arm(&self, token);
            }
            if self.stopping.load(Ordering::SeqCst) {
                return;
            }

            // Per-round tick: the driver's idle-reap check rides here,
            // so a sweep is never more than one backstop timeout away
            // even with zero traffic. Reaping re-enters this reactor
            // via `deregister`, which only queues a control op — no
            // self-deadlock (same re-entry contract as Abort drains).
            if let Some(tick) = self.tick.lock().as_ref() {
                tick();
            }

            // Bounded timeout: a backstop for a missed wake-up byte,
            // shortened to the nearest park expiry so deferred drains
            // resume promptly, and zero when in-memory reports wait.
            let now = Instant::now();
            let nearest_park = t.unpark_expired(&self, now);
            let timeout = if !t.ready.is_empty() || !self.waker.ready.lock().is_empty() {
                Duration::ZERO
            } else {
                match nearest_park {
                    Some(at) => at
                        .saturating_duration_since(now)
                        .clamp(Duration::from_millis(1), Duration::from_millis(250)),
                    None => Duration::from_millis(250),
                }
            };
            if let Err(err) = t.poller.wait(&mut events, timeout) {
                if err.kind() == std::io::ErrorKind::Interrupted {
                    continue;
                }
                // Unexpected backend failure: fail every watch, so
                // flows observe the error on read, pending writes
                // abort, and the table retires.
                let tokens: Vec<Token> = t
                    .watches
                    .iter()
                    .filter_map(|e| e.as_ref().map(|w| w.token))
                    .collect();
                for token in tokens {
                    t.fail_watch(&self, token);
                }
                t.parked.clear();
                continue;
            }

            for ev in events.iter().copied() {
                if ev.fd == wake_fd {
                    // Drain the self-pipe; control is re-read next loop.
                    let mut buf = [0u8; 64];
                    let _ = pipe_rx.read(&mut buf);
                    let _ = t.poller.modify(wake_fd, Interest::READ);
                    continue;
                }
                let watched = t
                    .fd_slot(ev.fd)
                    .filter(|&slot| matches!(t.watches.get(slot), Some(Some(_))));
                let Some(slot) = watched else {
                    // No watch claims this fd: drop the registration.
                    if let Some(s) = t.fd_to_slot.get_mut(ev.fd as usize) {
                        *s = usize::MAX;
                    }
                    let _ = t.poller.delete(ev.fd);
                    continue;
                };
                let ready = Interest {
                    read: ev.readable,
                    write: ev.writable,
                };
                t.on_ready(&self, slot, ready, &mut round);
            }

            // In-memory reports: the endpoints' tokens, and the write
            // drains this thread scheduled. A token whose slot moved on
            // to a newer connection is ignored.
            std::mem::swap(&mut due, &mut t.ready);
            due.extend(
                self.waker
                    .ready
                    .lock()
                    .drain(..)
                    .map(|token| (token, Interest::READ)),
            );
            for (token, ready) in due.drain(..) {
                let slot = token_slot(token);
                if matches!(t.watches.get(slot), Some(Some(w)) if w.token == token) {
                    t.on_ready(&self, slot, ready, &mut round);
                }
            }

            if !round.is_empty() {
                let batch = std::mem::replace(&mut round, self.batch_pool.take());
                let _ = self.tx.send(Delivery::Batch(batch));
            }
        }
    }
}

/// The reactor thread's own state. The watch table is indexed by token
/// slot, the fd map by raw fd (`usize::MAX` = unmapped); they are kept
/// in lockstep: one fd per live socket watch.
struct Table {
    poller: Box<dyn Poller>,
    watches: Vec<Option<Watch>>,
    fd_to_slot: Vec<usize>,
    /// Tokens currently parked, scanned for expiry each round (kept
    /// separate so a wakeup stays O(ready + parked), not O(watched)).
    parked: Vec<Token>,
    /// In-memory readiness the thread found itself, handled after the
    /// next `wait` (which then does not block): an endpoint readable at
    /// arm time, or a write drain that is due.
    ready: Vec<(Token, Interest)>,
}

impl Drop for Table {
    /// The thread is exiting: an in-memory endpoint still armed would
    /// report to a reactor that is gone, so its pipe forgets the token.
    fn drop(&mut self) {
        for w in self.watches.iter().flatten() {
            if let Readiness::Mem(ep) = &w.src {
                ep.disarm();
            }
        }
    }
}

impl Table {
    fn fd_slot(&self, fd: RawFd) -> Option<usize> {
        match self.fd_to_slot.get(fd as usize) {
            Some(&s) if s != usize::MAX => Some(s),
            _ => None,
        }
    }

    /// Removes a token's watch from every structure, including the
    /// backend registration or the pipe's armed token, returning the
    /// watch for any notification the caller still owes. Exact-token
    /// matching: a slot that moved on to a newer token is left
    /// untouched.
    fn discard(&mut self, token: Token) -> Option<Watch> {
        let slot = token_slot(token);
        let entry = self.watches.get_mut(slot)?;
        if entry.as_ref()?.token != token {
            return None;
        }
        let w = entry.take().expect("checked above");
        match &w.src {
            Readiness::Fd(fd) => {
                if self.fd_to_slot.get(*fd as usize) == Some(&slot) {
                    self.fd_to_slot[*fd as usize] = usize::MAX;
                    let _ = self.poller.delete(*fd);
                }
            }
            Readiness::Mem(ep) => ep.disarm(),
        }
        Some(w)
    }

    /// Fails a watch whose backend registration was refused (an fd
    /// the backend cannot multiplex, e.g. a regular file under
    /// epoll): the flow observes the error on its next read,
    /// pending writes abort, and the watch is discarded — the same
    /// treatment as a failed wait, so the one-completion-per-submit
    /// contract holds on every backend.
    fn fail_watch(&mut self, reactor: &Reactor, token: Token) {
        let Some(mut w) = self.discard(token) else {
            return;
        };
        if !w.is_live() {
            return;
        }
        if w.interest.read {
            let _ = reactor.tx.send(Delivery::One(DriverEvent::Readable(token)));
        }
        if let Some(drain) = w.drain.as_mut() {
            let _ = drain(DrainCall::Abort);
        }
    }

    /// Fetches (or creates) `token`'s watch entry for the given
    /// epoch, replacing a stale entry from a prior registration
    /// wholesale and keeping the fd map in lockstep.
    fn upsert(&mut self, src: Readiness, token: Token, epoch: &Epoch) -> &mut Watch {
        let slot = token_slot(token);
        if self.watches.len() <= slot {
            self.watches.resize_with(slot + 1, || None);
        }
        let fresh = match &self.watches[slot] {
            Some(w) => w.token != token || w.gen != epoch.gen,
            None => true,
        };
        if fresh {
            if let Some(fd) = self.watches[slot].as_ref().and_then(|w| w.src.fd()) {
                if self.fd_to_slot.get(fd as usize) == Some(&slot) {
                    self.fd_to_slot[fd as usize] = usize::MAX;
                }
            }
            if let Some(fd) = src.fd() {
                let idx = fd as usize;
                if self.fd_to_slot.len() <= idx {
                    self.fd_to_slot.resize(idx + 1, usize::MAX);
                }
                self.fd_to_slot[idx] = slot;
            }
            self.watches[slot] = Some(Watch {
                token,
                src,
                gen: epoch.gen,
                live: epoch.cell.clone(),
                interest: Interest::none(),
                drain: None,
                parked_until: None,
            });
        }
        self.watches[slot].as_mut().expect("just ensured")
    }

    /// Arms `token`'s effective interest on its source — the one-shot
    /// (re-)arm. A socket gets one backend `modify`; an in-memory
    /// endpoint gets its pipe armed for read (or a report now, if it is
    /// readable already), and an unparked write drain is due at once.
    /// An empty effective interest (a parked write-only watch) arms
    /// nothing: both backends stay silent until the unpark re-arms it.
    fn arm(&mut self, reactor: &Reactor, token: Token) {
        let slot = token_slot(token);
        let Some(w) = self.watches.get(slot).and_then(|e| e.as_ref()) else {
            return;
        };
        let eff = w.effective();
        if w.token != token || eff == Interest::none() {
            return;
        }
        let armed = match &w.src {
            Readiness::Fd(fd) => self.poller.modify(*fd, eff).is_ok(),
            Readiness::Mem(ep) => {
                if eff.read && ep.arm(&reactor.waker, token) {
                    self.ready.push((token, Interest::READ));
                }
                if eff.write {
                    self.ready.push((token, Interest::WRITE));
                }
                true
            }
        };
        if !armed {
            self.fail_watch(reactor, token);
        }
    }

    /// Un-parks expired parks (re-arming their write interest) and
    /// returns the nearest still-pending expiry.
    fn unpark_expired(&mut self, reactor: &Reactor, now: Instant) -> Option<Instant> {
        let mut nearest: Option<Instant> = None;
        let mut expired: Vec<Token> = Vec::new();
        let watches = &mut self.watches;
        self.parked.retain(|&token| {
            let Some(w) = watches
                .get_mut(token_slot(token))
                .and_then(|e| e.as_mut())
                .filter(|w| w.token == token)
            else {
                return false;
            };
            match w.parked_until {
                Some(until) if until <= now => {
                    w.parked_until = None;
                    expired.push(token);
                    false
                }
                Some(until) => {
                    nearest = Some(nearest.map_or(until, |t| t.min(until)));
                    true
                }
                None => false,
            }
        });
        for token in expired {
            self.arm(reactor, token);
        }
        nearest
    }

    /// Handles one readiness report for the watch in `slot`: delivers a
    /// `Readable`, runs the drain, and re-arms (or discards) the watch.
    fn on_ready(
        &mut self,
        reactor: &Reactor,
        slot: usize,
        ready: Interest,
        round: &mut Vec<DriverEvent>,
    ) {
        let Some(watch) = self.watches.get_mut(slot).and_then(|e| e.as_mut()) else {
            return;
        };
        let token = watch.token;
        if !watch.is_live() {
            // Deregistered (possibly with the fd already reused by a
            // new connection): deliver nothing.
            let _ = self.discard(token);
            return;
        }
        if watch.interest.read && ready.read {
            // One-shot: the driver re-arms after the flow reads.
            // Appended to the round batch — one channel send (and one
            // shard-queue append downstream) covers every readable
            // connection of this round.
            watch.interest.read = false;
            reactor.events_delivered.fetch_add(1, Ordering::Relaxed);
            round.push(DriverEvent::Readable(token));
        }
        if watch.interest.write && ready.write {
            // Parked watches still reach here: ERR/HUP cannot be
            // masked on either backend. Running the drain anyway means
            // a broken connection fails its write and retires the
            // watch instead of bouncing unmaskable hangup events for
            // the whole park window; a still-contended lock just
            // re-parks.
            let was_parked = watch.parked_until.is_some();
            let result = watch
                .drain
                .as_mut()
                .map(|d| d(DrainCall::Drain))
                .unwrap_or(DrainResult::Failed);
            let park = match result {
                // A socket waits for `POLLOUT`; a shaped link for the
                // tokens its next chunk needs.
                DrainResult::Pending => match &watch.src {
                    Readiness::Fd(_) => None,
                    Readiness::Mem(ep) => Some(ep.write_ready_in()),
                },
                DrainResult::Busy => Some(BUSY_PARK),
                DrainResult::Complete | DrainResult::Failed => {
                    watch.interest.write = false;
                    watch.drain = None;
                    None
                }
            };
            watch.parked_until = park.map(|d| Instant::now() + d);
            if park.is_some() && !was_parked {
                self.parked.push(token);
            }
        }
        // The post-delivery re-arm: every report ends with exactly one
        // re-arm (or a discard, when no interest remains). A park
        // masks only the write side: armed read interest is re-armed
        // immediately, so a park never delays read delivery, and an
        // ERR/HUP folded into readability is consumed by the one-shot
        // Readable rather than spinning the backoff. A parked
        // write-only watch is left disarmed — re-arming it would let
        // the unmaskable hangup conditions spin the reactor through the
        // park — and the unpark pass re-arms it when the park expires.
        if !watch.interest.read && !watch.interest.write {
            let _ = self.discard(token);
        } else {
            self.arm(reactor, token);
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverEvent;
    use crate::mem::MemConn;
    use crate::tcp::{TcpAcceptor, TcpConn};
    use crate::traits::{Conn, Listener};
    use crossbeam::channel::{unbounded, Receiver};
    use std::collections::VecDeque;
    use std::time::Duration;

    fn backends() -> Vec<PollerBackend> {
        let mut v = vec![PollerBackend::Poll];
        if cfg!(target_os = "linux") {
            v.push(PollerBackend::Epoll);
        }
        v
    }

    /// Unpacks the reactor's batched deliveries back into single events
    /// for assertion-by-assertion consumption.
    struct EventRx {
        rx: Receiver<Delivery>,
        pending: VecDeque<DriverEvent>,
    }

    impl EventRx {
        fn recv_timeout(&mut self, d: Duration) -> Result<DriverEvent, ()> {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(ev);
            }
            let deadline = Instant::now() + d;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                match self.rx.recv_timeout(left) {
                    Ok(Delivery::One(ev)) => return Ok(ev),
                    Ok(Delivery::Batch(b)) => {
                        self.pending.extend(b);
                        if let Some(ev) = self.pending.pop_front() {
                            return Ok(ev);
                        }
                    }
                    Err(_) => return Err(()),
                }
            }
        }

        fn try_recv(&mut self) -> Result<DriverEvent, ()> {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(ev);
            }
            match self.rx.try_recv() {
                Ok(Delivery::One(ev)) => Ok(ev),
                Ok(Delivery::Batch(b)) => {
                    self.pending.extend(b);
                    self.pending.pop_front().ok_or(())
                }
                Err(_) => Err(()),
            }
        }
    }

    fn test_reactor(backend: PollerBackend) -> (Arc<Reactor>, EventRx) {
        let (tx, rx) = unbounded();
        let reactor = Reactor::new(tx, Arc::new(BatchPool::new(4)), backend);
        (
            reactor,
            EventRx {
                rx,
                pending: VecDeque::new(),
            },
        )
    }

    #[test]
    fn reactor_reports_readable_and_eof() {
        for backend in backends() {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
            let addr = acceptor.local_addr();
            let mut c1 = TcpConn::connect(&addr).unwrap();
            let s1 = acceptor.accept().unwrap();
            let c2 = TcpConn::connect(&addr).unwrap();
            let s2 = acceptor.accept().unwrap();

            let (reactor, mut rx) = test_reactor(backend);
            reactor.register(s1.readiness(), 1);
            reactor.register(s2.readiness(), 2);
            assert!(
                rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "nothing readable yet"
            );

            c1.write_all(b"x").unwrap();
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(2)),
                Ok(DriverEvent::Readable(1))
            );
            drop(c2); // EOF wakes the second watch
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(2)),
                Ok(DriverEvent::Readable(2))
            );
            assert_eq!(reactor.events_delivered(), 2);
            reactor.stop();
        }
    }

    #[test]
    fn deregister_suppresses_events() {
        for backend in backends() {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
            let addr = acceptor.local_addr();
            let mut client = TcpConn::connect(&addr).unwrap();
            let server = acceptor.accept().unwrap();

            let (reactor, mut rx) = test_reactor(backend);
            reactor.register(server.readiness(), 7);
            reactor.deregister(7);
            std::thread::sleep(Duration::from_millis(20));
            client.write_all(b"x").unwrap();
            assert!(
                rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "deregistered watch must not fire ({})",
                reactor.backend_name()
            );
            reactor.stop();
        }
    }

    /// The fd-reuse race at the reactor level: deregister a token, close
    /// its fd, and immediately register the (very likely reused) fd
    /// under a new token. The stale generation must deliver nothing; the
    /// new registration must fire.
    #[test]
    fn stale_generation_never_fires_on_reused_fd() {
        for backend in backends() {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
            let addr = acceptor.local_addr();
            let (reactor, mut rx) = test_reactor(backend);
            for round in 0..20u64 {
                let old_token = 1000 + round * 2;
                let new_token = 1001 + round * 2;
                let old_client = TcpConn::connect(&addr).unwrap();
                let old_server = acceptor.accept().unwrap();
                reactor.register(old_server.readiness(), old_token);
                // Tear the socket down immediately: the watch may still be
                // in the reactor's table (its Deregister is only queued)
                // when the fd closes and gets reused below. No data ever
                // arrived while `old_token` was live, so any Readable for it
                // is a stale delivery.
                reactor.deregister(old_token);
                drop(old_server); // fd closes; the kernel may reuse it now
                drop(old_client);
                let mut new_client = TcpConn::connect(&addr).unwrap();
                let new_server = acceptor.accept().unwrap();
                reactor.register(new_server.readiness(), new_token);
                new_client.write_all(b"fresh").unwrap();
                match rx.recv_timeout(Duration::from_secs(2)) {
                    Ok(DriverEvent::Readable(t)) => {
                        assert_eq!(t, new_token, "stale watch fired for a reused fd")
                    }
                    other => panic!("expected Readable({new_token}), got {other:?}"),
                }
                assert!(
                    rx.try_recv().is_err(),
                    "exactly one event per round (round {round})"
                );
                reactor.deregister(new_token);
            }
            reactor.stop();
        }
    }

    #[test]
    fn stop_joins_reactor_thread() {
        for backend in backends() {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
            let addr = acceptor.local_addr();
            let _client = TcpConn::connect(&addr).unwrap();
            let server = acceptor.accept().unwrap();
            let (reactor, _rx) = test_reactor(backend);
            reactor.register(server.readiness(), 1);
            reactor.stop();
            assert!(
                reactor.thread.lock().is_none(),
                "stop() must take and join the thread handle"
            );
        }
    }

    /// Regression: a refused backend registration (a regular-file fd
    /// under epoll) fails the watch *after* the control lock is
    /// released. The Abort drain re-enters the driver's remove path —
    /// modelled here by calling `deregister` from inside the drain —
    /// which takes `self.shared` on the reactor thread and used to
    /// self-deadlock, hanging the reactor and `stop()` forever.
    #[cfg(target_os = "linux")]
    #[test]
    fn refused_registration_aborts_drain_without_deadlock() {
        let path = std::env::temp_dir().join("flux-net-epoll-refused.tmp");
        let file = std::fs::File::create(&path).unwrap();
        let (reactor, _rx) = test_reactor(PollerBackend::Epoll);
        assert_eq!(reactor.backend_name(), "epoll");

        let (done_tx, done_rx) = unbounded();
        let inner = reactor.clone();
        let drain: DrainFn = Box::new(move |call| {
            if matches!(call, DrainCall::Abort) {
                inner.deregister(9); // the driver's remove path re-enters here
                let _ = done_tx.send(());
            }
            DrainResult::Failed
        });
        reactor.register_write(Readiness::Fd(file.as_raw_fd()), 9, drain);
        assert!(
            done_rx.recv_timeout(Duration::from_secs(2)).is_ok(),
            "abort drain never completed: reactor self-deadlocked on the control lock"
        );
        reactor.stop();
        let _ = std::fs::remove_file(&path);
    }

    /// Regression: a stale caller whose slot has already been
    /// re-registered by a newer token must be refused — reusing the
    /// tenant's liveness cell for the stale token would permanently
    /// kill the live connection's watch (the delayed-arm race: arm(A)
    /// passes its driver check, A is removed, its slot reused by B and
    /// armed, then the stale arm(A) resumes).
    #[test]
    fn stale_registrant_cannot_kill_the_slots_new_tenant() {
        for backend in backends() {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
            let addr = acceptor.local_addr();
            let (reactor, mut rx) = test_reactor(backend);
            // Two generations of the same driver slot.
            let token_a = (1u64 << 32) | 42;
            let token_b = (2u64 << 32) | 42;
            let _a_client = TcpConn::connect(&addr).unwrap();
            let a_server = acceptor.accept().unwrap();
            reactor.register(a_server.readiness(), token_a);
            reactor.deregister(token_a); // driver removes A, then frees the slot
            let mut b_client = TcpConn::connect(&addr).unwrap();
            let b_server = acceptor.accept().unwrap();
            reactor.register(b_server.readiness(), token_b);
            // The stale A caller resumes after B went live: refused.
            reactor.register(a_server.readiness(), token_a);
            std::thread::sleep(Duration::from_millis(30));
            b_client.write_all(b"x").unwrap();
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(2)),
                Ok(DriverEvent::Readable(token_b)),
                "tenant watch must survive the stale registrant ({})",
                reactor.backend_name()
            );
            assert!(
                rx.try_recv().is_err(),
                "and nothing fires for the stale token"
            );
            reactor.stop();
        }
    }

    /// The backend chosen matches the request (with fallback resolved at
    /// construction, before the thread starts).
    #[test]
    fn backend_name_reports_resolved_backend() {
        let (reactor, _rx) = test_reactor(PollerBackend::Poll);
        assert_eq!(reactor.backend_name(), "poll");
        assert!(!reactor.backend_fell_back());
        reactor.stop();
        #[cfg(target_os = "linux")]
        {
            let (reactor, _rx) = test_reactor(PollerBackend::Epoll);
            assert_eq!(reactor.backend_name(), "epoll");
            assert!(!reactor.backend_fell_back());
            reactor.stop();
        }
    }

    /// A burst of ready connections arrives as one batch: the reactor
    /// ships every Readable of a round in a single delivery. Every
    /// connection is readable, and all sixteen registrations are
    /// queued, before the reactor thread's first round, so that round
    /// sees all of them on every schedule — sockets and in-memory
    /// endpoints alike.
    #[test]
    fn burst_of_readables_is_batched() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let tcp_pair = || -> (Box<dyn Conn>, Box<dyn Conn>) {
            let client = TcpConn::connect(&addr).unwrap();
            (Box::new(client), acceptor.accept().unwrap())
        };
        let mem_pair = || -> (Box<dyn Conn>, Box<dyn Conn>) {
            let (client, server) = MemConn::pair();
            (Box::new(client), Box::new(server))
        };
        let transports: [(&str, &dyn Fn() -> (Box<dyn Conn>, Box<dyn Conn>)); 2] =
            [("tcp", &tcp_pair), ("mem", &mem_pair)];
        for (name, pair) in transports {
            let (tx, rx) = unbounded();
            let reactor = Reactor::new(tx, Arc::new(BatchPool::new(4)), PollerBackend::default());
            let mut clients = Vec::new();
            let mut servers = Vec::new();
            for _ in 0..16 {
                let (mut c, s) = pair();
                c.write_all(b"!").unwrap();
                if let Some(fd) = s.readiness().fd() {
                    crate::poller::wait_readable(fd, Some(Duration::from_secs(2))).unwrap();
                }
                clients.push(c);
                servers.push(s);
            }
            {
                // Queue every registration, then start the thread: its
                // first round takes the whole control batch at once.
                let mut shared = reactor.shared.lock();
                for (i, s) in servers.iter().enumerate() {
                    let token = i as Token;
                    let epoch = reactor.live_gen(token).unwrap();
                    shared
                        .control
                        .push(Control::ReadInterest(s.readiness(), token, epoch));
                }
                reactor.ensure_thread(&mut shared);
            }
            let mut got = 0usize;
            let mut deliveries = 0usize;
            while got < 16 {
                match rx.recv_timeout(Duration::from_secs(2)) {
                    Ok(Delivery::Batch(b)) => got += b.len(),
                    Ok(Delivery::One(_)) => got += 1,
                    Err(_) => break,
                }
                deliveries += 1;
            }
            assert_eq!(got, 16, "all {name} connections reported");
            assert!(
                deliveries < 16,
                "a {name} burst must coalesce into batches \
                 (got {deliveries} deliveries for 16 events)"
            );
            reactor.stop();
        }
    }
}
