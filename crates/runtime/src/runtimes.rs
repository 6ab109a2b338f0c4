//! The three runtime systems of paper §3.2.
//!
//! * **Thread-per-flow** — "a thread is created for every different data
//!   flow"; high overhead under load, included as the paper's naïve
//!   baseline.
//! * **Thread-pool** — "a fixed number of threads are allocated to
//!   service data flows. If all threads are occupied when a new data
//!   flow is created, the data flow is queued and handled in first-in
//!   first-out order."
//! * **Event-driven** — "every input to a functional node is treated as
//!   an event ... handled in turn by a single thread." Our runtime
//!   generalizes the paper's single dispatcher to `shards` dispatcher
//!   threads so flow execution scales across cores; `shards: 1`
//!   reproduces the paper's configuration exactly. Nodes flagged as
//!   blocking are off-loaded to an I/O helper pool that posts a
//!   completion event back to the queues — the moral equivalent of the
//!   paper's LD_PRELOAD shim plus its select-based callback-simulation
//!   thread (now a real readiness reactor on the network side; see
//!   `flux-net`'s reactor module). Since the reactor also drains
//!   per-connection output buffers on `POLLOUT`, response-writing nodes
//!   are ordinary non-blocking nodes: the pool services only genuinely
//!   blocking work (reads, disk), never sends. The driver's write-path
//!   counters surface next to [`crate::stats::ShardStat`] through
//!   [`crate::stats::NetCounters`].
//!
//!   **Sharding design.** Each shard owns a local FIFO run queue of
//!   [`FlowCursor`] events, and an event only ever runs on its *home*
//!   shard: a cursor whose source declared a session function hashes
//!   its session id ([`shard_index`]), so session-scoped constraint
//!   locks stay core-local; sessionless cursors hash their flow id,
//!   which spreads load evenly. New flows, I/O-pool completions and
//!   `Step::WouldBlock` retries all go home. An event runs at most one
//!   node per queue turn, as in the paper's one event per node input,
//!   and is then re-queued at the back of its home shard. There is no
//!   work stealing: an idle shard waits on its own queue, and balance
//!   across shards comes from the routing hash alone. Per-shard
//!   queue-depth, batch and affinity counters land in
//!   [`crate::stats::ShardStat`].
//!
//!   **Shutdown.** A shard may exit only when every source loop has
//!   exited *and* the global live-event count is zero; the count is
//!   incremented at submission and decremented at `Step::Done`, so
//!   events parked in sibling queues or the I/O pool keep every shard
//!   alive until the system is fully drained.
//! * **Staged** — a SEDA-style runtime (paper §3.2.3 reports a prototype
//!   "that targets Java, using both SEDA and a custom runtime
//!   implementation"): every concrete node is a stage with its own FIFO
//!   queue and worker pool; flows hop from stage to stage, giving
//!   cohort-style batching of each node's executions.
//!
//! Because Flux programs are runtime-independent, the same
//! [`FluxServer`] value runs unchanged on any of the four.

use crate::server::{FlowCursor, FluxServer, LockWait, Step};
use crate::stats::ShardStat;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Whether the sharded event runtime bounds its per-shard queues.
///
/// [`OverloadPolicy::Unbounded`] (the default, and the paper's
/// semantics) lets queues grow without limit — past saturation, latency
/// and memory grow with them. [`OverloadPolicy::Bounded`] enforces a
/// hard depth cap on every shard queue and converts enqueue-over-cap
/// into **shed-at-source**: the overflow payloads of a source batch are
/// counted per shard
/// ([`crate::stats::ShardStat`]'s `shed`, rolled up in
/// [`crate::stats::OverloadStat`]) and handed to the registry's
/// `on_shed` handler *before* they enter any queue, so servers answer a
/// cheap 503/BUSY instead of queueing doomed work. Shedding happens
/// only at the source-submission boundary; events already admitted are
/// never dropped mid-graph (requeues and I/O completions are exempt
/// from the cap — see the crate docs, "Overload invariants").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Unbounded shard queues; no shedding. The default.
    #[default]
    Unbounded,
    /// Hard per-shard depth caps with shed-at-source accounting.
    Bounded(OverloadConfig),
}

impl OverloadPolicy {
    /// Bounded queues with the given per-shard depth cap and otherwise
    /// default tuning.
    pub fn bounded(max_shard_depth: usize) -> Self {
        OverloadPolicy::Bounded(OverloadConfig { max_shard_depth })
    }
}

/// Tuning of the bounded overload policy (see [`OverloadPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Events a shard queue may hold before source submissions to it
    /// shed. Applies to each shard independently (a hot shard sheds
    /// while its siblings admit). Clamped to at least 1.
    pub max_shard_depth: usize,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_shard_depth: 4096,
        }
    }
}

/// Which runtime to launch (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// One OS thread per flow.
    ThreadPerFlow,
    /// Fixed worker pool with a FIFO queue.
    ThreadPool { workers: usize },
    /// `shards` dispatcher threads, each running only the events routed
    /// to it by session (or flow id) hash; blocking nodes off-loaded to
    /// `io_workers` helpers. `shards: 1` is the paper's
    /// single-dispatcher configuration.
    EventDriven {
        shards: usize,
        /// Size of the I/O pool (at least 1). The pool is started only
        /// for a program that can block (`FluxServer::can_block`): a
        /// program with no `blocking` node runs on its shards alone.
        io_workers: usize,
        /// Whether shard queues are depth-capped with shed-at-source
        /// ([`OverloadPolicy`]); `Unbounded` is the paper's semantics.
        overload: OverloadPolicy,
    },
    /// SEDA-style: one FIFO queue + `stage_workers` threads per concrete
    /// node (paper §3.2.3's SEDA target).
    Staged { stage_workers: usize },
}

impl RuntimeKind {
    /// The event-driven runtime with a fixed dispatcher set; `shards: 1`
    /// is the paper's single-dispatcher configuration.
    pub fn event_driven_sharded(shards: usize, io_workers: usize) -> Self {
        RuntimeKind::EventDriven {
            shards,
            io_workers,
            overload: OverloadPolicy::Unbounded,
        }
    }

    /// Selects the overload policy of an event-driven runtime (no-op on
    /// the other kinds), composing with the constructors:
    /// `RuntimeKind::event_driven_sharded(4, 4)
    /// .overload(OverloadPolicy::bounded(1024))`.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        if let RuntimeKind::EventDriven { overload, .. } = &mut self {
            *overload = policy;
        }
        self
    }
}

/// A running server: join it or stop it.
pub struct ServerHandle<P: Send + 'static> {
    server: Arc<FluxServer<P>>,
    threads: Vec<JoinHandle<()>>,
}

impl<P: Send + 'static> ServerHandle<P> {
    /// The underlying server (stats, profiler, shutdown).
    pub fn server(&self) -> &Arc<FluxServer<P>> {
        &self.server
    }

    /// Requests shutdown and joins every runtime thread. Source
    /// implementations must return periodically (`SourceOutcome::Skip`
    /// on a timeout) for this to complete.
    pub fn stop(self) {
        self.server.request_shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Blocks until all runtime threads exit on their own (sources
    /// returned `Shutdown`).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Starts `server` on the chosen runtime.
pub fn start<P: Send + 'static>(server: Arc<FluxServer<P>>, kind: RuntimeKind) -> ServerHandle<P> {
    let threads = match kind {
        RuntimeKind::ThreadPerFlow => start_thread_per_flow(&server),
        RuntimeKind::ThreadPool { workers } => start_thread_pool(&server, workers.max(1)),
        RuntimeKind::EventDriven {
            shards,
            io_workers,
            overload,
        } => start_event_driven(&server, shards.max(1), io_workers.max(1), overload),
        RuntimeKind::Staged { stage_workers } => start_staged(&server, stage_workers.max(1)),
    };
    ServerHandle { server, threads }
}

fn source_loop<P: Send + 'static>(
    server: &Arc<FluxServer<P>>,
    fi: usize,
    submit: impl FnMut(&mut Vec<(FlowCursor, P)>) + Send + 'static,
) -> JoinHandle<()> {
    source_loop_on_exit(server, fi, submit, || {})
}

fn source_loop_counted<P: Send + 'static>(
    server: &Arc<FluxServer<P>>,
    fi: usize,
    submit: impl FnMut(&mut Vec<(FlowCursor, P)>) + Send + 'static,
    active: Option<Arc<std::sync::atomic::AtomicUsize>>,
) -> JoinHandle<()> {
    source_loop_on_exit(server, fi, submit, move || {
        if let Some(active) = active {
            active.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    })
}

/// The one source-lifecycle protocol every runtime shares: poll the
/// source until it shuts down, hand each batch of new flows to `submit`
/// (one pair for a plain `New`, the whole burst for a `Batch`), then
/// run `on_exit` (runtime-specific bookkeeping) exactly once. The batch
/// vector is drained by `submit` and reused across polls, so the
/// steady-state submission path allocates nothing.
fn source_loop_on_exit<P: Send + 'static>(
    server: &Arc<FluxServer<P>>,
    fi: usize,
    mut submit: impl FnMut(&mut Vec<(FlowCursor, P)>) + Send + 'static,
    on_exit: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    let server = server.clone();
    thread::Builder::new()
        .name(format!("flux-source-{}", server.source_name(fi)))
        .spawn(move || {
            let mut batch: Vec<(FlowCursor, P)> = Vec::new();
            while server.poll_source_batch(fi, &mut batch) {
                if !batch.is_empty() {
                    submit(&mut batch);
                    batch.clear(); // submit drains; belt and braces
                }
            }
            on_exit();
        })
        .expect("spawn source thread")
}

fn start_thread_per_flow<P: Send + 'static>(server: &Arc<FluxServer<P>>) -> Vec<JoinHandle<()>> {
    (0..server.flow_count())
        .map(|fi| {
            let srv = server.clone();
            source_loop(server, fi, move |batch: &mut Vec<(FlowCursor, P)>| {
                for (cursor, payload) in batch.drain(..) {
                    let srv = srv.clone();
                    // One thread per flow, as in the paper's naive runtime.
                    let _ = thread::Builder::new()
                        .name("flux-flow".into())
                        .spawn(move || {
                            srv.run_flow(cursor, payload);
                        });
                }
            })
        })
        .collect()
}

fn start_thread_pool<P: Send + 'static>(
    server: &Arc<FluxServer<P>>,
    workers: usize,
) -> Vec<JoinHandle<()>> {
    let (tx, rx): (Sender<(FlowCursor, P)>, Receiver<(FlowCursor, P)>) = channel::unbounded();
    let mut threads: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let srv = server.clone();
            let rx = rx.clone();
            thread::Builder::new()
                .name(format!("flux-worker-{i}"))
                .spawn(move || {
                    // FIFO: a single shared channel preserves submission
                    // order across workers.
                    while let Ok((cursor, payload)) = rx.recv() {
                        srv.run_flow(cursor, payload);
                    }
                })
                .expect("spawn pool worker")
        })
        .collect();
    for fi in 0..server.flow_count() {
        let tx = tx.clone();
        threads.push(source_loop(
            server,
            fi,
            move |batch: &mut Vec<(FlowCursor, P)>| {
                for pair in batch.drain(..) {
                    let _ = tx.send(pair);
                }
            },
        ));
    }
    // Dropping the original sender here means workers exit when all
    // source loops have exited and the queue drains.
    drop(tx);
    threads
}

struct Event<P> {
    cursor: FlowCursor,
    payload: P,
}

/// The session-affinity routing hash of the sharded event runtime: maps
/// a session id (or flow id for sessionless cursors) to its home shard.
/// Public so tests and benchmarks can predict placements; Fibonacci
/// hashing keeps consecutive ids from correlating with the shard count.
pub fn shard_index(key: u64, shards: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards.max(1)
}

/// One dispatcher shard: a local FIFO run queue plus a wake-up condvar.
struct Shard<P> {
    queue: Mutex<VecDeque<Event<P>>>,
    cond: Condvar,
    /// True while the dispatcher is (about to be) blocked in its
    /// condvar wait. Set and cleared under `queue`'s lock, and read by
    /// enqueuers while they hold that same lock, so the check is
    /// race-free: a known-awake shard (parked == false) is guaranteed
    /// to re-examine its queue before it can park, and skipping the
    /// `notify_one` saves a futex syscall per event on a busy shard.
    parked: AtomicBool,
}

/// The shared state of the sharded event-driven runtime.
struct ShardSet<P> {
    shards: Vec<Shard<P>>,
    /// This run's per-shard counters (also published into the server's
    /// [`crate::stats::ServerStats`] for observers).
    stats: Arc<[ShardStat]>,
    /// Source loops still running; shards may not exit while a source
    /// could still produce events.
    active_sources: AtomicUsize,
    /// Events alive anywhere in the system — queued on any shard, being
    /// executed, or parked in the I/O pool. Incremented at submission,
    /// decremented at `Step::Done`.
    live: AtomicUsize,
    /// Per-shard queue depth at which *source* submissions shed
    /// (`usize::MAX` under [`OverloadPolicy::Unbounded`]). Only
    /// [`ShardSet::route_home_batch`] consults it: requeues and I/O
    /// completions move events that were already admitted, and dropping
    /// those would strand flows mid-graph.
    max_depth: usize,
    /// Sink for shed payloads (the registry's `on_shed`): invoked on
    /// the source thread, before the payload enters any queue. `None`
    /// means shed payloads are counted and dropped at the same
    /// boundary.
    shed_handler: Option<Arc<dyn Fn(P) + Send + Sync>>,
}

impl<P> ShardSet<P> {
    fn new(
        n: usize,
        sources: usize,
        max_depth: usize,
        shed_handler: Option<Arc<dyn Fn(P) + Send + Sync>>,
    ) -> Self {
        ShardSet {
            shards: (0..n)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    cond: Condvar::new(),
                    parked: AtomicBool::new(false),
                })
                .collect(),
            stats: (0..n).map(|_| ShardStat::default()).collect(),
            active_sources: AtomicUsize::new(sources),
            live: AtomicUsize::new(0),
            max_depth,
            shed_handler,
        }
    }

    /// The home shard for a cursor: session id when the source declares
    /// one (affinity keeps session-scoped locks core-local), otherwise
    /// the flow id (spreads sessionless flows evenly). Affinity is a
    /// locality heuristic; the lock manager is global, so correctness
    /// never depends on placement.
    fn home_of(&self, cursor: &FlowCursor) -> usize {
        shard_index(cursor.session.unwrap_or(cursor.flow_id), self.shards.len())
    }

    /// Re-enqueues an admitted event on its home shard (I/O-pool
    /// completions, `WouldBlock` retries) and wakes the dispatcher.
    /// Affinity was counted once, at submission.
    fn route_home(&self, ev: Event<P>) {
        self.enqueue(self.home_of(&ev.cursor), ev);
    }

    /// Routes a whole source batch by home shard: each shard's group is
    /// appended under one queue lock with at most one wake-up, instead
    /// of a lock+notify per event. Each session-carrying event counts
    /// once toward its home shard's `affine` counter here. `scratch` is
    /// the caller's reusable partition buffer (one vector per shard),
    /// so the steady state allocates nothing.
    fn route_home_batch(&self, batch: &mut Vec<(FlowCursor, P)>, scratch: &mut Vec<Vec<Event<P>>>) {
        let n = self.shards.len();
        if scratch.len() < n {
            scratch.resize_with(n, Vec::new);
        }
        for (cursor, payload) in batch.drain(..) {
            let home = self.home_of(&cursor);
            if cursor.session.is_some() {
                self.stats[home].affine.fetch_add(1, Ordering::Relaxed);
            }
            scratch[home].push(Event { cursor, payload });
        }
        for (si, group) in scratch.iter_mut().enumerate().take(n) {
            if group.is_empty() {
                continue;
            }
            if self.max_depth != usize::MAX {
                self.shed_overflow(si, group);
            }
            if !group.is_empty() {
                self.enqueue_batch(si, group);
            }
        }
    }

    /// The one shed point of the runtime: truncates a source group to
    /// the room left under shard `si`'s depth cap, counting every
    /// refused event in [`ShardStat::shed`] and handing its payload to
    /// the shed handler on this (source) thread. The depth read races
    /// concurrent producers, so the cap is approximate by at most one
    /// in-flight batch per producer — acceptable for a load-shedding
    /// threshold, and the dispatcher side only ever *shrinks* depth.
    fn shed_overflow(&self, si: usize, group: &mut Vec<Event<P>>) {
        let depth = self.shards[si].queue.lock().len();
        let room = self.max_depth.saturating_sub(depth);
        if group.len() <= room {
            return;
        }
        let shed = group.split_off(room);
        let count = shed.len();
        self.stats[si]
            .shed
            .fetch_add(count as u64, Ordering::Relaxed);
        for ev in shed {
            if let Some(handler) = &self.shed_handler {
                handler(ev.payload);
            }
        }
        // The source loop counted these into `live` at submission;
        // retire them here so shutdown drains cleanly.
        if self.live.fetch_sub(count, Ordering::SeqCst) == count {
            self.wake_all();
        }
    }

    /// Appends `group` to shard `si`'s queue in one lock acquisition,
    /// waking the dispatcher only if it is parked (a running shard
    /// re-examines its queue anyway — the notify would be a wasted
    /// syscall). Counted in [`ShardStat::batches`]/`batch_events`.
    fn enqueue_batch(&self, si: usize, group: &mut Vec<Event<P>>) {
        let count = group.len() as u64;
        let shard = &self.shards[si];
        let st = &self.stats[si];
        let mut q = shard.queue.lock();
        q.extend(group.drain(..));
        // Gauge store inside the lock: serialized with the dispatcher's
        // stores, so the final store after a drain is the dispatcher's
        // 0, never a stale producer value.
        st.enqueue(q.len() as u64);
        let parked = shard.parked.load(Ordering::SeqCst);
        drop(q);
        if parked {
            shard.cond.notify_one();
        }
        st.batches.fetch_add(1, Ordering::Relaxed);
        st.batch_events.fetch_add(count, Ordering::Relaxed);
    }

    /// Enqueues one admitted event on shard `si` and wakes its
    /// dispatcher if it is parked.
    fn enqueue(&self, si: usize, ev: Event<P>) {
        let shard = &self.shards[si];
        let st = &self.stats[si];
        let mut q = shard.queue.lock();
        q.push_back(ev);
        // In-lock gauge store — see `enqueue_batch`.
        st.enqueue(q.len() as u64);
        let parked = shard.parked.load(Ordering::SeqCst);
        drop(q);
        if parked {
            shard.cond.notify_one();
        }
    }

    /// Wakes every shard so it can re-check the exit condition.
    fn wake_all(&self) {
        for s in &self.shards {
            s.cond.notify_all();
        }
    }

    /// True when no event exists anywhere and none can be created.
    fn drained(&self) -> bool {
        self.active_sources.load(Ordering::SeqCst) == 0 && self.live.load(Ordering::SeqCst) == 0
    }
}

/// The sharded event-driven runtime. With `shards == 1` this is the
/// paper's single-dispatcher configuration; with more shards, each
/// event runs only on its home shard, chosen by session (or flow id)
/// hash (see the module docs for the full design).
fn start_event_driven<P: Send + 'static>(
    server: &Arc<FluxServer<P>>,
    shards: usize,
    io_workers: usize,
    overload: OverloadPolicy,
) -> Vec<JoinHandle<()>> {
    let max_depth = match overload {
        OverloadPolicy::Unbounded => usize::MAX,
        OverloadPolicy::Bounded(cfg) => cfg.max_shard_depth.max(1),
    };
    let (io_tx, io_rx): (Sender<Event<P>>, Receiver<Event<P>>) = channel::unbounded();
    let set = Arc::new(ShardSet::<P>::new(
        shards,
        server.flow_count(),
        max_depth,
        server.shed_handler(),
    ));
    server.stats.install_shards(set.stats.clone());

    // Publish this run's overload-control state (reset: a server can be
    // restarted under a different policy).
    let ost = &server.stats.overload;
    ost.enabled
        .store(max_depth != usize::MAX, Ordering::Relaxed);
    ost.depth_cap.store(
        if max_depth == usize::MAX {
            0
        } else {
            max_depth as u64
        },
        Ordering::Relaxed,
    );
    ost.offered.store(0, Ordering::Relaxed);

    // Core pinning on multi-core hosts: shard N takes core
    // N mod host_cores, so session-affine queues stay cache-local. The
    // state lands in ServerStats so bench artifacts can record whether
    // a measurement ran pinned.
    let pin = crate::affinity::should_pin();
    server.stats.pinning.enabled.store(pin, Ordering::Relaxed);
    server
        .stats
        .pinning
        .host_cores
        .store(crate::affinity::host_cores() as u64, Ordering::Relaxed);
    server
        .stats
        .pinning
        .pinned_threads
        .store(0, Ordering::Relaxed);

    let mut threads = Vec::new();

    // I/O helper pool: runs exactly one (blocking) node execution, then
    // posts the flow back to its home shard — the paper's asynchronous
    // completion signal, now with core affinity. A program that cannot
    // block never sends it an event, so it gets no pool.
    let io_workers = if server.can_block() { io_workers } else { 0 };
    for i in 0..io_workers {
        let srv = server.clone();
        let io_rx = io_rx.clone();
        let set = set.clone();
        threads.push(
            thread::Builder::new()
                .name(format!("flux-io-{i}"))
                .spawn(move || {
                    while let Ok(mut ev) = io_rx.recv() {
                        match srv.step(&mut ev.cursor, &mut ev.payload, LockWait::Block) {
                            Step::Done(_) => {
                                if set.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                                    set.wake_all();
                                }
                            }
                            Step::Continue => set.route_home(ev),
                            Step::WouldBlock => unreachable!("Block mode"),
                        }
                    }
                })
                .expect("spawn io worker"),
        );
    }
    drop(io_rx);

    // Dispatcher shards: each handles events from its own queue in turn.
    // A "unit" is everything up to and including the next node
    // execution, matching the paper's one-event-per-node-input model
    // while keeping bookkeeping vertices (locks, dispatch) out of the
    // queues.
    for si in 0..shards {
        let srv = server.clone();
        let set = set.clone();
        let io_tx = io_tx.clone();
        threads.push(
            thread::Builder::new()
                .name(format!("flux-shard-{si}"))
                .spawn(move || {
                    if pin && crate::affinity::pin_current_thread(si) {
                        srv.stats
                            .pinning
                            .pinned_threads
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    run_shard(&srv, &set, si, &io_tx)
                })
                .expect("spawn dispatcher shard"),
        );
    }
    drop(io_tx);

    for fi in 0..server.flow_count() {
        let submit_set = set.clone();
        let exit_set = set.clone();
        let offered_srv = server.clone();
        // Reusable per-shard partition buffer: a whole source batch is
        // routed with one queue lock per destination shard.
        let mut scratch: Vec<Vec<Event<P>>> = Vec::new();
        threads.push(source_loop_on_exit(
            server,
            fi,
            move |batch: &mut Vec<(FlowCursor, P)>| {
                offered_srv
                    .stats
                    .overload
                    .offered
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                submit_set.live.fetch_add(batch.len(), Ordering::SeqCst);
                submit_set.route_home_batch(batch, &mut scratch);
            },
            move || {
                if exit_set.active_sources.fetch_sub(1, Ordering::SeqCst) == 1 {
                    exit_set.wake_all();
                }
            },
        ));
    }

    threads
}

/// One dispatcher shard's main loop: own queue first, then wait.
fn run_shard<P: Send + 'static>(
    srv: &FluxServer<P>,
    set: &ShardSet<P>,
    si: usize,
    io_tx: &Sender<Event<P>>,
) {
    let stats = &set.stats;
    let mut blocked_streak = 0usize;
    loop {
        let next = {
            let mut q = set.shards[si].queue.lock();
            let ev = q.pop_front();
            if ev.is_some() {
                stats[si].depth.store(q.len() as u64, Ordering::Relaxed);
                stats[si].executed.fetch_add(1, Ordering::Relaxed);
            }
            ev
        };
        let Some(mut ev) = next else {
            if set.drained() {
                return;
            }
            let mut q = set.shards[si].queue.lock();
            if q.is_empty() && !set.drained() {
                // Wake-ups come from submissions to this shard and
                // drain/shutdown broadcasts; the timeout is only a
                // backstop, so idle shards cost ~100 wakeups/s, not a
                // hot poll. The parked flag (set and cleared under the
                // queue lock) tells enqueuers the notify is actually
                // needed — while it is false the shard is provably
                // awake and will re-examine its queue, so they skip the
                // syscall.
                set.shards[si].parked.store(true, Ordering::SeqCst);
                set.shards[si]
                    .cond
                    .wait_for(&mut q, Duration::from_millis(10));
                set.shards[si].parked.store(false, Ordering::SeqCst);
            }
            continue;
        };
        let mut ran_node = false;
        loop {
            if srv.at_blocking_exec(&ev.cursor) {
                // The event stays live while parked in the I/O pool.
                let _ = io_tx.send(ev);
                blocked_streak = 0;
                break;
            }
            // Fairness: one node execution per queue turn. An event that
            // has run a node and stands at another goes to the back of
            // this shard's queue, which is its home shard's.
            let runs_node = srv.exec_cost(&ev.cursor) > 0;
            if runs_node && ran_node {
                set.enqueue(si, ev);
                break;
            }
            match srv.step(&mut ev.cursor, &mut ev.payload, LockWait::Try) {
                Step::Continue => {
                    blocked_streak = 0;
                    ran_node |= runs_node;
                }
                Step::Done(_) => {
                    blocked_streak = 0;
                    if set.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                        set.wake_all();
                    }
                    break;
                }
                Step::WouldBlock => {
                    blocked_streak += 1;
                    // Every queued event may be waiting on a lock held
                    // by an off-loaded flow; back off instead of
                    // spinning.
                    let depth = set.shards[si].queue.lock().len();
                    if blocked_streak > depth.max(4) {
                        thread::sleep(Duration::from_micros(100));
                    }
                    // Retry on the cursor's home shard, where a session
                    // flow's lock holder runs too.
                    set.route_home(ev);
                    break;
                }
            }
        }
    }
}

/// The SEDA-style staged runtime: one queue and worker pool per concrete
/// node. A flow is routed (through lock and dispatch vertices) to the
/// queue of the next node it must execute; a stage worker runs exactly
/// that node, then routes the flow onward.
fn start_staged<P: Send + 'static>(
    server: &Arc<FluxServer<P>>,
    stage_workers: usize,
) -> Vec<JoinHandle<()>> {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // One stage per concrete node reachable from any flow.
    let mut senders: HashMap<usize, Sender<(FlowCursor, P)>> = HashMap::new();
    let mut receivers: Vec<(usize, Receiver<(FlowCursor, P)>)> = Vec::new();
    for flow in &server.program().flows {
        for (_, node) in flow.flat.execs() {
            senders.entry(node).or_insert_with(|| {
                let (tx, rx) = channel::unbounded();
                receivers.push((node, rx));
                tx
            });
        }
    }
    let senders = Arc::new(senders);
    let active_sources = Arc::new(AtomicUsize::new(server.flow_count()));
    let in_flight = Arc::new(AtomicUsize::new(0));

    // Routes a flow to its next stage, running lock/dispatch vertices
    // inline; accounts for completion when the flow ends between stages.
    fn route<P: Send + 'static>(
        srv: &FluxServer<P>,
        senders: &HashMap<usize, Sender<(FlowCursor, P)>>,
        in_flight: &std::sync::atomic::AtomicUsize,
        mut cursor: FlowCursor,
        mut payload: P,
    ) {
        loop {
            if let Some(node) = srv.exec_node(&cursor) {
                let _ = senders[&node].send((cursor, payload));
                return;
            }
            match srv.step(&mut cursor, &mut payload, LockWait::Block) {
                Step::Continue => {}
                Step::Done(_) => {
                    in_flight.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                    return;
                }
                Step::WouldBlock => unreachable!("Block mode"),
            }
        }
    }

    let mut threads = Vec::new();
    for (node, rx) in receivers {
        for w in 0..stage_workers {
            let srv = server.clone();
            let rx = rx.clone();
            let senders = senders.clone();
            let active_sources = active_sources.clone();
            let in_flight = in_flight.clone();
            let name = format!("flux-stage-{}-{w}", srv.program().graph.name(node));
            threads.push(
                thread::Builder::new()
                    .name(name)
                    .spawn(move || loop {
                        match rx.recv_timeout(Duration::from_millis(5)) {
                            Ok((mut cursor, mut payload)) => {
                                // Exactly one node execution, then onward.
                                match srv.step(&mut cursor, &mut payload, LockWait::Block) {
                                    Step::Done(_) => {
                                        in_flight.fetch_sub(1, Ordering::SeqCst);
                                    }
                                    Step::Continue => {
                                        route(&srv, &senders, &in_flight, cursor, payload);
                                    }
                                    Step::WouldBlock => unreachable!("Block mode"),
                                }
                            }
                            Err(channel::RecvTimeoutError::Timeout) => {
                                if active_sources.load(Ordering::SeqCst) == 0
                                    && in_flight.load(Ordering::SeqCst) == 0
                                {
                                    return;
                                }
                            }
                            Err(channel::RecvTimeoutError::Disconnected) => return,
                        }
                    })
                    .expect("spawn stage worker"),
            );
        }
    }

    for fi in 0..server.flow_count() {
        let srv = server.clone();
        let senders = senders.clone();
        let in_flight = in_flight.clone();
        threads.push(source_loop_counted(
            server,
            fi,
            move |batch: &mut Vec<(FlowCursor, P)>| {
                for (cursor, payload) in batch.drain(..) {
                    in_flight.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    route(&srv, &senders, &in_flight, cursor, payload);
                }
            },
            Some(active_sources.clone()),
        ));
    }
    threads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{NodeOutcome, NodeRegistry, SourceOutcome};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct P {
        n: u64,
        valid: bool,
    }

    /// A source that produces `total` flows, then shuts down.
    fn counting_registry(total: u64, sum: Arc<AtomicU64>) -> NodeRegistry<P> {
        let mut r = NodeRegistry::new();
        let produced = AtomicU64::new(0);
        r.source("Listen", move || {
            let i = produced.fetch_add(1, Ordering::SeqCst);
            if i >= total {
                SourceOutcome::Shutdown
            } else {
                SourceOutcome::New(P {
                    n: i,
                    valid: i.is_multiple_of(2),
                })
            }
        });
        r.node("Parse", |_| NodeOutcome::Ok);
        let s1 = sum.clone();
        r.node("Respond", move |p: &mut P| {
            s1.fetch_add(p.n, Ordering::SeqCst);
            NodeOutcome::Ok
        });
        r.node("Retry", |_| NodeOutcome::Ok);
        r.node("Close", |_| NodeOutcome::Ok);
        r.node("Oops", |_| NodeOutcome::Ok);
        r.predicate("IsValid", |p: &P| p.valid);
        r
    }

    fn run_on(kind: RuntimeKind, total: u64) -> (u64, u64) {
        let program = flux_core::compile(flux_core::fixtures::MINI_PIPELINE).unwrap();
        let sum = Arc::new(AtomicU64::new(0));
        let server = Arc::new(
            crate::server::FluxServer::new(program, counting_registry(total, sum.clone())).unwrap(),
        );
        let handle = start(server.clone(), kind);
        handle.join();
        // Event runtime: the dispatcher drains after sources exit; wait
        // for completion counts.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.stats.finished() < total && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        (server.stats.finished(), sum.load(Ordering::SeqCst))
    }

    /// The I/O pool exists only for a program that can block: with no
    /// `blocking` node (nor one registered blocking) the event runtime
    /// starts no `flux-io-*` thread; one blocking node brings the pool.
    #[test]
    fn io_pool_only_for_programs_that_can_block() {
        let io_threads = |blocking: bool| {
            let program = flux_core::compile(flux_core::fixtures::MINI_PIPELINE).unwrap();
            let sum = Arc::new(AtomicU64::new(0));
            let mut registry = counting_registry(10, sum.clone());
            if blocking {
                registry.node_blocking("Parse", |_| NodeOutcome::Ok);
            }
            let server = Arc::new(crate::server::FluxServer::new(program, registry).unwrap());
            assert_eq!(server.can_block(), blocking);
            let handle = start(server.clone(), RuntimeKind::event_driven_sharded(1, 4));
            let pool = handle
                .threads
                .iter()
                .filter(|t| t.thread().name().is_some_and(|n| n.starts_with("flux-io-")))
                .count();
            handle.join();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while server.stats.finished() < 10 && std::time::Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(sum.load(Ordering::SeqCst), (0..10).sum::<u64>());
            pool
        };
        assert_eq!(io_threads(false), 0, "no blocking node: no I/O pool");
        assert_eq!(io_threads(true), 4, "a blocking node: the whole pool");
    }

    #[test]
    fn thread_per_flow_completes_all() {
        let (done, sum) = run_on(RuntimeKind::ThreadPerFlow, 100);
        assert_eq!(done, 100);
        assert_eq!(sum, (0..100).sum::<u64>());
    }

    #[test]
    fn thread_pool_completes_all() {
        let (done, sum) = run_on(RuntimeKind::ThreadPool { workers: 4 }, 500);
        assert_eq!(done, 500);
        assert_eq!(sum, (0..500).sum::<u64>());
    }

    #[test]
    fn event_driven_completes_all() {
        let (done, sum) = run_on(RuntimeKind::event_driven_sharded(1, 2), 500);
        assert_eq!(done, 500);
        assert_eq!(sum, (0..500).sum::<u64>());
    }

    #[test]
    fn event_driven_sharded_completes_all() {
        for shards in [2, 4, 8] {
            let (done, sum) = run_on(RuntimeKind::event_driven_sharded(shards, 2), 500);
            assert_eq!(done, 500, "shards={shards}");
            assert_eq!(sum, (0..500).sum::<u64>(), "shards={shards}");
        }
    }

    #[test]
    fn staged_completes_all() {
        let (done, sum) = run_on(RuntimeKind::Staged { stage_workers: 2 }, 500);
        assert_eq!(done, 500);
        assert_eq!(sum, (0..500).sum::<u64>());
    }

    /// The staged runtime actually stages: consecutive nodes of one
    /// flow run on different stage threads.
    #[test]
    fn staged_runs_nodes_on_stage_threads() {
        const SRC: &str = "
            Gen () => (int v);
            A (int v) => (int v);
            B (int v) => ();
            Flow = A -> B;
            source Gen => Flow;
        ";
        let program = flux_core::compile(SRC).unwrap();
        let mut r: NodeRegistry<()> = NodeRegistry::new();
        let produced = AtomicU64::new(0);
        r.source("Gen", move || {
            if produced.fetch_add(1, Ordering::SeqCst) >= 50 {
                SourceOutcome::Shutdown
            } else {
                SourceOutcome::New(())
            }
        });
        let names: Arc<Mutex<std::collections::HashSet<String>>> =
            Arc::new(Mutex::new(std::collections::HashSet::new()));
        for node in ["A", "B"] {
            let names = names.clone();
            r.node(node, move |_| {
                names
                    .lock()
                    .insert(thread::current().name().unwrap_or("?").to_string());
                NodeOutcome::Ok
            });
        }
        let server = Arc::new(crate::server::FluxServer::new(program, r).unwrap());
        let handle = start(server.clone(), RuntimeKind::Staged { stage_workers: 1 });
        handle.join();
        assert_eq!(server.stats.finished(), 50);
        let names = names.lock();
        assert!(
            names.iter().any(|n| n.starts_with("flux-stage-A")),
            "{names:?}"
        );
        assert!(
            names.iter().any(|n| n.starts_with("flux-stage-B")),
            "{names:?}"
        );
    }

    /// Atomicity constraints must hold on every runtime: concurrent
    /// increments of an unsynchronized counter stay exact because the
    /// node is constrained.
    #[test]
    fn constraints_serialize_on_all_runtimes() {
        const SRC: &str = "
            Gen () => (int v);
            Bump (int v) => (int v);
            Done (int v) => ();
            Flow = Bump -> Done;
            source Gen => Flow;
            atomic Bump: {counter};
        ";
        for kind in [
            RuntimeKind::ThreadPerFlow,
            RuntimeKind::ThreadPool { workers: 8 },
            RuntimeKind::event_driven_sharded(1, 4),
            RuntimeKind::event_driven_sharded(4, 4),
            RuntimeKind::Staged { stage_workers: 4 },
        ] {
            let program = flux_core::compile(SRC).unwrap();
            let total = 150u64;
            // A deliberately racy counter: read, yield, write.
            let racy = Arc::new(Mutex::new(0u64));
            let mut r: NodeRegistry<()> = NodeRegistry::new();
            let produced = AtomicU64::new(0);
            r.source("Gen", move || {
                if produced.fetch_add(1, Ordering::SeqCst) >= total {
                    SourceOutcome::Shutdown
                } else {
                    SourceOutcome::New(())
                }
            });
            let racy2 = racy.clone();
            // Mark blocking so the event runtime runs these concurrently
            // on the I/O pool — the constraint must still serialize them.
            r.node_blocking("Bump", move |_| {
                let v = *racy2.lock();
                thread::yield_now();
                *racy2.lock() = v + 1;
                NodeOutcome::Ok
            });
            r.node("Done", |_| NodeOutcome::Ok);
            let server = Arc::new(crate::server::FluxServer::new(program, r).unwrap());
            let handle = start(server.clone(), kind);
            handle.join();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while server.stats.finished() < total && std::time::Instant::now() < deadline {
                thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(server.stats.finished(), total, "{kind:?}");
            assert_eq!(*racy.lock(), total, "{kind:?} must serialize Bump");
        }
    }

    /// The §3.1.1 program must not deadlock even with flows hammering
    /// both lock orders concurrently (the compiler hoisted `x` onto `C`).
    #[test]
    fn deadlock_example_does_not_deadlock() {
        let program = flux_core::compile(flux_core::fixtures::DEADLOCK_EXAMPLE).unwrap();
        let total = 200u64;
        let mut r: NodeRegistry<()> = NodeRegistry::new();
        for src in ["SrcA", "SrcC"] {
            let produced = AtomicU64::new(0);
            r.source(src, move || {
                if produced.fetch_add(1, Ordering::SeqCst) >= total {
                    SourceOutcome::Shutdown
                } else {
                    SourceOutcome::New(())
                }
            });
        }
        for n in ["B", "D"] {
            r.node(n, |_| {
                thread::yield_now();
                NodeOutcome::Ok
            });
        }
        let server = Arc::new(crate::server::FluxServer::new(program, r).unwrap());
        let handle = start(server.clone(), RuntimeKind::ThreadPool { workers: 8 });
        // If lock ordering were wrong this join would hang; the harness
        // timeout is the failure signal.
        handle.join();
        assert_eq!(server.stats.finished(), total * 2);
    }
}
