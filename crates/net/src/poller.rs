//! Pluggable readiness backends: the syscall-facing core of the
//! reactor, extracted behind the [`Poller`] trait.
//!
//! The paper's central claim is runtime independence — the same Flux
//! program runs on any concurrency substrate. This module extends that
//! symmetry one layer down: the [`Reactor`](crate::reactor::Reactor)
//! owns *policy* (interest bookkeeping, generation-tagged liveness
//! against fd reuse, drain scheduling, the self-pipe wakeup) while the
//! backend owns only the *mechanism* of waiting on file descriptors:
//!
//! * [`PollPoller`] — the portable `poll(2)` backend. The `pollfd`
//!   array is maintained incrementally on `add`/`modify`/`delete`
//!   (fired entries are masked in place by negating the fd), so the
//!   per-wait bookkeeping is O(changes); only the kernel's own scan
//!   remains O(watched fds).
//! * [`EpollPoller`] — raw-FFI `epoll(7)` (Linux). Interest lives in
//!   the kernel (`EPOLL_CTL_ADD`/`MOD`/`DEL`) and every registration
//!   carries `EPOLLONESHOT`, so a wait costs O(ready fds) and a fired
//!   watch stays quiet until it is re-armed. This is the Linux default.
//! * [`UringPoller`] — raw-FFI `io_uring` (Linux, readiness mode). Each
//!   arm is an `IORING_OP_POLL_ADD` submission queue entry in oneshot
//!   mode — which matches the trait's one-shot contract *exactly*, so
//!   the backend inherits the conformance suite unchanged — and each
//!   disarm an `IORING_OP_POLL_REMOVE`. The syscall-count win over
//!   epoll: `add`/`modify`/`delete` only append SQEs to a local batch,
//!   and [`Poller::wait`] flushes the whole batch *and* collects
//!   completions in a single `io_uring_enter`, so a round with K
//!   arm/disarm changes costs **one syscall** instead of K `epoll_ctl`s
//!   plus an `epoll_wait`. Opt in with `FLUX_POLLER=uring`; a runtime
//!   capability probe (`io_uring_setup` returning `ENOSYS`/`EPERM` in
//!   seccomp'd containers or on old kernels) falls back to epoll, and
//!   the resolved backend is reported by `ConnDriver::poller_backend()`
//!   so tests and benches never lie about what ran. See the module-level
//!   "io_uring: readiness vs completion mode" section in the crate docs
//!   for where this backend stops and what the recorded follow-on
//!   (completion-mode reads/writes riding the same SQ batching seam)
//!   adds.
//!
//! **The one-shot contract.** Both backends deliver *one-shot* events:
//! after [`Poller::wait`] reports an fd, that fd is disarmed until the
//! caller re-issues [`Poller::modify`] (or removes it with
//! [`Poller::delete`]). The reactor therefore finishes handling every
//! reported fd with exactly one `modify`/`delete` call before its next
//! `wait`. `poll(2)` has no kernel-side one-shot, so [`PollPoller`]
//! emulates it by leaving fired fds out of the poll set until the
//! re-arm. That includes error conditions: `POLLERR`/`POLLHUP` cannot
//! be masked on a polled fd, so omission is what makes a fired watch
//! deliver hangups at most once per arm — exactly like a fired
//! `EPOLLONESHOT` watch — keeping the two backends observationally
//! identical, which is what the conformance suite in
//! `crates/net/tests/` checks.
//!
//! Backend selection: [`PollerBackend::default()`] picks epoll on
//! Linux and poll elsewhere; the `FLUX_POLLER` environment variable
//! (`poll` / `epoll` / `uring`) overrides at runtime. Fallback is a
//! chain — a uring that fails its capability probe falls back to
//! epoll, an epoll that fails to initialize falls back to poll — and
//! always resolved at construction, so `Poller::name` (and everything
//! reporting it) reflects what actually runs. A kqueue backend
//! (macOS/BSD) would slot in behind the same four methods.

#![cfg(unix)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Which readiness conditions a watch cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };

    /// No conditions armed. The fd stays registered but delivers no
    /// read/write readiness. Whether unmaskable error conditions
    /// (ERR/HUP) surface in this state is backend-specific — `poll(2)`
    /// reports them for any fd in its set, a oneshot epoll arm delivers
    /// them once — which is why the reactor never hands a backend an
    /// empty interest: a watch with nothing armed is deleted, and a
    /// Busy-parked write-only watch is simply left disarmed (fired),
    /// where both backends are silent until the re-arm.
    pub fn none() -> Interest {
        Interest::default()
    }
}

/// One readiness event out of [`Poller::wait`]. Error/hangup conditions
/// (`POLLERR`/`POLLHUP`/`POLLNVAL`, `EPOLLERR`/`EPOLLHUP`) are folded
/// into **both** flags so the read path can observe the error on its
/// next read and the write path can fail its drain — mirroring how the
/// reactor treated raw `revents`.
#[derive(Debug, Clone, Copy)]
pub struct PollerEvent {
    pub fd: RawFd,
    pub readable: bool,
    pub writable: bool,
}

/// A readiness multiplexer over interest-tagged file descriptors.
///
/// Implementations are driven from a single thread (the reactor's); the
/// trait is `Send` so the whole poller moves into that thread, not
/// `Sync`. See the module docs for the one-shot contract shared by all
/// backends.
pub trait Poller: Send {
    /// The backend's name, for stats, logs and benchmark records.
    fn name(&self) -> &'static str;

    /// Registers `fd` with `interest`. Registering an already-watched
    /// fd replaces its interest (upsert), so callers need not track
    /// which of add/modify applies after an fd was reused.
    fn add(&mut self, fd: RawFd, interest: Interest) -> io::Result<()>;

    /// Re-arms `fd` with `interest` — the one-shot re-arm. Modifying an
    /// unregistered fd registers it.
    fn modify(&mut self, fd: RawFd, interest: Interest) -> io::Result<()>;

    /// Drops the watch on `fd`. Deleting an fd that is not registered
    /// (or already closed by the kernel) is not an error.
    fn delete(&mut self, fd: RawFd) -> io::Result<()>;

    /// Blocks until at least one watched fd is ready or `timeout`
    /// elapses, appending ready fds to `events` (cleared first). Each
    /// reported fd is disarmed until the caller re-issues
    /// [`Poller::modify`] for it.
    fn wait(&mut self, events: &mut Vec<PollerEvent>, timeout: Duration) -> io::Result<()>;
}

/// Which [`Poller`] implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollerBackend {
    /// Portable `poll(2)`: O(watched fds) per wakeup.
    Poll,
    /// Linux `epoll(7)`: O(ready fds) per wakeup, kernel-held interest.
    Epoll,
    /// Linux `io_uring` in readiness (poll) mode: one batched
    /// `io_uring_enter` per wait round covers every arm/disarm change
    /// *and* the wait itself. Falls back to epoll when the kernel or
    /// container refuses `io_uring_setup`.
    Uring,
}

impl PollerBackend {
    /// The name this backend reports through [`Poller::name`] when the
    /// request is honoured (no fallback).
    pub fn label(&self) -> &'static str {
        match self {
            PollerBackend::Poll => "poll",
            PollerBackend::Epoll => "epoll",
            PollerBackend::Uring => "uring",
        }
    }
}

impl Default for PollerBackend {
    /// Epoll on Linux, poll elsewhere — unless `FLUX_POLLER` overrides
    /// (`FLUX_POLLER=poll|epoll|uring` selects at runtime, the knob the
    /// CI matrix legs exercise). io_uring stays opt-in until the
    /// completion-mode work lands: in pure readiness mode its win over
    /// epoll is the batched control plane, which only pays off once
    /// arm/disarm traffic dominates.
    fn default() -> Self {
        match std::env::var("FLUX_POLLER").as_deref() {
            Ok("poll") => PollerBackend::Poll,
            Ok("epoll") => PollerBackend::Epoll,
            Ok("uring") => PollerBackend::Uring,
            _ => {
                if cfg!(target_os = "linux") {
                    PollerBackend::Epoll
                } else {
                    PollerBackend::Poll
                }
            }
        }
    }
}

/// True when this host can actually set up an io_uring (kernel support
/// present, not refused by seccomp/rlimits, not disabled via
/// `FLUX_URING_DISABLE=1`). The probe performs a real
/// `io_uring_setup` and tears it down again — the same call
/// [`create_poller`] makes, so a `true` here means `Uring` will be
/// honoured, not guessed at.
pub fn uring_available() -> bool {
    #[cfg(target_os = "linux")]
    {
        UringPoller::new().is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Instantiates the chosen backend, resolving the fallback chain at
/// construction: `Uring` falls back to [`EpollPoller`] when the
/// capability probe fails (old kernel, seccomp'd container,
/// `FLUX_URING_DISABLE=1`), and `Epoll` falls back to [`PollPoller`]
/// (non-Linux hosts, or a failed `epoll_create1`). The returned
/// poller's [`Poller::name`] is therefore always the backend that
/// actually runs.
pub fn create_poller(backend: PollerBackend) -> Box<dyn Poller> {
    match backend {
        PollerBackend::Poll => Box::new(PollPoller::new()),
        PollerBackend::Epoll => {
            #[cfg(target_os = "linux")]
            let poller: Box<dyn Poller> = match EpollPoller::new() {
                Ok(p) => Box::new(p),
                Err(_) => Box::new(PollPoller::new()),
            };
            #[cfg(not(target_os = "linux"))]
            let poller: Box<dyn Poller> = Box::new(PollPoller::new());
            poller
        }
        PollerBackend::Uring => {
            #[cfg(target_os = "linux")]
            let poller: Box<dyn Poller> = match UringPoller::new() {
                Ok(p) => Box::new(p),
                Err(_) => create_poller(PollerBackend::Epoll),
            };
            #[cfg(not(target_os = "linux"))]
            let poller: Box<dyn Poller> = Box::new(PollPoller::new());
            poller
        }
    }
}

/// The tiny slice of libc the backends need, declared directly so the
/// offline build does not depend on the `libc` crate.
#[allow(non_camel_case_types)]
mod sys {
    pub type c_short = i16;
    pub type c_int = i32;
    pub type nfds_t = std::ffi::c_ulong;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: super::RawFd,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub mod epoll {
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLONESHOT: u32 = 1 << 30;

        pub const EPOLL_CTL_ADD: super::c_int = 1;
        pub const EPOLL_CTL_DEL: super::c_int = 2;
        pub const EPOLL_CTL_MOD: super::c_int = 3;
        pub const EPOLL_CLOEXEC: super::c_int = 0o2000000;

        /// `struct epoll_event`; packed on x86-64, naturally aligned on
        /// every other architecture (matching the kernel ABI).
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        pub struct epoll_event {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            pub fn epoll_create1(flags: super::c_int) -> super::c_int;
            pub fn epoll_ctl(
                epfd: super::c_int,
                op: super::c_int,
                fd: super::c_int,
                event: *mut epoll_event,
            ) -> super::c_int;
            pub fn epoll_wait(
                epfd: super::c_int,
                events: *mut epoll_event,
                maxevents: super::c_int,
                timeout: super::c_int,
            ) -> super::c_int;
            pub fn close(fd: super::c_int) -> super::c_int;
        }
    }

    /// io_uring ABI subset for the readiness-mode backend: setup/enter
    /// syscall numbers (asm-generic, shared by x86-64 and aarch64), the
    /// ring mmap offsets, and the three ops the backend submits
    /// (`POLL_ADD`, `POLL_REMOVE`, `TIMEOUT`). Field layouts mirror
    /// `<linux/io_uring.h>`.
    #[cfg(target_os = "linux")]
    pub mod uring {
        use super::c_int;
        use std::ffi::{c_long, c_void};

        pub const SYS_IO_URING_SETUP: c_long = 425;
        pub const SYS_IO_URING_ENTER: c_long = 426;

        pub const IORING_OFF_SQ_RING: i64 = 0;
        pub const IORING_OFF_CQ_RING: i64 = 0x800_0000;
        pub const IORING_OFF_SQES: i64 = 0x1000_0000;

        /// `io_uring_setup` flag: honour `params.cq_entries` instead of
        /// defaulting the CQ to 2x the SQ (kernel 5.5+).
        pub const IORING_SETUP_CQSIZE: u32 = 1 << 3;
        pub const IORING_ENTER_GETEVENTS: u32 = 1;
        /// `io_uring_enter` flag: the `sig` argument points at an
        /// [`getevents_arg`] carrying a wait timeout (kernel 5.11+).
        pub const IORING_ENTER_EXT_ARG: u32 = 1 << 3;
        /// Feature bit advertising [`IORING_ENTER_EXT_ARG`] support.
        pub const IORING_FEAT_EXT_ARG: u32 = 1 << 8;

        pub const IORING_OP_POLL_ADD: u8 = 6;
        pub const IORING_OP_POLL_REMOVE: u8 = 7;
        pub const IORING_OP_TIMEOUT: u8 = 11;

        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct io_sqring_offsets {
            pub head: u32,
            pub tail: u32,
            pub ring_mask: u32,
            pub ring_entries: u32,
            pub flags: u32,
            pub dropped: u32,
            pub array: u32,
            pub resv1: u32,
            pub user_addr: u64,
        }

        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct io_cqring_offsets {
            pub head: u32,
            pub tail: u32,
            pub ring_mask: u32,
            pub ring_entries: u32,
            pub overflow: u32,
            pub cqes: u32,
            pub flags: u32,
            pub resv1: u32,
            pub user_addr: u64,
        }

        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct io_uring_params {
            pub sq_entries: u32,
            pub cq_entries: u32,
            pub flags: u32,
            pub sq_thread_cpu: u32,
            pub sq_thread_idle: u32,
            pub features: u32,
            pub wq_fd: u32,
            pub resv: [u32; 3],
            pub sq_off: io_sqring_offsets,
            pub cq_off: io_cqring_offsets,
        }

        /// One submission-queue entry (64 bytes). The unions of the
        /// kernel struct are flattened to the fields the three ops use:
        /// `off` doubles as the TIMEOUT completion count, `addr` as the
        /// TIMEOUT timespec pointer / POLL_REMOVE target `user_data`,
        /// and `op_flags` as `poll32_events` (little-endian layout, the
        /// only byte order this backend is compiled for via the
        /// x86-64/aarch64 syscall numbers above).
        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct io_uring_sqe {
            pub opcode: u8,
            pub flags: u8,
            pub ioprio: u16,
            pub fd: c_int,
            pub off: u64,
            pub addr: u64,
            pub len: u32,
            pub op_flags: u32,
            pub user_data: u64,
            pub pad: [u64; 3],
        }

        /// One completion-queue entry (16 bytes; `IORING_SETUP_CQE32`
        /// is never requested).
        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct io_uring_cqe {
            pub user_data: u64,
            pub res: i32,
            pub flags: u32,
        }

        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct kernel_timespec {
            pub tv_sec: i64,
            pub tv_nsec: i64,
        }

        /// `IORING_ENTER_EXT_ARG` payload: a wait timeout without a
        /// sigmask (and without burning an SQE on `IORING_OP_TIMEOUT`).
        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct getevents_arg {
            pub sigmask: u64,
            pub sigmask_sz: u32,
            pub pad: u32,
            pub ts: u64,
        }

        pub const PROT_READ: c_int = 0x1;
        pub const PROT_WRITE: c_int = 0x2;
        pub const MAP_SHARED: c_int = 0x01;
        pub const MAP_POPULATE: c_int = 0x8000;

        extern "C" {
            pub fn syscall(num: c_long, ...) -> c_long;
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: i64,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
            pub fn close(fd: c_int) -> c_int;
        }
    }
}

/// Clamps a wait timeout to poll/epoll's millisecond argument.
fn timeout_ms(timeout: Duration) -> sys::c_int {
    timeout.as_millis().clamp(0, sys::c_int::MAX as u128) as sys::c_int
}

/// Blocks in `poll(2)` until `fd` is readable (for a listener: has a
/// connection to accept) or in error, for at most `timeout` — `None`
/// waits indefinitely. Returns `Ok` as well when the timeout passes or
/// a signal interrupts the wait: the caller retries its non-blocking
/// call and keeps its own deadline. For the one-fd waits that sit
/// outside the reactor (the TCP acceptor); the timeout is rounded *up*
/// to poll's milliseconds so a caller looping to a deadline never spins.
pub(crate) fn wait_readable(fd: RawFd, timeout: Option<Duration>) -> io::Result<()> {
    let ms = match timeout {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1000).min(sys::c_int::MAX as u128) as sys::c_int,
    };
    let mut pfd = sys::pollfd {
        fd,
        events: sys::POLLIN,
        revents: 0,
    };
    // SAFETY: `pfd` is one valid, exclusively borrowed `pollfd` and
    // `nfds` is 1, so the kernel reads and writes only that struct.
    if unsafe { sys::poll(&mut pfd, 1, ms) } < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// The portable `poll(2)` backend. The `pollfd` array is maintained
/// *incrementally*: `add`/`modify`/`delete` edit it in place (an
/// fd-indexed side table maps each fd to its array position), so the
/// bookkeeping per wait is O(changes since the last wait) — the old
/// rebuild-from-a-HashMap-every-round cost is gone. The kernel scan
/// itself remains O(watched fds): that is inherent to `poll(2)` and is
/// exactly the cost the epoll backend exists to avoid. Both tables
/// shrink back after churn (see `maybe_shrink`): when the watch count
/// falls to a quarter of a table's size, capacity is released, so a
/// connection spike does not pin peak-fd-sized vectors for the rest of
/// the server's life.
///
/// One-shot emulation: a fired entry's fd is negated in place
/// (`poll(2)` ignores negative fds, clearing their `revents`), which
/// masks even unmaskable `POLLERR`/`POLLHUP` until `modify` re-arms it
/// by restoring the fd — observationally identical to a fired
/// `EPOLLONESHOT` watch.
pub struct PollPoller {
    pollfds: Vec<sys::pollfd>,
    /// fd → index into `pollfds` (`usize::MAX` = not registered),
    /// indexed by raw fd. Raw fds are small kernel-allocated integers,
    /// so this is a dense table, not a map.
    index_of: Vec<usize>,
    /// 1 + the highest registered fd (0 when nothing is registered):
    /// the live tail of `index_of`, maintained incrementally — bumped
    /// on `add`, recomputed (one backward scan) only when the highest
    /// fd itself is deleted — so the shrink check in `maybe_shrink`
    /// never scans on an ordinary delete.
    tail: usize,
}

/// Masks a fired entry: negative fds are ignored by `poll(2)`.
fn masked(fd: RawFd) -> RawFd {
    debug_assert!(fd >= 0);
    -fd - 1
}

/// Recovers the registered fd from a possibly-masked `pollfd.fd`.
fn unmasked(fd: RawFd) -> RawFd {
    if fd < 0 {
        -(fd + 1)
    } else {
        fd
    }
}

fn interest_bits(interest: Interest) -> sys::c_short {
    let mut bits: sys::c_short = 0;
    if interest.read {
        bits |= sys::POLLIN;
    }
    if interest.write {
        bits |= sys::POLLOUT;
    }
    bits
}

impl PollPoller {
    pub fn new() -> Self {
        PollPoller {
            pollfds: Vec::new(),
            index_of: Vec::new(),
            tail: 0,
        }
    }

    fn index(&self, fd: RawFd) -> Option<usize> {
        match self.index_of.get(fd as usize) {
            Some(&i) if i != usize::MAX => Some(i),
            _ => None,
        }
    }

    /// Memory footprint observability for the churn-shrink tests and
    /// debugging: `(pollfd array capacity, fd-index table length)`.
    /// Not part of the [`Poller`] contract.
    pub fn footprint(&self) -> (usize, usize) {
        (self.pollfds.capacity(), self.index_of.len())
    }

    /// Gives memory back after churn, so a long-lived server that once
    /// peaked at N connections (or at a high fd number) does not hold
    /// peak-sized tables forever. Called from `delete`; every check is
    /// a cheap comparison (the live tail is maintained incrementally,
    /// see [`PollPoller::tail`]), so deletes stay O(1) outside the rare
    /// highest-fd recompute.
    fn maybe_shrink(&mut self) {
        const FLOOR: usize = 64;
        if self.pollfds.capacity() > FLOOR && self.pollfds.len() * 4 <= self.pollfds.capacity() {
            self.pollfds
                .shrink_to(self.pollfds.len().max(FLOOR / 2) * 2);
        }
        // The table is dense by raw fd: everything past the highest
        // registered fd (`tail`) is reclaimable.
        if self.index_of.len() > FLOOR && self.tail * 2 <= self.index_of.len() {
            self.index_of.truncate(self.tail);
            self.index_of.shrink_to(self.tail.max(FLOOR / 2) * 2);
        }
    }
}

impl Default for PollPoller {
    fn default() -> Self {
        Self::new()
    }
}

impl Poller for PollPoller {
    fn name(&self) -> &'static str {
        "poll"
    }

    fn add(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        if fd < 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "negative fd"));
        }
        let bits = interest_bits(interest);
        match self.index(fd) {
            Some(i) => {
                // Upsert: replace interest and clear the fired mask.
                self.pollfds[i] = sys::pollfd {
                    fd,
                    events: bits,
                    revents: 0,
                };
            }
            None => {
                let i = self.pollfds.len();
                self.pollfds.push(sys::pollfd {
                    fd,
                    events: bits,
                    revents: 0,
                });
                let idx = fd as usize;
                if self.index_of.len() <= idx {
                    self.index_of.resize(idx + 1, usize::MAX);
                }
                self.index_of[idx] = i;
                self.tail = self.tail.max(idx + 1);
            }
        }
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        self.add(fd, interest)
    }

    fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        if fd < 0 {
            return Ok(());
        }
        let Some(i) = self.index(fd) else {
            return Ok(()); // not registered: not an error (trait contract)
        };
        self.index_of[fd as usize] = usize::MAX;
        self.pollfds.swap_remove(i);
        // The former last entry moved into slot `i`: fix its index (it
        // may be fired, i.e. masked — map back to the registered fd).
        if let Some(moved) = self.pollfds.get(i) {
            self.index_of[unmasked(moved.fd) as usize] = i;
        }
        // Deleting the highest registered fd moves the live tail down:
        // recompute it with one backward scan (amortized — each scanned
        // slot was paid for by the add that grew past it).
        if fd as usize + 1 == self.tail {
            self.tail = self.index_of[..self.tail]
                .iter()
                .rposition(|&i| i != usize::MAX)
                .map_or(0, |p| p + 1);
        }
        self.maybe_shrink();
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<PollerEvent>, timeout: Duration) -> io::Result<()> {
        events.clear();
        let n = unsafe {
            sys::poll(
                self.pollfds.as_mut_ptr(),
                self.pollfds.len() as sys::nfds_t,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        const ERRS: sys::c_short = sys::POLLERR | sys::POLLHUP | sys::POLLNVAL;
        let mut remaining = n as usize;
        for pfd in &mut self.pollfds {
            if remaining == 0 {
                break;
            }
            if pfd.fd < 0 || pfd.revents == 0 {
                continue;
            }
            remaining -= 1;
            let readable = pfd.revents & (sys::POLLIN | ERRS) != 0;
            let writable = pfd.revents & (sys::POLLOUT | ERRS) != 0;
            let fd = pfd.fd;
            // One-shot: mask the entry in place until the re-arm.
            pfd.fd = masked(fd);
            pfd.revents = 0;
            events.push(PollerEvent {
                fd,
                readable,
                writable,
            });
        }
        Ok(())
    }
}

/// The Linux `epoll(7)` backend: raw FFI, no `libc` crate. Interest is
/// held by the kernel; every registration carries `EPOLLONESHOT`, so a
/// fired watch stays disarmed until [`Poller::modify`] re-arms it and a
/// wakeup costs O(ready fds) regardless of how many are watched.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<sys::epoll::epoll_event>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    pub fn new() -> io::Result<Self> {
        let epfd = unsafe { sys::epoll::epoll_create1(sys::epoll::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller {
            epfd,
            buf: vec![sys::epoll::epoll_event { events: 0, data: 0 }; 256],
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut events = sys::epoll::EPOLLONESHOT;
        if interest.read {
            events |= sys::epoll::EPOLLIN;
        }
        if interest.write {
            events |= sys::epoll::EPOLLOUT;
        }
        events
    }

    fn ctl(&self, op: sys::c_int, fd: RawFd, interest: Interest) -> io::Result<()> {
        let mut ev = sys::epoll::epoll_event {
            events: Self::mask(interest),
            data: fd as u64,
        };
        let rc = unsafe { sys::epoll::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        unsafe {
            sys::epoll::close(self.epfd);
        }
    }
}

#[cfg(target_os = "linux")]
impl Poller for EpollPoller {
    fn name(&self) -> &'static str {
        "epoll"
    }

    fn add(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        match self.ctl(sys::epoll::EPOLL_CTL_ADD, fd, interest) {
            Ok(()) => Ok(()),
            // Already registered (a reused fd raced ahead of its
            // delete): replace the interest instead.
            Err(e) if e.raw_os_error() == Some(17 /* EEXIST */) => {
                self.ctl(sys::epoll::EPOLL_CTL_MOD, fd, interest)
            }
            Err(e) => Err(e),
        }
    }

    fn modify(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        match self.ctl(sys::epoll::EPOLL_CTL_MOD, fd, interest) {
            Ok(()) => Ok(()),
            // The kernel dropped the registration when the fd closed
            // (or it was never added): register fresh.
            Err(e) if e.raw_os_error() == Some(2 /* ENOENT */) => self.add(fd, interest),
            Err(e) => Err(e),
        }
    }

    fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        let rc = unsafe {
            sys::epoll::epoll_ctl(
                self.epfd,
                sys::epoll::EPOLL_CTL_DEL,
                fd,
                std::ptr::null_mut(),
            )
        };
        // ENOENT/EBADF: the kernel already dropped it with the fd.
        if rc < 0 {
            let e = io::Error::last_os_error();
            if !matches!(e.raw_os_error(), Some(2) | Some(9)) {
                return Err(e);
            }
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<PollerEvent>, timeout: Duration) -> io::Result<()> {
        events.clear();
        let n = unsafe {
            sys::epoll::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as sys::c_int,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        for ev in &self.buf[..n as usize] {
            let bits = ev.events;
            const ERRS: u32 = sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP;
            events.push(PollerEvent {
                fd: ev.data as RawFd,
                readable: bits & (sys::epoll::EPOLLIN | ERRS) != 0,
                writable: bits & (sys::epoll::EPOLLOUT | ERRS) != 0,
            });
        }
        // A full buffer means more events may be pending: grow so a
        // burst cannot starve high-numbered fds across rounds.
        if n as usize == self.buf.len() {
            self.buf.resize(
                self.buf.len() * 2,
                sys::epoll::epoll_event { events: 0, data: 0 },
            );
        }
        Ok(())
    }
}

/// One mmap'd ring region, unmapped on drop.
#[cfg(target_os = "linux")]
struct RingMmap {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

#[cfg(target_os = "linux")]
impl RingMmap {
    fn map(ring_fd: RawFd, len: usize, offset: i64) -> io::Result<RingMmap> {
        let ptr = unsafe {
            sys::uring::mmap(
                std::ptr::null_mut(),
                len,
                sys::uring::PROT_READ | sys::uring::PROT_WRITE,
                sys::uring::MAP_SHARED | sys::uring::MAP_POPULATE,
                ring_fd,
                offset,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(RingMmap { ptr, len })
    }

    /// A typed pointer `off` bytes into the mapping.
    fn at<T>(&self, off: u32) -> *mut T {
        unsafe { (self.ptr as *mut u8).add(off as usize) as *mut T }
    }
}

#[cfg(target_os = "linux")]
impl Drop for RingMmap {
    fn drop(&mut self) {
        unsafe {
            sys::uring::munmap(self.ptr, self.len);
        }
    }
}

/// Per-fd backend state for [`UringPoller`]: whether the fd is
/// registered at all, which poll op (if any) is armed in the kernel,
/// and the interest it was armed with (kept for the defensive re-arm on
/// a spurious zero-mask completion).
#[cfg(target_os = "linux")]
#[derive(Clone, Copy, Default)]
struct UringFdState {
    registered: bool,
    /// Non-zero while an `IORING_OP_POLL_ADD` is in flight for this fd:
    /// the op id baked into its `user_data`. A completion whose id does
    /// not match is stale (superseded or cancelled) and is discarded —
    /// the same role the reactor's generation cells play one layer up.
    armed_id: u32,
    interest: Interest,
}

/// `user_data` tag for the per-wait `IORING_OP_TIMEOUT` entry (the
/// pre-`EXT_ARG` kernel path); its completions carry no readiness.
#[cfg(target_os = "linux")]
const URING_TIMEOUT_KEY: u64 = u64::MAX;
/// `user_data` tag for `IORING_OP_POLL_REMOVE` entries: cancellation
/// results (`0` / `-ENOENT` / `-EALREADY`) are uninteresting — the
/// cancelled op's own CQE is already discarded by its stale id.
#[cfg(target_os = "linux")]
const URING_REMOVE_KEY: u64 = u64::MAX - 1;

/// The Linux `io_uring` backend in **readiness mode**: raw FFI
/// (`io_uring_setup` + `io_uring_enter`, mmap'd SQ/CQ rings, no
/// external crates), no completion-mode I/O yet — every arm is an
/// `IORING_OP_POLL_ADD` in its default **oneshot** mode, which is
/// exactly the [`Poller`] trait's one-shot contract, so the reactor
/// and the conformance suite run unchanged on top.
///
/// **The batching invariant.** `add`/`modify`/`delete` perform *no
/// syscall*: they append pre-built SQEs to a local pending batch (a
/// `modify` of an armed fd appends `POLL_REMOVE` + `POLL_ADD`, keyed so
/// the superseded op's completion is discarded). [`Poller::wait`]
/// flushes the whole batch into the shared SQ ring and collects
/// completions with **one** `io_uring_enter(to_submit, 1,
/// GETEVENTS)` — so a round that re-arms K connections costs one
/// syscall where epoll pays K `epoll_ctl`s plus an `epoll_wait`. (The
/// ring only forces extra `enter`s when a round carries more SQEs than
/// the 256-entry SQ, i.e. >85 interest changes in one round.)
///
/// **Wait timeouts.** On kernels with `IORING_FEAT_EXT_ARG` (5.11+)
/// the timeout travels in the `enter` call itself; older kernels get a
/// per-wait `IORING_OP_TIMEOUT` SQE whose completion count of 1 makes
/// it fire with (or instead of) the first readiness completion — its
/// CQE is discarded by key either way.
///
/// **Lifetime of an armed op.** A `POLL_ADD` holds a kernel reference
/// on the *file*, so closing the fd neither completes nor leaks it:
/// the reactor's `delete` (queued before any close can race ahead)
/// submits the `POLL_REMOVE` that releases it, and ring teardown on
/// drop releases anything still in flight.
#[cfg(target_os = "linux")]
pub struct UringPoller {
    ring_fd: RawFd,
    // Held only to keep the mappings alive for the raw pointers below;
    // unmapped on drop.
    _sq_ring: RingMmap,
    _cq_ring: RingMmap,
    _sqe_mem: RingMmap,
    /// SQ consumer head (kernel writes, we read with Acquire).
    sq_khead: *const std::sync::atomic::AtomicU32,
    /// SQ producer tail (we write with Release).
    sq_ktail: *const std::sync::atomic::AtomicU32,
    sq_mask: u32,
    sq_entries: u32,
    /// SQ index array: `array[tail & mask]` names the SQE slot.
    sq_array: *mut u32,
    sqes: *mut sys::uring::io_uring_sqe,
    /// CQ consumer head (we write with Release).
    cq_khead: *const std::sync::atomic::AtomicU32,
    /// CQ producer tail (kernel writes, we read with Acquire).
    cq_ktail: *const std::sync::atomic::AtomicU32,
    cq_mask: u32,
    cqes: *const sys::uring::io_uring_cqe,
    /// Local mirror of the SQ tail (single-threaded producer).
    tail: u32,
    ext_arg: bool,
    states: Vec<UringFdState>,
    /// SQEs built by `add`/`modify`/`delete`, flushed by `wait`.
    pending: Vec<sys::uring::io_uring_sqe>,
    next_id: u32,
    /// Timespec for the in-flight wait timeout; field-held so the
    /// pointer baked into an `IORING_OP_TIMEOUT` SQE (read by the
    /// kernel at submission) can never dangle.
    ts: sys::uring::kernel_timespec,
}

// SAFETY: the raw pointers all target the three mmap'd regions owned
// (and kept alive) by the struct itself; the trait contract drives the
// poller from a single thread at a time, which is all `Send` promises.
#[cfg(target_os = "linux")]
unsafe impl Send for UringPoller {}

#[cfg(target_os = "linux")]
impl UringPoller {
    /// SQ depth: bounds how many arm/disarm SQEs one `enter` can carry,
    /// not how many fds can be watched (armed polls live in the kernel,
    /// off the ring).
    const SQ_ENTRIES: u32 = 256;
    /// CQ depth (requested via `IORING_SETUP_CQSIZE`): sized well past
    /// the SQ so a burst of thousands of simultaneous completions rides
    /// the ring instead of the kernel's overflow list.
    const CQ_ENTRIES: u32 = 4096;

    /// Sets up the ring, or reports why this host cannot
    /// (`ENOSYS` pre-5.1 kernels, `EPERM` under seccomp policies that
    /// deny io_uring, `ENOMEM`/`EPERM` under tight memlock limits —
    /// this is the capability probe `create_poller` and
    /// [`uring_available`] rely on). `FLUX_URING_DISABLE=1` forces the
    /// probe to fail, which is how the fallback path is tested on hosts
    /// where the real setup would succeed.
    pub fn new() -> io::Result<Self> {
        if std::env::var("FLUX_URING_DISABLE").as_deref() == Ok("1") {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "io_uring disabled via FLUX_URING_DISABLE",
            ));
        }
        let mut params = sys::uring::io_uring_params {
            flags: sys::uring::IORING_SETUP_CQSIZE,
            cq_entries: Self::CQ_ENTRIES,
            ..Default::default()
        };
        let mut ring_fd = unsafe {
            sys::uring::syscall(
                sys::uring::SYS_IO_URING_SETUP,
                Self::SQ_ENTRIES,
                &mut params as *mut sys::uring::io_uring_params,
            )
        } as RawFd;
        if ring_fd < 0 && io::Error::last_os_error().raw_os_error() == Some(22 /* EINVAL */) {
            // Pre-5.5 kernel without IORING_SETUP_CQSIZE: take the
            // default CQ (2x SQ) rather than refusing the backend.
            params = Default::default();
            ring_fd = unsafe {
                sys::uring::syscall(
                    sys::uring::SYS_IO_URING_SETUP,
                    Self::SQ_ENTRIES,
                    &mut params as *mut sys::uring::io_uring_params,
                )
            } as RawFd;
        }
        if ring_fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // From here on the fd must not leak on an early error.
        let close_on_err = |e: io::Error| {
            unsafe { sys::uring::close(ring_fd) };
            e
        };
        let sq_len = params.sq_off.array as usize + params.sq_entries as usize * 4;
        let cq_len = params.cq_off.cqes as usize
            + params.cq_entries as usize * std::mem::size_of::<sys::uring::io_uring_cqe>();
        // Two independent ring mmaps (the legacy layout): valid on
        // every kernel, with or without IORING_FEAT_SINGLE_MMAP.
        let sq_ring =
            RingMmap::map(ring_fd, sq_len, sys::uring::IORING_OFF_SQ_RING).map_err(close_on_err)?;
        let cq_ring =
            RingMmap::map(ring_fd, cq_len, sys::uring::IORING_OFF_CQ_RING).map_err(close_on_err)?;
        let sqe_mem = RingMmap::map(
            ring_fd,
            params.sq_entries as usize * std::mem::size_of::<sys::uring::io_uring_sqe>(),
            sys::uring::IORING_OFF_SQES,
        )
        .map_err(close_on_err)?;
        let poller = UringPoller {
            sq_khead: sq_ring.at(params.sq_off.head),
            sq_ktail: sq_ring.at(params.sq_off.tail),
            sq_mask: unsafe { *sq_ring.at::<u32>(params.sq_off.ring_mask) },
            sq_entries: params.sq_entries,
            sq_array: sq_ring.at(params.sq_off.array),
            sqes: sqe_mem.at(0),
            cq_khead: cq_ring.at(params.cq_off.head),
            cq_ktail: cq_ring.at(params.cq_off.tail),
            cq_mask: unsafe { *cq_ring.at::<u32>(params.cq_off.ring_mask) },
            cqes: cq_ring.at(params.cq_off.cqes),
            ring_fd,
            _sq_ring: sq_ring,
            _cq_ring: cq_ring,
            _sqe_mem: sqe_mem,
            tail: 0,
            ext_arg: params.features & sys::uring::IORING_FEAT_EXT_ARG != 0,
            states: Vec::new(),
            pending: Vec::new(),
            next_id: 1,
            ts: Default::default(),
        };
        Ok(poller)
    }

    fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        // 0 is the "not armed" sentinel; ids wrap far past any op that
        // could still be in flight.
        self.next_id = self.next_id.checked_add(1).unwrap_or(1);
        id
    }

    /// `user_data` for a poll op: fd in the low half, op id in the high
    /// half, so a completion both routes to its fd and proves it is the
    /// *current* arm of that fd.
    fn key(fd: RawFd, id: u32) -> u64 {
        ((id as u64) << 32) | fd as u32 as u64
    }

    fn poll_mask(interest: Interest) -> u32 {
        let mut mask = 0u32;
        if interest.read {
            mask |= sys::POLLIN as u32;
        }
        if interest.write {
            mask |= sys::POLLOUT as u32;
        }
        mask
    }

    /// The one syscall. `arg` carries the EXT_ARG timeout when used.
    fn enter(
        &self,
        to_submit: u32,
        min_complete: u32,
        flags: u32,
        arg: *const sys::uring::getevents_arg,
        argsz: usize,
    ) -> io::Result<u32> {
        let rc = unsafe {
            sys::uring::syscall(
                sys::uring::SYS_IO_URING_ENTER,
                self.ring_fd,
                to_submit,
                min_complete,
                flags,
                arg,
                argsz,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as u32)
    }

    /// SQEs placed in the ring but not yet consumed by the kernel.
    fn unsubmitted(&self) -> u32 {
        let khead = unsafe { &*self.sq_khead }.load(std::sync::atomic::Ordering::Acquire);
        self.tail.wrapping_sub(khead)
    }

    /// Places one SQE in the shared ring, submitting the backlog first
    /// if the ring is full (only possible when one wait round carries
    /// more than `SQ_ENTRIES` interest changes).
    fn place(&mut self, sqe: sys::uring::io_uring_sqe) -> io::Result<()> {
        while self.unsubmitted() == self.sq_entries {
            self.enter(self.sq_entries, 0, 0, std::ptr::null(), 0)?;
        }
        let idx = self.tail & self.sq_mask;
        unsafe {
            *self.sqes.add(idx as usize) = sqe;
            *self.sq_array.add(idx as usize) = idx;
        }
        self.tail = self.tail.wrapping_add(1);
        unsafe { &*self.sq_ktail }.store(self.tail, std::sync::atomic::Ordering::Release);
        Ok(())
    }

    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let ops = std::mem::take(&mut self.pending);
        for sqe in &ops {
            self.place(*sqe)?;
        }
        // Hand the (now empty) buffer's capacity back for the next
        // round of control ops.
        self.pending = ops;
        self.pending.clear();
        Ok(())
    }

    /// Appends the SQEs that move `fd` to `interest`: a `POLL_REMOVE`
    /// for any in-flight arm (its completion, fired or cancelled, is
    /// discarded by the id bump), then a fresh oneshot `POLL_ADD` when
    /// any interest remains. Shared by `add` and `modify` — like epoll's
    /// upsert, the distinction carries no information the state table
    /// doesn't already hold.
    fn rearm(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        if fd < 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "negative fd"));
        }
        let idx = fd as usize;
        if self.states.len() <= idx {
            self.states.resize(idx + 1, UringFdState::default());
        }
        if self.states[idx].armed_id != 0 {
            self.pending.push(sys::uring::io_uring_sqe {
                opcode: sys::uring::IORING_OP_POLL_REMOVE,
                fd: -1,
                addr: Self::key(fd, self.states[idx].armed_id),
                user_data: URING_REMOVE_KEY,
                ..Default::default()
            });
            self.states[idx].armed_id = 0;
        }
        if interest.read || interest.write {
            let id = self.alloc_id();
            self.pending.push(sys::uring::io_uring_sqe {
                opcode: sys::uring::IORING_OP_POLL_ADD,
                fd,
                op_flags: Self::poll_mask(interest),
                user_data: Self::key(fd, id),
                ..Default::default()
            });
            self.states[idx].armed_id = id;
        }
        self.states[idx].registered = true;
        self.states[idx].interest = interest;
        Ok(())
    }

    /// Drains every published CQE, translating matching poll
    /// completions into [`PollerEvent`]s.
    fn drain_cq(&mut self, events: &mut Vec<PollerEvent>) {
        use std::sync::atomic::Ordering;
        let tail = unsafe { &*self.cq_ktail }.load(Ordering::Acquire);
        let mut head = unsafe { &*self.cq_khead }.load(Ordering::Relaxed);
        if head == tail {
            return;
        }
        while head != tail {
            let cqe = unsafe { *self.cqes.add((head & self.cq_mask) as usize) };
            head = head.wrapping_add(1);
            if cqe.user_data == URING_TIMEOUT_KEY || cqe.user_data == URING_REMOVE_KEY {
                continue;
            }
            let fd = cqe.user_data as u32 as RawFd;
            let id = (cqe.user_data >> 32) as u32;
            let Some(state) = self.states.get_mut(fd as usize) else {
                continue;
            };
            if !state.registered || state.armed_id != id {
                continue; // stale: superseded, cancelled, or fd deleted
            }
            // The oneshot consumed itself: disarmed until `modify`.
            state.armed_id = 0;
            const ERRS: u32 =
                (sys::POLLERR as u32) | (sys::POLLHUP as u32) | (sys::POLLNVAL as u32);
            let (readable, writable) = if cqe.res >= 0 {
                let bits = cqe.res as u32;
                (
                    bits & (sys::POLLIN as u32 | ERRS) != 0,
                    bits & (sys::POLLOUT as u32 | ERRS) != 0,
                )
            } else {
                // The arm itself failed (e.g. the fd closed under a
                // still-queued SQE): fold into both flags, like ERR/HUP,
                // so read and write paths both observe the error.
                (true, true)
            };
            if readable || writable {
                events.push(PollerEvent {
                    fd,
                    readable,
                    writable,
                });
            } else {
                // Defensive: a zero-mask completion would otherwise
                // strand the watch (the caller never saw an event, so
                // it will never re-arm). Re-arm with the recorded
                // interest instead.
                let interest = state.interest;
                let _ = self.rearm(fd, interest);
            }
        }
        unsafe { &*self.cq_khead }.store(head, Ordering::Release);
    }
}

#[cfg(target_os = "linux")]
impl Drop for UringPoller {
    fn drop(&mut self) {
        // Tearing the ring down cancels and releases every in-flight
        // poll op (and the file references they hold).
        unsafe {
            sys::uring::close(self.ring_fd);
        }
    }
}

#[cfg(target_os = "linux")]
impl Poller for UringPoller {
    fn name(&self) -> &'static str {
        "uring"
    }

    fn add(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        self.rearm(fd, interest)
    }

    fn modify(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        self.rearm(fd, interest)
    }

    fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        if fd < 0 {
            return Ok(());
        }
        let Some(state) = self.states.get_mut(fd as usize) else {
            return Ok(());
        };
        if state.armed_id != 0 {
            let key = Self::key(fd, state.armed_id);
            self.pending.push(sys::uring::io_uring_sqe {
                opcode: sys::uring::IORING_OP_POLL_REMOVE,
                fd: -1,
                addr: key,
                user_data: URING_REMOVE_KEY,
                ..Default::default()
            });
        }
        self.states[fd as usize] = UringFdState::default();
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<PollerEvent>, timeout: Duration) -> io::Result<()> {
        events.clear();
        // Batch-flush every control change since the last round into
        // the SQ; in the common case nothing is entered here and the
        // single enter below both submits and waits.
        self.flush_pending()?;
        let mut flags = sys::uring::IORING_ENTER_GETEVENTS;
        let mut min_complete = 0u32;
        let mut arg = sys::uring::getevents_arg::default();
        let mut arg_ptr: *const sys::uring::getevents_arg = std::ptr::null();
        let mut argsz = 0usize;
        if !timeout.is_zero() {
            min_complete = 1;
            self.ts = sys::uring::kernel_timespec {
                tv_sec: timeout.as_secs() as i64,
                tv_nsec: timeout.subsec_nanos() as i64,
            };
            if self.ext_arg {
                arg.ts = &self.ts as *const sys::uring::kernel_timespec as u64;
                arg_ptr = &arg;
                argsz = std::mem::size_of::<sys::uring::getevents_arg>();
                flags |= sys::uring::IORING_ENTER_EXT_ARG;
            } else {
                // Pre-5.11 kernel: a TIMEOUT op with completion count 1
                // bounds the wait. It posts exactly one (discarded) CQE
                // — with the round's first completion, or with -ETIME.
                self.place(sys::uring::io_uring_sqe {
                    opcode: sys::uring::IORING_OP_TIMEOUT,
                    fd: -1,
                    off: 1,
                    addr: &self.ts as *const sys::uring::kernel_timespec as u64,
                    len: 1,
                    user_data: URING_TIMEOUT_KEY,
                    ..Default::default()
                })?;
            }
        }
        // One io_uring_enter for the whole round: submits every batched
        // arm/disarm AND waits for readiness. A CQ already holding
        // completions returns immediately (min_complete is satisfied).
        match self.enter(self.unsubmitted(), min_complete, flags, arg_ptr, argsz) {
            Ok(_) => {}
            Err(e) => match e.raw_os_error() {
                // ETIME: the wait timed out (EXT_ARG path). EINTR: a
                // signal; the caller re-waits. EBUSY: CQ overflow
                // backlog — drain below, the kernel flushes the
                // overflow list on the next GETEVENTS enter.
                Some(62 /* ETIME */) | Some(4 /* EINTR */) | Some(16 /* EBUSY */) => {}
                _ => return Err(e),
            },
        }
        self.drain_cq(events);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Box<dyn Poller>> {
        let mut v: Vec<Box<dyn Poller>> = vec![Box::new(PollPoller::new())];
        #[cfg(target_os = "linux")]
        {
            v.push(Box::new(EpollPoller::new().expect("epoll_create1")));
            match UringPoller::new() {
                Ok(p) => v.push(Box::new(p)),
                Err(e) => eprintln!("skipping uring backend (unavailable on this host): {e}"),
            }
        }
        v
    }

    /// Both backends: readable fires once (one-shot), stays quiet until
    /// re-armed, and delete drops the watch.
    #[test]
    fn oneshot_contract_holds_on_every_backend() {
        for mut p in backends() {
            let (rx, mut tx) = std::io::pipe().unwrap();
            let fd = rx.as_raw_fd();
            p.add(fd, Interest::READ).unwrap();
            let mut events = Vec::new();

            p.wait(&mut events, Duration::from_millis(10)).unwrap();
            assert!(events.is_empty(), "{}: nothing readable yet", p.name());

            tx.write_all(b"x").unwrap();
            p.wait(&mut events, Duration::from_secs(2)).unwrap();
            assert_eq!(events.len(), 1, "{}", p.name());
            assert_eq!(events[0].fd, fd);
            assert!(events[0].readable);

            // One-shot: without a re-arm the level-triggered condition
            // must not be re-reported.
            p.wait(&mut events, Duration::from_millis(20)).unwrap();
            assert!(
                events.is_empty(),
                "{}: fired watch must stay quiet",
                p.name()
            );

            // Re-arm: the still-unread byte fires again.
            p.modify(fd, Interest::READ).unwrap();
            p.wait(&mut events, Duration::from_secs(2)).unwrap();
            assert_eq!(events.len(), 1, "{}: re-arm re-delivers", p.name());

            p.delete(fd).unwrap();
            p.modify(events[0].fd, Interest::none()).ok();
            p.delete(fd).unwrap(); // idempotent
        }
    }

    /// A fired (disarmed) entry stays quiet even when the peer hangs
    /// up. `POLLERR`/`POLLHUP` cannot be masked on a polled fd, so
    /// [`PollPoller`] drops fired fds from its set entirely — matching
    /// `EPOLLONESHOT`, which disables the whole watch (hangups
    /// included) until the re-arm.
    #[test]
    fn fired_entry_masks_hangup_until_rearm() {
        for mut p in backends() {
            let (rx, mut tx) = std::io::pipe().unwrap();
            let fd = rx.as_raw_fd();
            p.add(fd, Interest::READ).unwrap();
            let mut events = Vec::new();
            tx.write_all(b"x").unwrap();
            p.wait(&mut events, Duration::from_secs(2)).unwrap();
            assert_eq!(events.len(), 1, "{}", p.name());

            drop(tx); // hangup while the watch is fired/disarmed
            p.wait(&mut events, Duration::from_millis(20)).unwrap();
            assert!(
                events.is_empty(),
                "{}: fired watch re-reported the hangup",
                p.name()
            );

            p.modify(fd, Interest::READ).unwrap();
            p.wait(&mut events, Duration::from_secs(2)).unwrap();
            assert_eq!(events.len(), 1, "{}: re-arm delivers the hangup", p.name());
            assert!(events[0].readable, "{}", p.name());
            p.delete(fd).unwrap();
        }
    }

    /// Write interest: a pipe with buffer space reports writable.
    #[test]
    fn write_interest_fires_when_writable() {
        for mut p in backends() {
            let (_rx, tx) = std::io::pipe().unwrap();
            let fd = tx.as_raw_fd();
            p.add(fd, Interest::WRITE).unwrap();
            let mut events = Vec::new();
            p.wait(&mut events, Duration::from_secs(2)).unwrap();
            assert_eq!(events.len(), 1, "{}", p.name());
            assert!(events[0].writable, "{}", p.name());
            p.delete(fd).unwrap();
        }
    }

    /// Interest::none keeps the fd registered without read/write
    /// delivery (the Busy-park state).
    #[test]
    fn empty_interest_delivers_nothing() {
        for mut p in backends() {
            let (rx, mut tx) = std::io::pipe().unwrap();
            let fd = rx.as_raw_fd();
            p.add(fd, Interest::none()).unwrap();
            tx.write_all(b"x").unwrap();
            let mut events = Vec::new();
            p.wait(&mut events, Duration::from_millis(20)).unwrap();
            assert!(events.is_empty(), "{}: parked fd delivered", p.name());
            // Re-arm with read interest: delivery resumes.
            p.modify(fd, Interest::READ).unwrap();
            p.wait(&mut events, Duration::from_secs(2)).unwrap();
            assert_eq!(events.len(), 1, "{}", p.name());
            p.delete(fd).unwrap();
        }
    }

    /// Churning add/delete keeps the incrementally-maintained pollfd
    /// array consistent: after a swap_remove the moved entry (fired or
    /// not) must still deliver for the right fd.
    #[test]
    fn poll_survives_add_delete_churn() {
        let mut p = PollPoller::new();
        let pipes: Vec<_> = (0..4).map(|_| std::io::pipe().unwrap()).collect();
        for (rx, _tx) in &pipes {
            p.add(rx.as_raw_fd(), Interest::READ).unwrap();
        }
        let mut events = Vec::new();
        // Fire the last entry so it is masked, then delete the first:
        // the masked entry is swap-moved into slot 0 and must keep a
        // correct index mapping.
        pipes[3].1.try_clone().unwrap().write_all(b"x").unwrap();
        p.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].fd, pipes[3].0.as_raw_fd());
        p.delete(pipes[0].0.as_raw_fd()).unwrap();

        // Re-arm the moved (masked) entry and fire it again.
        p.modify(pipes[3].0.as_raw_fd(), Interest::READ).unwrap();
        p.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events.len(), 1, "re-armed moved entry fires");
        assert_eq!(events[0].fd, pipes[3].0.as_raw_fd());

        // A surviving middle entry still delivers for its own fd.
        pipes[2].1.try_clone().unwrap().write_all(b"y").unwrap();
        p.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].fd, pipes[2].0.as_raw_fd());

        // Deleting everything (including already-deleted fds) is clean.
        for (rx, _tx) in &pipes {
            p.delete(rx.as_raw_fd()).unwrap();
        }
        p.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());
    }

    /// After a connection spike drains, both of PollPoller's tables
    /// give their memory back instead of staying peak-sized, and the
    /// surviving watch still delivers.
    #[test]
    fn poll_shrinks_tables_after_churn() {
        let mut p = PollPoller::new();
        let keeper = std::io::pipe().unwrap();
        p.add(keeper.0.as_raw_fd(), Interest::READ).unwrap();

        // Spike: hold 128 pipes (256 fds) watched at once, so both the
        // pollfd array and the fd-indexed side table grow well past the
        // shrink floor.
        let spike: Vec<_> = (0..128).map(|_| std::io::pipe().unwrap()).collect();
        for (rx, _tx) in &spike {
            p.add(rx.as_raw_fd(), Interest::READ).unwrap();
        }
        let (peak_cap, peak_index) = p.footprint();
        assert!(peak_cap >= 129, "pollfds grew to the spike ({peak_cap})");
        assert!(
            peak_index > 128,
            "fd table grew to the peak fd ({peak_index})"
        );

        // Churn out: the spike's connections close.
        for (rx, _tx) in &spike {
            p.delete(rx.as_raw_fd()).unwrap();
        }
        drop(spike);
        let (cap, index) = p.footprint();
        assert!(
            cap < peak_cap && cap <= 64,
            "pollfd capacity must shrink after churn ({peak_cap} -> {cap})"
        );
        assert!(
            index < peak_index,
            "fd-index table must drop its unregistered tail ({peak_index} -> {index})"
        );

        // The surviving watch is untouched by the shrink.
        keeper.1.try_clone().unwrap().write_all(b"x").unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].fd, keeper.0.as_raw_fd());
        p.delete(keeper.0.as_raw_fd()).unwrap();
    }

    #[test]
    fn env_override_selects_backend() {
        // Not testing the env var itself (process-global), just the
        // fallback construction paths.
        let p = create_poller(PollerBackend::Poll);
        assert_eq!(p.name(), "poll");
        let p = create_poller(PollerBackend::Epoll);
        if cfg!(target_os = "linux") {
            assert_eq!(p.name(), "epoll");
        } else {
            assert_eq!(p.name(), "poll");
        }
        // Uring resolves to itself where the ring comes up, and must
        // land on a working backend (the epoll link of the fallback
        // chain) everywhere else — never panic, never a dead poller.
        let p = create_poller(PollerBackend::Uring);
        #[cfg(target_os = "linux")]
        if uring_available() {
            assert_eq!(p.name(), "uring");
        } else {
            assert_eq!(p.name(), "epoll");
        }
        #[cfg(not(target_os = "linux"))]
        assert_eq!(p.name(), "poll");
    }

    /// A `modify` while a poll op is armed must supersede it: the old
    /// op's completion (cancelled or already fired) may not surface,
    /// and the new interest must. This exercises the
    /// POLL_REMOVE + POLL_ADD batch and the stale-id discard in the CQ
    /// drain — the uring-specific machinery the shared contract tests
    /// touch only incidentally.
    #[cfg(target_os = "linux")]
    #[test]
    fn uring_modify_supersedes_armed_op() {
        let Ok(mut p) = UringPoller::new() else {
            eprintln!("skipping: io_uring unavailable on this host");
            return;
        };
        let (rx, mut tx) = std::io::pipe().unwrap();
        let fd = rx.as_raw_fd();
        tx.write_all(b"x").unwrap(); // readable from the start

        // Arm for read, then — without waiting — swap to write-only
        // interest. The read op is cancelled while its completion may
        // already be posted; neither form may leak through.
        p.add(fd, Interest::READ).unwrap();
        p.modify(fd, Interest::WRITE).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Duration::from_millis(100)).unwrap();
        assert!(
            events
                .iter()
                .all(|e| e.fd != fd || !e.readable || e.writable),
            "superseded read-only arm leaked a read event: {events:?}"
        );
        // A pipe read end is never writable: nothing should fire even
        // across a second round.
        p.wait(&mut events, Duration::from_millis(50)).unwrap();
        assert!(events.is_empty(), "write interest on pipe read end fired");

        // Swap back to read: the buffered byte fires immediately.
        p.modify(fd, Interest::READ).unwrap();
        p.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].fd, fd);
        assert!(events[0].readable);
        p.delete(fd).unwrap();
    }

    /// `delete` with a readiness completion already posted in the CQ:
    /// the stale CQE must be discarded, and a later re-`add` of the
    /// same fd must not be confused by it (id mismatch, not fd match).
    #[cfg(target_os = "linux")]
    #[test]
    fn uring_delete_discards_posted_completion() {
        let Ok(mut p) = UringPoller::new() else {
            eprintln!("skipping: io_uring unavailable on this host");
            return;
        };
        let (rx, mut tx) = std::io::pipe().unwrap();
        let fd = rx.as_raw_fd();
        p.add(fd, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Flush the arm into the kernel, then make it fire while no
        // wait is in progress: the CQE sits in the ring.
        p.wait(&mut events, Duration::ZERO).unwrap();
        tx.write_all(b"x").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // Deleted before the completion is drained → never delivered.
        p.delete(fd).unwrap();
        p.wait(&mut events, Duration::from_millis(50)).unwrap();
        assert!(events.is_empty(), "deleted fd delivered: {events:?}");
        // Fresh registration on the same fd still works.
        p.add(fd, Interest::READ).unwrap();
        p.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable);
        p.delete(fd).unwrap();
    }

    // The FLUX_URING_DISABLE construction knob is tested in the
    // dedicated `uring_fallback` integration binary: env vars are
    // process-global, so flipping it here would race the parallel
    // tests that probe ring availability.
}
