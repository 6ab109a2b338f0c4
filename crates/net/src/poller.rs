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
//! Backend selection: there is one backend per platform.
//! [`PollerBackend::default()`] is epoll on Linux and poll elsewhere;
//! `NetConfig::backend` can name poll on Linux, which is how the
//! conformance suite runs both. The one fallback — an `epoll_create1`
//! that fails comes up as poll — is resolved at construction, so
//! `Poller::name` (and everything reporting it) reflects what actually
//! runs. A kqueue backend (macOS/BSD) would slot in behind the same
//! four methods.

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
}

impl PollerBackend {
    /// The name this backend reports through [`Poller::name`] when the
    /// request is honoured (no fallback).
    pub fn label(&self) -> &'static str {
        match self {
            PollerBackend::Poll => "poll",
            PollerBackend::Epoll => "epoll",
        }
    }
}

impl Default for PollerBackend {
    /// The platform's backend: epoll on Linux, poll elsewhere.
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            PollerBackend::Epoll
        } else {
            PollerBackend::Poll
        }
    }
}

/// Instantiates the chosen backend. The only substitution is epoll's:
/// `Epoll` comes up as [`PollPoller`] on non-Linux hosts or when
/// `epoll_create1` fails. The returned poller's [`Poller::name`] is
/// therefore always the backend that actually runs.
pub fn create_poller(backend: PollerBackend) -> Box<dyn Poller> {
    match backend {
        PollerBackend::Poll => Box::new(PollPoller::new()),
        #[cfg(target_os = "linux")]
        PollerBackend::Epoll => match EpollPoller::new() {
            Ok(p) => Box::new(p),
            Err(_) => Box::new(PollPoller::new()),
        },
        #[cfg(not(target_os = "linux"))]
        PollerBackend::Epoll => Box::new(PollPoller::new()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Box<dyn Poller>> {
        let mut v: Vec<Box<dyn Poller>> = vec![Box::new(PollPoller::new())];
        #[cfg(target_os = "linux")]
        v.push(Box::new(EpollPoller::new().expect("epoll_create1")));
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

    /// Each request resolves to the backend that runs, and the
    /// platform default is epoll on Linux and poll elsewhere.
    #[test]
    fn create_poller_resolves_each_backend() {
        let native = if cfg!(target_os = "linux") {
            "epoll"
        } else {
            "poll"
        };
        assert_eq!(create_poller(PollerBackend::Poll).name(), "poll");
        assert_eq!(create_poller(PollerBackend::Epoll).name(), native);
        assert_eq!(create_poller(PollerBackend::default()).name(), native);
    }
}
