//! The slice of Linux the load generator needs, declared directly: the
//! offline build has no `libc` crate. `ppoll` for a readiness loop with
//! sub-millisecond timeouts, `sched_{get,set}affinity` to pin the
//! generator, `TCP_QUICKACK`, the calling thread's CPU clock, and
//! `/proc/<pid>` for the child's CPU time and peak resident set.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

pub const POLLIN: i16 = 0x001;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

impl PollFd {
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const PR_SET_TIMERSLACK: i32 = 29;
const SC_CLK_TCK: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// Words in the kernel's default 1024-bit `cpu_set_t`.
const CPU_WORDS: usize = 16;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sysconf(name: i32) -> std::ffi::c_long;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn setsockopt(fd: RawFd, level: i32, name: i32, value: *const std::ffi::c_void, len: u32) -> i32;
}

const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;

/// Makes the socket acknowledge what it has received now, not up to
/// 40 ms later. Delaying acknowledgements is a policy of the *client's*
/// TCP stack; a generator that keeps it adds a delay of its own to
/// every server that writes a response in two pieces without
/// `TCP_NODELAY`. The kernel drops back to delayed acknowledgements by
/// itself, so this is called again after every read.
pub fn quick_ack(fd: RawFd) {
    let on: i32 = 1;
    // SAFETY: `on` is a live i32 and its size is passed with it; a bad
    // fd or option makes the call fail, which is harmless here.
    unsafe { setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, (&on as *const i32).cast(), 4) };
}

/// Waits until one of `fds` is ready or `timeout` elapses (nanosecond
/// resolution, unlike `poll(2)`'s milliseconds: the open loop's
/// inter-arrival gaps are a few hundred microseconds). Returns how many
/// entries have non-zero `revents`; an interrupted wait reports zero.
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd records and its length is passed with it; `ts` outlives the
    // call; a null signal mask leaves the mask unchanged.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null()) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// Lets timers of the calling thread fire within about a microsecond of
/// their deadline instead of the default 50 µs slack.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches only the calling thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
}

/// CPU time the calling thread has used, user and system.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable timespec; the clock id is a constant
    // every Linux kernel knows.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The CPUs the calling thread may run on, as a hex mask (CPU 0 is the
/// lowest bit), or `None` when the kernel refuses to say.
pub fn allowed_cpus() -> Option<u128> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then(|| mask[0] as u128 | (mask[1] as u128) << 64)
}

/// Restricts the calling thread to the CPUs in `cpus`; threads and
/// processes it starts afterwards inherit the restriction.
pub fn set_allowed_cpus(cpus: u128) -> bool {
    let mut mask = [0u64; CPU_WORDS];
    mask[0] = cpus as u64;
    mask[1] = (cpus >> 64) as u64;
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The highest CPU in `allowed`, as a one-bit mask.
pub fn highest_cpu(allowed: u128) -> u128 {
    match allowed {
        0 => 0,
        _ => 1u128 << (127 - allowed.leading_zeros()),
    }
}

/// User plus system CPU time of process `pid`, all threads, from
/// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks).
pub fn process_cpu_time(pid: u32) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("unparseable /proc stat"))?;
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = 0u64;
    for _ in 0..2 {
        ticks += fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("short /proc stat"))?;
    }
    // SAFETY: sysconf with a valid name has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    Ok(Duration::from_nanos(ticks * 1_000_000_000 / hz))
}

/// Peak resident set of process `pid` in MiB (`VmHWM`).
pub fn process_peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// `uname -r`, for output headers.
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}
