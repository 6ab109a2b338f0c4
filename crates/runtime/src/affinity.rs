//! CPU affinity for dispatcher shards (Linux `sched_setaffinity`, raw
//! FFI — the offline build has no `libc` crate).
//!
//! Pinning is on whenever the host has more than one core; there is no
//! opt-out. Shard `N` pins to core `N mod host_cores`, so a shard's
//! queue and the session state its events touch stay in one core's
//! cache. The net crate carries a sibling copy
//! of this ~40-line shim for its reactor thread; the two crates are
//! deliberately independent (neither depends on the other), so the FFI
//! glue is duplicated rather than shared.

/// Number of hardware threads on this host.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// True when thread pinning should be attempted: more than one core.
pub fn should_pin() -> bool {
    host_cores() > 1
}

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        /// `pid == 0` targets the calling thread.
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Pins the calling thread to `core` (mod the host core count).
/// Returns `true` on success; always `false` off Linux.
pub fn pin_current_thread(core: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let core = core % host_cores().max(1);
        // 1024-bit cpu_set_t, the kernel's default size.
        let mut mask = [0u64; 16];
        if core >= 1024 {
            return false;
        }
        mask[core / 64] |= 1u64 << (core % 64);
        unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = core;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_to_core_zero_succeeds() {
        // Core 0 always exists; pinning the test thread is harmless.
        assert!(pin_current_thread(0));
    }
}
