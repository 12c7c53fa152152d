//! Runs the multi-threaded workloads on one CPU.
//!
//! On a shared host with few CPUs, work that hands off between threads
//! on different CPUs (the daemon and its client, the sweep's worker
//! pool) waits whenever the other CPU is taken by the host, and that
//! wait moved the multi-threaded workloads' medians by half within
//! half an hour. Pinning every thread of `sweep_corpus` and
//! `serve_mixed` to one CPU keeps the thread structure (the pool still
//! runs `nproc` workers, the daemon its own threads) but takes the
//! second CPU's availability out of the measurement. The single-threaded live workloads have no hand-offs to
//! protect and stay unpinned.
//!
//! The price: on one CPU the pool's workers take turns, so the
//! end-to-end figures cannot see a change in parallel scaling. The
//! traced run's `sweep.speedup` probe lifts the pin to measure it.
//!
//! Affinity is per thread and inherited by threads spawned later, so
//! [`pin`] runs on the main thread before any other thread exists.

use std::sync::OnceLock;

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: a bit mask of 1024 CPUs.
    #[repr(C)]
    #[derive(Clone)]
    pub struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable, properly aligned cpu_set_t of the
        // size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a readable cpu_set_t of the size passed; pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }

    impl CpuSet {
        /// Only the highest-numbered CPU of this set.
        pub fn last_only(&self) -> Option<CpuSet> {
            let (word, bits) = self.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
            let mut one = CpuSet([0; 16]);
            one.0[word] = 1 << (63 - bits.leading_zeros());
            Some(one)
        }
    }
}

static NPROC: OnceLock<usize> = OnceLock::new();
#[cfg(target_os = "linux")]
static ORIGINAL: OnceLock<Option<sys::CpuSet>> = OnceLock::new();

/// The CPUs the process could use before [`pin`]: the host's `nproc`.
pub fn nproc() -> usize {
    *NPROC.get_or_init(algoprof::default_workers)
}

/// Pins the calling thread, and every thread it spawns from now on, to
/// the highest-numbered CPU it may run on.
pub fn pin() {
    nproc();
    #[cfg(target_os = "linux")]
    if let Some(one) = ORIGINAL
        .get_or_init(sys::get)
        .as_ref()
        .and_then(sys::CpuSet::last_only)
    {
        if !sys::set(&one) {
            eprintln!("perfbench: cannot pin to one CPU; running unpinned");
        }
    }
}

/// Runs `f` on the calling thread with the mask it had before [`pin`]
/// (threads `f` spawns inherit it), then restores the current mask.
pub fn while_unpinned<T>(f: impl FnOnce() -> T) -> T {
    #[cfg(target_os = "linux")]
    if let (Some(Some(all)), Some(pinned)) = (ORIGINAL.get(), sys::get()) {
        sys::set(all);
        let out = f();
        sys::set(&pinned);
        return out;
    }
    f()
}
