//! Thread CPU time, the benchmark's clock.
//!
//! Every timed operation is single-threaded compute, so the CPU time
//! the calling thread consumed equals its wall time when nothing else
//! wants the processor. Unlike wall time it does not count the spans
//! in which the thread was preempted or its virtual CPU was held by
//! the host (steal time), which are what a noisy neighbour adds.

/// A reading of the calling thread's CPU-time clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(u64);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

impl CpuInstant {
    pub fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two
        // 64-bit fields on 64-bit Linux), the only memory
        // `clock_gettime` writes; the clock id is a valid constant.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &raw mut ts) };
        assert_eq!(
            rc, 0,
            "the thread CPU-time clock is always available on Linux"
        );
        let secs = u64::try_from(ts.tv_sec).expect("CPU time is non-negative");
        let nanos = u64::try_from(ts.tv_nsec).expect("CPU time is non-negative");
        CpuInstant(secs * 1_000_000_000 + nanos)
    }

    /// Nanoseconds from `earlier` to `self`.
    pub fn since_ns(self, earlier: CpuInstant) -> f64 {
        self.0.saturating_sub(earlier.0) as f64
    }

    /// Nanoseconds of this thread's CPU time since `self`.
    pub fn elapsed_ns(self) -> f64 {
        CpuInstant::now().since_ns(self)
    }

    /// Seconds of this thread's CPU time since `self`.
    pub fn elapsed_s(self) -> f64 {
        self.elapsed_ns() * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_busy_time_only() {
        let t = CpuInstant::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(t.elapsed_ns() < 25e6, "sleeping is not CPU time");
        let t = CpuInstant::now();
        let mut x = 0u64;
        while t.elapsed_ns() < 5e6 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
