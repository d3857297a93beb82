//! Machine-speed calibration for the gated timings.
//!
//! On a shared host a core can run 1.5x slower for seconds or minutes at
//! a time while another tenant loads it. A whole measured window can fall
//! in such a stretch, so neither a median nor a low percentile of the
//! window is steady from run to run. The benchmark therefore times a
//! fixed calibration kernel, which calls no code of the program, between
//! operations, and scales each gated time by `REF_MS / median kernel
//! time`: the time the work would have taken on a core where the kernel
//! takes [`REF_MS`]. The unscaled numbers are printed beside the scaled
//! ones.
//!
//! The slowdown is not uniform over instructions, nor over cores.
//! Measured on a shared 2-vCPU Xeon VM: a dependent arithmetic chain slowed
//! by up to 1.1x in slow stretches, a loop of L1 loads and stores by up
//! to 2.1x, and the workloads by up to 1.4x to 1.6x. The kernel runs the
//! two back to back, about 40:60 by time (stores : arithmetic). Over ten
//! 12-second runs per workload, dividing by it cut the quartile spread of
//! the median operation time from 0.40 to 0.09 on `sim_regression`, from
//! 0.20 to 0.07 on `campaign_cold` and from 0.22 to 0.11 on
//! `serve_open_loop`. Mixes with more stores over-corrected the campaign
//! and the daemon; the pure store loop over-corrected all three.
//!
//! A kernel timed on a second thread while the single-threaded
//! co-simulation ran missed the co-simulation's slowdown: it ran on the
//! other core, which was not slowed alike. So the kernel runs while the
//! workload is idle, on as many threads at once as the workload keeps
//! busy, and each run is timed by its thread's CPU clock.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The reference kernel time, in ms: roughly the kernel's time on an
/// uncontended core of the reference host. Scaled times are the times
/// the work would take where the kernel takes this long.
pub const REF_MS: f64 = 0.4;

/// The least time between two probes by [`Calib::tick`].
const EVERY: Duration = Duration::from_millis(50);

/// The calibration kernel: L1 read-modify-writes over a 4 KB table, then
/// a dependent xorshift chain.
fn kernel(seed: u64) -> u64 {
    let mut table = [0u64; 512];
    for k in 0..240_000usize {
        let j = k & 511;
        table[j] = table[(j * 7) & 511].wrapping_add(k as u64 ^ seed);
    }
    let mut x = black_box(&table)[seed as usize & 511] | 1;
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

#[cfg(target_os = "linux")]
mod clock {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// CPU time of the calling thread, in ms.
    pub fn thread_ms() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
    }
}

#[cfg(not(target_os = "linux"))]
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Wall time since the first call, in ms (no thread CPU clock here).
    pub fn thread_ms() -> f64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
    }
}

/// Kernel times, each with the moment it was taken.
pub struct Calib {
    threads: usize,
    samples: Mutex<Vec<(Instant, f64)>>,
}

/// Times the kernel once by the calling thread's CPU clock, in ms.
fn timed_kernel(seed: u64) -> f64 {
    let t = clock::thread_ms();
    black_box(kernel(black_box(seed)));
    clock::thread_ms() - t
}

impl Calib {
    /// A calibration for a workload that keeps `threads` cores busy.
    pub fn new(threads: usize) -> Calib {
        Calib {
            threads: threads.max(1),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Times the kernel once on each of `threads` threads at once: the
    /// calling thread and `threads - 1` helpers.
    pub fn probe(&self) {
        let seed = self.samples.lock().expect("calib lock").len() as u64;
        let times: Vec<f64> = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..self.threads)
                .map(|k| s.spawn(move || timed_kernel(seed + k as u64)))
                .collect();
            let mut times = vec![timed_kernel(seed)];
            times.extend(helpers.into_iter().map(|h| h.join().expect("probe thread")));
            times
        });
        let now = Instant::now();
        let mut samples = self.samples.lock().expect("calib lock");
        samples.extend(times.into_iter().map(|ms| (now, ms)));
    }

    /// Probes if [`EVERY`] has passed since the last probe. Workloads
    /// call it between operations.
    pub fn tick(&self) {
        let last = self.samples.lock().expect("calib lock").last().map(|s| s.0);
        if last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.probe();
        }
    }

    /// `REF_MS` over the median kernel time among the probes taken in
    /// `[from, to]`, with the sample count; `(1, 0)` when there are none.
    pub fn scale(&self, from: Instant, to: Instant) -> (f64, usize) {
        let times: Vec<f64> = self
            .samples
            .lock()
            .expect("calib lock")
            .iter()
            .filter(|s| s.0 >= from && s.0 <= to)
            .map(|s| s.1)
            .collect();
        match crate::stats::median_of(&times) {
            m if m > 0.0 => (REF_MS / m, times.len()),
            _ => (1.0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_the_reference_over_the_median_in_range() {
        let c = Calib::new(1);
        let t0 = Instant::now();
        for ms in [0.8, 0.2, 0.4] {
            c.samples.lock().unwrap().push((Instant::now(), ms));
        }
        let t1 = Instant::now();
        c.samples.lock().unwrap().push((Instant::now(), 100.0));
        let (s, n) = c.scale(t0, t1);
        assert_eq!(n, 3);
        assert!((s - REF_MS / 0.4).abs() < 1e-12);
        assert_eq!(c.scale(t1 + Duration::from_secs(1), t1), (1.0, 0));
    }

    #[test]
    fn a_probe_times_the_kernel_once_per_thread() {
        let c = Calib::new(2);
        let from = Instant::now();
        c.probe();
        c.tick(); // too soon after the probe: no second probe
        let (s, n) = c.scale(from, Instant::now());
        assert_eq!(n, 2);
        assert!(s > 0.0 && s.is_finite());
    }
}
