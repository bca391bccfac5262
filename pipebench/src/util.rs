//! Small helpers: a seeded generator, order statistics, the host record
//! (xorshift calibration, `nproc`, CPU pinning, build profile, peak RSS).

use std::time::Instant;

/// SplitMix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5a4a_b0a7_d00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The PnR seed of program `prog` in seed slot `slot`. The pool is fixed,
/// so every run places the same designs; the run seed decides which
/// slot each request uses (and the request order).
pub fn pnr_seed(prog: usize, slot: usize) -> u64 {
    let mut r = Rng::new(((prog as u64) << 32) ^ ((slot as u64) << 48));
    r.next_u64() % 1_000_000
}

/// Median (upper median for even counts); 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Fixed-work integer microbenchmark (xorshift64* mix) in Mops/s — the
/// same method as the `simperf` calibration, so scores are comparable.
pub fn calibrate() -> f64 {
    const ITERS: u64 = 40_000_000;
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(x);
    ITERS as f64 / dt / 1e6
}

/// CPUs available to this process (call before `pin_to_current_cpu`,
/// which narrows it to one).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin this process (and every thread it starts afterwards) to the CPU
/// it is running on; returns that CPU. The speed probe then measures the
/// core the work runs on: without pinning, the in-process `sarad`
/// server's thread could run on the other core while the client probed
/// its own, and runs slowed by 30% went uncorrected.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    /// `cpu_set_t`: 1024 bits.
    const SET_WORDS: usize = 16;
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    if cpu >= SET_WORDS * 64 {
        return Err(format!("cpu {cpu} is outside a 1024-bit cpu set"));
    }
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized `cpu_set_t`-sized buffer of
    // exactly `size_of_val(&mask)` bytes, which the call only reads; pid
    // 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity failed: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(3).next_u64(), Rng::new(4).next_u64());
        assert_ne!(pnr_seed(0, 0), pnr_seed(0, 1));
    }
}
