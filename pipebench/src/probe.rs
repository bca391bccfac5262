//! Host-speed normalization by an interleaved probe.
//!
//! On a shared host the same run can be 25% slower than the one before
//! it, and the xorshift calibration taken once at the start does not
//! follow that. A short fixed kernel run between requests does: it hits
//! hash maps, the allocator and caches as the pipeline does, and over
//! one-second blocks its time explains most of the variation of PnR,
//! simulation and compile time (r ≈ 0.95, slope ≈ 0.9 on the 2-core
//! reference host). Every request is scaled by `REF_PROBE_MS` over the
//! median of the probes taken around it, i.e. to a host on which the
//! probe takes `REF_PROBE_MS`. The correction is weakest for requests
//! lasting seconds (rf's four-chip PnR: r between 0.6 and 0.85 per
//! request), which span host changes the probes cannot see. The probe
//! is std-only code compiled into the benchmark, so a change to the
//! repository cannot move it; raw times are printed beside the scaled
//! ones.

use crate::util::{median, ms_since};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Probe time on the reference host (2 cores; the middle of the run
/// medians seen there).
pub const REF_PROBE_MS: f64 = 1.2;
/// Minimum wall time between probes.
const EVERY: Duration = Duration::from_millis(25);
/// Probes per normalization window (half before, half after a request).
const WINDOW: usize = 8;

/// The probe kernel: xorshift keys into a 4096-slot `HashMap` plus small
/// `Vec` allocations. Returns its wall time in ms.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut m: HashMap<u64, u64> = HashMap::with_capacity(4096);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v: Vec<u64> = Vec::new();
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *m.entry(x % 4096).or_insert(0) += i;
        if i % 64 == 0 {
            v = Vec::with_capacity(64);
        }
        v.push(x);
    }
    std::hint::black_box((&m, &v));
    ms_since(t)
}

/// The probes of one run, taken at most every `EVERY`.
#[derive(Debug)]
pub struct Probes {
    ms: Vec<f64>,
    last: Instant,
}

impl Probes {
    pub fn new() -> Probes {
        Probes { ms: vec![probe_ms()], last: Instant::now() }
    }

    /// Probe if the last probe is older than `EVERY`; the index of the
    /// latest probe, to tag the request that follows.
    pub fn tick(&mut self) -> usize {
        if self.last.elapsed() >= EVERY {
            self.ms.push(probe_ms());
            self.last = Instant::now();
        }
        self.ms.len() - 1
    }

    /// Close the run with a final probe, so the last requests are
    /// bracketed too.
    pub fn finish(&mut self) {
        self.ms.push(probe_ms());
    }

    /// Scale factor for a request that ran after probe `i`:
    /// `REF_PROBE_MS` over the median of the `WINDOW` probes around it
    /// (the median damps the noise of a single short probe).
    pub fn factor(&self, i: usize) -> f64 {
        let lo = (i + 1).saturating_sub(WINDOW / 2);
        let hi = (i + 1 + WINDOW / 2).min(self.ms.len());
        REF_PROBE_MS / median(&self.ms[lo..hi])
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.ms)
    }
}

/// Run `f` (a set-up) between two groups of probes; its wall time in
/// seconds, raw and scaled as a request is.
pub fn timed_s<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let group = || (0..WINDOW / 2).map(|_| probe_ms()).collect::<Vec<_>>();
    let mut probes = Probes { ms: group(), last: Instant::now() };
    let t = Instant::now();
    let out = f();
    let raw = t.elapsed().as_secs_f64();
    probes.ms.extend(group());
    (out, raw, raw * probes.factor(WINDOW / 2 - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference_probe() {
        let p =
            Probes { ms: vec![2.0 * REF_PROBE_MS, 2.0 * REF_PROBE_MS, 9.0], last: Instant::now() };
        assert!((p.factor(0) - 0.5).abs() < 1e-12, "the median ignores one outlier probe");
    }
}
