//! Pieces shared by the workloads: arguments, timed samples and the
//! statistics derived from them, and the traced run's layer table.

use crate::pipeline::Stages;
use crate::probe::{Probes, REF_PROBE_MS};
use crate::report::Report;
use crate::trace::{Layer, Tracer};
use crate::util::{median, quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// PnR seeds per program (see `util::pnr_seed`); a program cycles
/// through them pass by pass, from a seeded starting slot.
pub const SEED_SLOTS: usize = 4;
/// A run measures at least this many whole passes, so every slot's
/// design is in it and the exact counts do not depend on speed.
pub const MIN_PASSES: usize = SEED_SLOTS;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One timed, checked request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Request kind (a program, a program × variant, or a cache class);
    /// tracing overhead is compared per kind.
    pub kind: usize,
    pub ms: f64,
    pub traced: bool,
    pub stages: Stages,
    /// Simulated cycles of the request's design.
    pub cycles: u64,
    /// Index of the speed probe taken before the request.
    pub probe: usize,
    /// `ms` before normalization.
    pub raw_ms: f64,
}

impl Sample {
    pub fn new(
        kind: usize,
        ms: f64,
        traced: bool,
        stages: Stages,
        cycles: u64,
        probe: usize,
    ) -> Sample {
        Sample { kind, ms, traced, stages, cycles, probe, raw_ms: ms }
    }
}

/// Scale every sample's times to the reference host speed.
pub fn normalize(samples: &mut [Sample], probes: &Probes) {
    for s in samples {
        let f = probes.factor(s.probe);
        s.ms *= f;
        s.stages.scale(f);
    }
}

/// Per-kind median of `f` over the samples that pass `keep`, summed over
/// kinds: the time one pass over every kind takes.
pub fn sum_of_medians(
    samples: &[Sample],
    kinds: usize,
    keep: impl Fn(&Sample) -> bool,
    f: impl Fn(&Sample) -> f64,
) -> f64 {
    let mut by: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    for s in samples.iter().filter(|s| keep(s)) {
        by[s.kind].push(f(s));
    }
    by.iter().map(|v| median(v)).sum()
}

/// Request-latency end-to-end metrics over untraced samples (scaled),
/// with the raw values and the probe record printed beside them.
pub fn latency_metrics(rep: &mut Report, samples: &[Sample], probes: &Probes) {
    let untraced = || samples.iter().filter(|s| !s.traced);
    let ms: Vec<f64> = untraced().map(|s| s.ms).collect();
    let raw: Vec<f64> = untraced().map(|s| s.raw_ms).collect();
    let rate = |v: &[f64]| v.len() as f64 / (v.iter().sum::<f64>() / 1e3).max(1e-12);
    rep.e2e.insert("req_ms_p50", quantile(&ms, 0.5));
    rep.e2e.insert("req_ms_p90", quantile(&ms, 0.9));
    rep.e2e.insert("req_per_s", rate(&ms));
    rep.extra.push(("requests_timed".into(), ms.len() as f64, "count"));
    rep.extra.push(("raw.req_ms_p50".into(), quantile(&raw, 0.5), "ms"));
    rep.extra.push(("raw.req_ms_p90".into(), quantile(&raw, 0.9), "ms"));
    rep.extra.push(("raw.req_per_s".into(), rate(&raw), "1/s"));
    let (cycles, sim_raw) = untraced().fold((0.0, 0.0), |(c, m), s| {
        (c + s.cycles as f64, m + s.stages.sim * s.raw_ms / s.ms.max(1e-12))
    });
    if sim_raw > 0.0 {
        rep.extra.push(("raw.sim_kcycles_per_s".into(), cycles / sim_raw, "kcycles/s"));
    }
    rep.extra.push(("probe.median_ms".into(), probes.median_ms(), "ms"));
    rep.extra.push(("probe.ref_ms".into(), REF_PROBE_MS, "ms"));
}

/// Simulated kcycles per host second spent in simulation calls, over
/// untraced samples.
pub fn sim_kcycles_per_s(samples: &[Sample]) -> f64 {
    let (cycles, ms) = samples
        .iter()
        .filter(|s| !s.traced)
        .fold((0.0, 0.0), |(c, m), s| (c + s.cycles as f64, m + s.stages.sim));
    cycles / ms.max(1e-12)
}

/// Tracing overhead: per kind, the traced median against the untraced
/// median, as a share of the untraced sum (kinds with at least three
/// samples of each).
pub fn trace_overhead(samples: &[Sample], kinds: usize) -> f64 {
    let mut on: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    let mut off: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    for s in samples {
        let side = if s.traced { &mut on } else { &mut off };
        side[s.kind].push(s.ms);
    }
    let (mut a, mut b) = (0.0, 0.0);
    for (t, u) in on.iter().zip(&off) {
        if t.len() >= 3 && u.len() >= 3 {
            a += median(t);
            b += median(u);
        }
    }
    if b > 0.0 {
        a / b - 1.0
    } else {
        0.0
    }
}

/// Per-layer self times of the traced requests, the tracing overhead and
/// the unaccounted share, plus the printed self-time table.
pub fn trace_metrics(rep: &mut Report, tr: &Tracer, samples: &[Sample], kinds: usize) {
    let n = tr.requests().max(1) as f64;
    let req_mean = tr.request_ms() / n;
    let by_layer = tr.layer_self_ms();
    for (l, ms) in &by_layer {
        let name = match l {
            Layer::Bench => "self.bench_ms",
            Layer::Core => "self.core_ms",
            Layer::Pnr => "self.pnr_ms",
            Layer::Sim => "self.sim_ms",
            Layer::Sarad => "self.sarad_ms",
        };
        rep.layer.insert(name, ms / n);
    }
    let overhead = trace_overhead(samples, kinds);
    let unaccounted = by_layer[&Layer::Bench] / n / req_mean.max(1e-12);
    rep.layer.insert("trace.req_ms_mean", req_mean);
    rep.layer.insert("trace.overhead_frac", overhead);
    rep.layer.insert("trace.unaccounted_frac", unaccounted);

    let mut t = String::new();
    let _ = writeln!(
        t,
        "self time per traced request ({} requests, mean {req_mean:.4} ms):",
        tr.requests()
    );
    for (l, ms) in &by_layer {
        let _ = writeln!(
            t,
            "  {:<22} {:>12.4} ms {:>7.2}%",
            l.track(),
            ms / n,
            100.0 * ms / n / req_mean.max(1e-12)
        );
    }
    let _ = writeln!(
        t,
        "  unaccounted (request self time) {:.4}% vs tracing overhead {:+.4}%",
        100.0 * unaccounted,
        100.0 * overhead
    );
    let _ = writeln!(t, "self time per span name:");
    let names: BTreeMap<_, _> = tr.name_self_ms();
    for ((l, name), (ms, count)) in names {
        if l == Layer::Bench {
            continue;
        }
        let _ = writeln!(t, "  {:<16} {:<28} {:>8} spans {:>12.3} ms", l.short(), name, count, ms);
    }
    rep.self_table = t;
}

/// Write the traced run's Chrome trace under `out/`.
pub fn write_trace(args: &Args, tr: &Tracer) -> Result<(), String> {
    let path = format!("trace-{}-seed{}.json", args.workload, args.seed);
    let doc = tr.chrome_trace(&format!("pipebench {} seed {}", args.workload, args.seed));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("chrome trace: pipebench/out/{path}");
    Ok(())
}
