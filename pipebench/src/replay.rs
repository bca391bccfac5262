//! `sim_replay`: the registry designs are compiled and placed once in
//! set-up (16 single-chip, 16 four-chip); each request simulates one
//! design in one variant — active, profiled (what every `sarad` sim
//! stage runs), or the linked four-chip simulation.

use crate::cold::{build_progs, CHIPS};
use crate::common::{
    latency_metrics, normalize, sim_kcycles_per_s, sum_of_medians, trace_metrics, write_trace,
    Args, Sample, MIN_PASSES, SETUP_REPS,
};
use crate::pipeline::{
    check_dram, compile_traced, dram_blocked, place_traced, simulate_on, Exact, Prog, Stages,
    Target,
};
use crate::probe::{timed_s, Probes};
use crate::report::{Report, Row};
use crate::trace::{Layer, Tracer};
use crate::util::{geomean, median, pnr_seed, Rng};
use plasticine_arch::{ChipSpec, SystemSpec};
use plasticine_sim::SimConfig;
use sara_core::shard::ShardPlan;
use sara_core::vudfg::Vudfg;
use std::time::{Duration, Instant};

const VARIANTS: [&str; 3] = ["active", "profiled", "system"];

struct Design {
    g: Vudfg,
    plan: Option<ShardPlan>,
    exact: Exact,
}

/// Compile and place every program on `target` (PnR seed of slot 0).
fn place_all(progs: &[Prog], target: &Target, st: &mut Stages) -> Result<Vec<Design>, String> {
    let mut tr = Tracer::new(Instant::now());
    let mut out = Vec::new();
    for (i, p) in progs.iter().enumerate() {
        let mut s = Stages::default();
        let c = compile_traced(p, target.chip(), &mut tr, &mut s)?;
        let mut exact = Exact::default();
        let (g, plan) = place_traced(p, c, target, pnr_seed(i, 0), &mut tr, &mut s, &mut exact)?;
        st.compile += s.compile;
        st.place += s.place;
        st.system += s.system;
        out.push(Design { g, plan, exact });
    }
    Ok(out)
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let chip = Target::Chip(ChipSpec::small_8x8());
    let sys = Target::System(SystemSpec::grid(ChipSpec::small_8x8(), CHIPS));

    // ---- set-up: references, then compile + place both design sets ----
    let mut setup_s = Vec::new();
    let mut interp = Vec::new();
    let mut stage_ms: Vec<Stages> = Vec::new();
    let mut setup_raw = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let mut st = Stages::default();
        let (r, raw, scaled) = timed_s(|| -> Result<_, String> {
            let (one, ms1) = build_progs(false)?;
            let (four, ms4) = build_progs(true)?;
            let d1 = place_all(&one, &chip, &mut st)?;
            let d4 = place_all(&four, &sys, &mut st)?;
            Ok((one, four, d1, d4, ms1 + ms4))
        });
        let (one, four, d1, d4, ms) = r?;
        st.scale(scaled / raw);
        setup_s.push(scaled);
        setup_raw.push(raw);
        interp.push(ms * scaled / raw);
        stage_ms.push(st);
        // Set-up is deterministic: every repetition places the same
        // designs.
        if let Some((_, _, p1, p4)) = &built {
            let same =
                |a: &Vec<Design>, b: &Vec<Design>| a.iter().zip(b).all(|(x, y)| x.exact == y.exact);
            if !same(p1, &d1) || !same(p4, &d4) {
                rep.fail("set-up placed different designs on a repeat".into());
            }
        }
        built = Some((one, four, d1, d4));
    }
    let (one, four, d1, d4) = built.expect("SETUP_REPS > 0");
    rep.e2e.insert("setup_s", median(&setup_s));
    rep.extra.push(("raw.setup_s".into(), median(&setup_raw), "s"));
    rep.layer.insert("ir.interp_ms", median(&interp));
    let med = |f: fn(&Stages) -> f64| median(&stage_ms.iter().map(f).collect::<Vec<_>>());
    rep.layer.insert("core.compile_ms", med(|s| s.compile));
    rep.layer.insert("pnr.place_ms", med(|s| s.place));
    rep.layer.insert("pnr.system_ms", med(|s| s.system));

    // ---- measurement: whole passes over 16 programs × 3 variants ----
    let n = one.len();
    let kinds = n * VARIANTS.len();
    let mut rng = Rng::new(args.seed);
    let mut tr = Tracer::new(Instant::now());
    let mut samples: Vec<Sample> = Vec::new();
    let mut seen: Vec<Option<Exact>> = vec![None; kinds];
    let (mut dram_stalls, mut vcu_cycles) = (0u64, 0u64);
    let mut probes = Probes::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || start.elapsed() < Duration::from_secs_f64(args.seconds) {
        let traced = args.trace && pass % 2 == 1;
        tr.set_enabled(traced);
        let mut order: Vec<usize> = (0..kinds).collect();
        rng.shuffle(&mut order);
        for k in order {
            let (i, v) = (k / VARIANTS.len(), k % VARIANTS.len());
            let (p, d, target, cfg, span) = match v {
                0 => (&one[i], &d1[i], &chip, SimConfig::default(), "sim.active"),
                1 => (&one[i], &d1[i], &chip, SimConfig::profiled(), "sim.profiled"),
                _ => (&four[i], &d4[i], &sys, SimConfig::default(), "sim.system"),
            };
            let probe = probes.tick();
            rep.attempted += 1;
            tr.set_request(rep.attempted);
            let root = tr.begin(Layer::Bench, p.name);
            let t = Instant::now();
            let r = simulate_on(p.name, &d.g, target, d.plan.as_ref(), &cfg, span, &mut tr);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.end(root);
            let out = match r.and_then(|o| check_dram(p, &o).map(|()| o)) {
                Ok(o) => o,
                Err(e) => {
                    rep.fail(e);
                    continue;
                }
            };
            let exact = Exact { cycles: out.cycles, firings: out.stats.firings, ..d.exact };
            if !rep.exact_check(format!("{}/{}", p.name, VARIANTS[v]), exact) {
                continue;
            }
            // The profiler only observes: a profiled run must take exactly
            // the cycles of the plain one.
            let twin = if v < 2 { seen[i * VARIANTS.len() + (1 - v)] } else { None };
            if twin.is_some_and(|t| (t.cycles, t.firings) != (exact.cycles, exact.firings)) {
                rep.fail(format!(
                    "{}: profiled and active runs differ in cycles or firings",
                    p.name
                ));
                continue;
            }
            if seen[k].is_none() {
                if let Some((d, c)) = dram_blocked(&out) {
                    dram_stalls += d;
                    vcu_cycles += c;
                }
            }
            seen[k] = Some(exact);
            let stages = Stages { sim: ms, ..Stages::default() };
            samples.push(Sample::new(k, ms, traced, stages, out.cycles, probe));
        }
        pass += 1;
    }

    probes.finish();
    normalize(&mut samples, &probes);

    // ---- end-to-end metrics ----
    latency_metrics(rep, &samples, &probes);
    let designs: Vec<f64> = (0..n)
        .flat_map(|i| [seen[i * 3], seen[i * 3 + 2]])
        .flatten()
        .map(|e| e.cycles as f64)
        .collect();
    rep.e2e.insert("design_cycles_geomean", geomean(&designs));
    rep.e2e.insert("sim_kcycles_per_s", sim_kcycles_per_s(&samples));

    // ---- per-layer metrics ----
    let per_variant =
        |v: usize| sum_of_medians(&samples, kinds, |s| s.traced && s.kind % 3 == v, |s| s.ms);
    let (active, profiled, system) = (per_variant(0), per_variant(1), per_variant(2));
    rep.layer.insert("sim.active_ms", active);
    rep.layer.insert("sim.profiled_ms", profiled);
    rep.layer.insert("sim.system_ms", system);
    rep.layer.insert("sim.profile_overhead", profiled / active.max(1e-12));
    let single = |f: fn(&Exact) -> u64| {
        (0..n).filter_map(|i| seen[i * 3]).map(|e| f(&e) as f64).sum::<f64>()
    };
    rep.layer.insert("sim.cycles", single(|e| e.cycles));
    rep.layer.insert("sim.firings", single(|e| e.firings));
    rep.layer.insert("pnr.iterations", single(|e| e.iterations));
    rep.layer.insert("pnr.wirelength", single(|e| e.wirelength));
    rep.layer.insert("sim.dram_blocked_frac", dram_stalls as f64 / vcu_cycles.max(1) as f64);
    if args.trace {
        trace_metrics(rep, &tr, &samples, kinds);
        write_trace(args, &tr)?;
    }

    // ---- per-design rows ----
    for (k, exact) in seen.iter().enumerate() {
        let (i, v) = (k / 3, k % 3);
        let ms: Vec<f64> = samples.iter().filter(|s| s.kind == k).map(|s| s.ms).collect();
        rep.rows.push(Row {
            name: format!("{}/{}", one[i].name, VARIANTS[v]),
            requests: ms.len(),
            p50_ms: median(&ms),
            total_ms: ms.iter().sum(),
            exact: exact.unwrap_or_default(),
        });
    }
    Ok(())
}
