//! `cold_registry` and `multichip_4x`: closed-loop passes over the 16
//! registry programs, each request a cold compile → PnR → simulate.

use crate::common::{
    latency_metrics, normalize, sim_kcycles_per_s, sum_of_medians, trace_metrics, write_trace,
    Args, Sample, MIN_PASSES, SEED_SLOTS, SETUP_REPS,
};
use crate::pipeline::{check_dram, cold_request, stagewise_matches, Exact, Prog, Target};
use crate::probe::{timed_s, Probes};
use crate::report::{Report, Row};
use crate::trace::{Layer, Tracer};
use crate::util::{geomean, median, pnr_seed, Rng};
use plasticine_arch::{ChipSpec, SystemSpec};
use sara_core::compile::CompilerOptions;
use sara_dse::KnobConfig;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Chips in the scale-out system.
pub const CHIPS: u32 = 4;

/// The `multichip` bench's scaling rule: multiply the dominant tunable
/// loop's `par` by the chip count, preferring a non-innermost loop, capped
/// by the trip count and, for an innermost loop, by the SIMD width.
pub fn scaled_knobs(knobs: &KnobConfig, chips: u32, lanes: u32) -> KnobConfig {
    let mut k = knobs.clone();
    let pick =
        k.pars.iter().position(|l| !l.innermost).or_else(|| (!k.pars.is_empty()).then_some(0));
    if let Some(i) = pick {
        let l = &mut k.pars[i];
        let mut par =
            l.par.saturating_mul(chips).min(l.trip.min(u64::from(u32::MAX)) as u32).max(1);
        if l.innermost {
            par = par.min(lanes);
        }
        l.par = par;
    }
    k
}

/// The registry programs at default knobs (or scaled for the system),
/// with their interpreter references. Returns the total interpreter time
/// in ms.
pub fn build_progs(scaled: bool) -> Result<(Vec<Prog>, f64), String> {
    let chip = ChipSpec::small_8x8();
    let mut progs = Vec::new();
    let mut interp_ms = 0.0;
    for w in sara_workloads::all_small() {
        let (program, opts) = if scaled {
            let base = KnobConfig::default_for(&w, "8x8", 0)?;
            let k = scaled_knobs(&base, CHIPS, chip.pcu.lanes);
            (k.build_program()?, k.compiler_options())
        } else {
            (w.program, CompilerOptions::default())
        };
        let (p, ms) = Prog::new(w.name, program, opts)?;
        interp_ms += ms;
        progs.push(p);
    }
    Ok((progs, interp_ms))
}

pub fn run(args: &Args, multichip: bool, rep: &mut Report) -> Result<(), String> {
    // ---- set-up: programs and interpreter references ----
    let mut setup_s = Vec::new();
    let mut interp = Vec::new();
    let mut progs = Vec::new();
    let mut setup_raw = Vec::new();
    for _ in 0..SETUP_REPS {
        let (r, raw, scaled) = timed_s(|| build_progs(multichip));
        let (p, ms) = r?;
        setup_s.push(scaled);
        setup_raw.push(raw);
        interp.push(ms);
        progs = p;
    }
    rep.e2e.insert("setup_s", median(&setup_s));
    rep.extra.push(("raw.setup_s".into(), median(&setup_raw), "s"));
    rep.layer.insert("ir.interp_ms", median(&interp));
    let target = if multichip {
        Target::System(SystemSpec::grid(ChipSpec::small_8x8(), CHIPS))
    } else {
        Target::Chip(ChipSpec::small_8x8())
    };
    if args.trace {
        for (i, p) in progs.iter().enumerate() {
            if let Err(e) = stagewise_matches(p, &target, pnr_seed(i, 0)) {
                rep.fail(e);
            }
        }
    }

    // ---- measurement: whole passes in a seeded order ----
    let n = progs.len();
    let mut rng = Rng::new(args.seed);
    // Program `i` uses seed slot `(pass + offset[i]) % SEED_SLOTS`.
    let offset: Vec<usize> = (0..n).map(|_| rng.below(SEED_SLOTS)).collect();
    let mut tr = Tracer::new(Instant::now());
    let mut samples: Vec<Sample> = Vec::new();
    let mut designs: BTreeMap<(usize, usize), Exact> = BTreeMap::new();
    let mut probes = Probes::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || start.elapsed() < Duration::from_secs_f64(args.seconds) {
        // A traced run alternates untraced and traced passes, so the
        // overhead is measured under the same conditions.
        let traced = args.trace && pass % 2 == 1;
        tr.set_enabled(traced);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for i in order {
            let p = &progs[i];
            let slot = (pass + offset[i]) % SEED_SLOTS;
            let seed = pnr_seed(i, slot);
            let probe = probes.tick();
            rep.attempted += 1;
            tr.set_request(rep.attempted);
            let root = tr.begin(Layer::Bench, p.name);
            let t = Instant::now();
            let r = cold_request(p, &target, seed, &mut tr);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.end(root);
            let reply = match r.and_then(|r| check_dram(p, &r.outcome).map(|()| r)) {
                Ok(r) => r,
                Err(e) => {
                    rep.fail(e);
                    continue;
                }
            };
            if !rep.exact_check(format!("{}@{seed}", p.name), reply.exact) {
                continue;
            }
            designs.insert((i, slot), reply.exact);
            samples.push(Sample::new(i, ms, traced, reply.stages, reply.exact.cycles, probe));
        }
        pass += 1;
    }

    probes.finish();
    normalize(&mut samples, &probes);

    // ---- end-to-end metrics (untraced samples) ----
    latency_metrics(rep, &samples, &probes);
    let cycles: Vec<f64> = designs.values().map(|e| e.cycles as f64).collect();
    rep.e2e.insert("design_cycles_geomean", geomean(&cycles));
    rep.e2e.insert("sim_kcycles_per_s", sim_kcycles_per_s(&samples));

    // ---- per-layer metrics (traced samples) ----
    let traced = |s: &Sample| s.traced;
    let sm = |f: fn(&Sample) -> f64| sum_of_medians(&samples, n, traced, f);
    rep.layer.insert("core.rtelm_ms", sm(|s| s.stages.rtelm));
    rep.layer.insert("core.lower_ms", sm(|s| s.stages.lower));
    rep.layer.insert("core.validate_ms", sm(|s| s.stages.validate));
    rep.layer.insert("core.assign_ms", sm(|s| s.stages.assign));
    rep.layer.insert("core.compile_ms", sm(|s| s.stages.compile));
    if multichip {
        rep.layer.insert("pnr.place_ms", sm(|s| s.stages.shard_sum));
        rep.layer.insert("shard.plan_ms", sm(|s| s.stages.plan));
        rep.layer.insert("shard.extract_ms", sm(|s| s.stages.extract));
        rep.layer.insert("pnr.system_ms", sm(|s| s.stages.system));
        rep.layer.insert("pnr.shard_ms_max", sm(|s| s.stages.shard_max));
        rep.layer.insert("sim.system_ms", sm(|s| s.stages.sim));
    } else {
        rep.layer.insert("pnr.place_ms", sm(|s| s.stages.place));
        rep.layer.insert("sim.active_ms", sm(|s| s.stages.sim));
    }
    exact_layer_metrics(rep, &designs, multichip);
    let place_ms = rep.layer["pnr.place_ms"];
    let iters = rep.layer["pnr.iterations"];
    rep.layer.insert("pnr.us_per_iteration", place_ms * 1e3 / iters.max(1.0));
    if args.trace {
        trace_metrics(rep, &tr, &samples, n);
        write_trace(args, &tr)?;
    }

    // ---- per-program rows ----
    for (i, p) in progs.iter().enumerate() {
        let ms: Vec<f64> = samples.iter().filter(|s| s.kind == i).map(|s| s.ms).collect();
        rep.rows.push(Row {
            name: p.name.to_string(),
            requests: ms.len(),
            p50_ms: median(&ms),
            total_ms: ms.iter().sum(),
            exact: designs.get(&(i, 0)).copied().unwrap_or_default(),
        });
    }
    Ok(())
}

/// Exact per-layer counts: per seed slot, summed over the programs, then
/// averaged over the slots.
pub fn exact_layer_metrics(
    rep: &mut Report,
    designs: &BTreeMap<(usize, usize), Exact>,
    multichip: bool,
) {
    let slots = designs.keys().map(|k| k.1).collect::<std::collections::BTreeSet<_>>().len().max(1);
    let avg = |f: &dyn Fn(&Exact) -> f64| designs.values().map(f).sum::<f64>() / slots as f64;
    rep.layer.insert("core.units", avg(&|e| e.units as f64));
    rep.layer.insert("core.streams", avg(&|e| e.streams as f64));
    rep.layer.insert("core.pcus", avg(&|e| e.pcus as f64));
    rep.layer.insert("core.pmus", avg(&|e| e.pmus as f64));
    rep.layer.insert("core.ags", avg(&|e| e.ags as f64));
    rep.layer.insert("pnr.iterations", avg(&|e| e.iterations as f64));
    rep.layer.insert("pnr.wirelength", avg(&|e| e.wirelength as f64));
    rep.layer.insert("pnr.max_link_use", avg(&|e| e.max_link_use as f64));
    rep.layer.insert("sim.cycles", avg(&|e| e.cycles as f64));
    rep.layer.insert("sim.firings", avg(&|e| e.firings as f64));
    if multichip {
        rep.layer.insert("shard.crossings", avg(&|e| e.crossings as f64));
        rep.layer.insert("shard.cut_traffic", avg(&|e| e.cut_traffic()));
        rep.layer.insert("shard.chips_used", avg(&|e| e.chips_used as f64));
        rep.layer.insert("shard.whole_on_chip0", avg(&|e| f64::from(u8::from(e.crossings == 0))));
    }
}
