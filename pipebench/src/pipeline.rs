//! One cold request through the public pipeline: compile → PnR →
//! simulate, on one chip or a multi-chip system, with every layer call
//! timed from outside (and wrapped in a span when tracing).
//!
//! Untraced requests call `compile` and `place_and_route_system` as a
//! user would. Traced requests call the stages one by one (rtelm → lower
//! → validate → optimize → assign; plan → extract → per-shard PnR) so
//! each gets its own span; `stagewise_matches` proves that path builds
//! the same graph, so the per-stage numbers describe the real program.

use crate::trace::{Layer, Tracer};
use crate::util::ms_since;
use plasticine_arch::{ChipSpec, SystemSpec};
use plasticine_sim::{simulate, simulate_system, SimConfig, SimOutcome};
use sara_core::artifact::{stable_hash_hex, vudfg_json};
use sara_core::assign::{self, AssignOptions, Assignment};
use sara_core::compile::{compile, Compiled, CompilerOptions};
use sara_core::profile::StallReason;
use sara_core::shard::{self, ShardPlan};
use sara_core::vudfg::Vudfg;
use sara_core::{lower, opt, opt_ir, vudfg_validate, CompileError};
use sara_ir::{Elem, MemId, MemKind, Program};
use sara_pnr::{place_and_route, place_and_route_system, PnrResult};
use std::time::Instant;

/// A program under test with its reference output.
#[derive(Debug)]
pub struct Prog {
    pub name: &'static str,
    pub program: Program,
    pub opts: CompilerOptions,
    /// Final memory images from the `sara_ir` reference interpreter.
    pub reference: Vec<Vec<Elem>>,
}

impl Prog {
    /// Build the reference with the interpreter; returns the program and
    /// the interpreter's wall time in ms.
    pub fn new(
        name: &'static str,
        program: Program,
        opts: CompilerOptions,
    ) -> Result<(Prog, f64), String> {
        let t = Instant::now();
        let reference = sara_ir::interp::Interp::new(&program)
            .run()
            .map_err(|e| format!("{name}: interp: {e}"))?
            .mem;
        let ms = ms_since(t);
        Ok((Prog { name, program, opts, reference }, ms))
    }
}

/// Where a request runs.
#[derive(Debug, Clone)]
pub enum Target {
    Chip(ChipSpec),
    System(SystemSpec),
}

impl Target {
    pub fn chip(&self) -> &ChipSpec {
        match self {
            Target::Chip(c) => c,
            Target::System(s) => &s.chip,
        }
    }
}

/// Counts that must repeat bit-for-bit for the same program and PnR
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Exact {
    pub units: u64,
    pub streams: u64,
    pub pcus: u64,
    pub pmus: u64,
    pub ags: u64,
    pub iterations: u64,
    pub wirelength: u64,
    pub max_link_use: u64,
    pub crossings: u64,
    /// `f64::to_bits` of the plan's estimated cut traffic.
    pub cut_traffic_bits: u64,
    pub chips_used: u64,
    pub cycles: u64,
    pub firings: u64,
}

impl Exact {
    pub const FIELDS: [&'static str; 13] = [
        "units",
        "streams",
        "pcus",
        "pmus",
        "ags",
        "iterations",
        "wirelength",
        "max_link_use",
        "crossings",
        "cut_traffic_bits",
        "chips_used",
        "cycles",
        "firings",
    ];

    pub fn values(&self) -> [u64; 13] {
        [
            self.units,
            self.streams,
            self.pcus,
            self.pmus,
            self.ags,
            self.iterations,
            self.wirelength,
            self.max_link_use,
            self.crossings,
            self.cut_traffic_bits,
            self.chips_used,
            self.cycles,
            self.firings,
        ]
    }

    pub fn cut_traffic(&self) -> f64 {
        f64::from_bits(self.cut_traffic_bits)
    }

    fn from_compiled(c: &Compiled) -> Exact {
        Exact {
            units: c.vudfg.units.len() as u64,
            streams: c.vudfg.streams.len() as u64,
            pcus: c.report.pcus as u64,
            pmus: c.report.pmus as u64,
            ags: c.report.ags as u64,
            chips_used: 1,
            ..Exact::default()
        }
    }
}

/// Per-stage wall times of one request, in ms (stages a request does
/// not run stay 0; the split compile stages are only timed when
/// tracing).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub rtelm: f64,
    pub lower: f64,
    pub validate: f64,
    pub assign: f64,
    pub compile: f64,
    pub place: f64,
    pub plan: f64,
    pub extract: f64,
    pub system: f64,
    pub shard_max: f64,
    pub shard_sum: f64,
    pub sim: f64,
}

impl Stages {
    /// Every stage time multiplied by `f`.
    pub fn scale(&mut self, f: f64) {
        for t in [
            &mut self.rtelm,
            &mut self.lower,
            &mut self.validate,
            &mut self.assign,
            &mut self.compile,
            &mut self.place,
            &mut self.plan,
            &mut self.extract,
            &mut self.system,
            &mut self.shard_max,
            &mut self.shard_sum,
            &mut self.sim,
        ] {
            *t *= f;
        }
    }
}

/// Result of one request, before its output check.
#[derive(Debug)]
pub struct Reply {
    pub exact: Exact,
    pub stages: Stages,
    pub outcome: SimOutcome,
}

/// Compile through the public driver, or stage by stage when tracing.
pub fn compile_traced(
    p: &Prog,
    chip: &ChipSpec,
    tr: &mut Tracer,
    st: &mut Stages,
) -> Result<Compiled, String> {
    let t = Instant::now();
    let c = if tr.enabled() {
        compile_stagewise(&p.program, chip, &p.opts, tr, st)
    } else {
        compile(&p.program, chip, &p.opts)
    };
    st.compile = ms_since(t);
    c.map_err(|e| format!("{}: compile: {e}", p.name))
}

/// `compile()` spelled out stage by stage, each stage in its own span.
fn compile_stagewise(
    p: &Program,
    chip: &ChipSpec,
    opts: &CompilerOptions,
    tr: &mut Tracer,
    st: &mut Stages,
) -> Result<Compiled, CompileError> {
    let id = tr.begin(Layer::Core, "core.compile");
    let r = (|| {
        let t = Instant::now();
        let rewritten;
        let (p, rtelm_removed) = if opts.opt.rtelm {
            let (q, s) = tr.span(Layer::Core, "core.rtelm", || opt_ir::rtelm(p));
            rewritten = q;
            (&rewritten, s.rtelm_removed)
        } else {
            (p, 0)
        };
        st.rtelm = ms_since(t);
        let t = Instant::now();
        let lowered = tr.span(Layer::Core, "core.lower", || lower::lower(p, chip, &opts.lower))?;
        st.lower = ms_since(t);
        let mut g = lowered.vudfg;
        let t = Instant::now();
        tr.span(Layer::Core, "core.validate", || vudfg_validate::validate(&g))
            .map_err(CompileError::Internal)?;
        st.validate = ms_since(t);
        let mut opt_stats =
            tr.span(Layer::Core, "core.optimize", || opt::optimize(&mut g, &opts.opt));
        opt_stats.rtelm_removed += rtelm_removed;
        let t = Instant::now();
        let assignment = tr.span(Layer::Core, "core.assign", || {
            assign::assign(
                &mut g,
                chip,
                &AssignOptions {
                    partition_algo: opts.partition_algo,
                    merge_algo: opts.merge_algo,
                    opt: opts.opt,
                    streams_per_ag: opts.streams_per_ag,
                },
            )
        })?;
        st.assign = ms_since(t);
        Ok(Compiled {
            vudfg: g,
            report: assignment.report,
            cmmc_stats: lowered.cmmc.stats,
            opt_stats,
            assignment,
        })
    })();
    tr.end(id);
    r
}

/// Stable content hash of a graph (the artifact codec's digest).
pub fn graph_hash(g: &Vudfg) -> String {
    stable_hash_hex(vudfg_json(g).pretty().as_bytes())
}

/// `place_and_route_system` spelled out: plan, extract, one PnR per
/// shard, then the same latency/FIFO write-back.
fn place_system_stagewise(
    g: &mut Vudfg,
    asg: &Assignment,
    sys: &SystemSpec,
    seed: u64,
    tr: &mut Tracer,
    st: &mut Stages,
) -> Result<(ShardPlan, Vec<PnrResult>), String> {
    let t = Instant::now();
    let plan = tr.span(Layer::Core, "shard.plan", || shard::plan_shards(g, asg, sys));
    st.plan = ms_since(t);
    let t = Instant::now();
    let mut shards = tr.span(Layer::Core, "shard.extract", || shard::extract_shards(g, asg, &plan));
    st.extract = ms_since(t);
    let mut chips = Vec::with_capacity(shards.len());
    for sh in &mut shards {
        let t = Instant::now();
        let r = tr
            .span(Layer::Pnr, "pnr.shard", || {
                place_and_route(
                    &mut sh.vudfg,
                    &sh.assignment,
                    &sys.chip,
                    seed.wrapping_add(u64::from(sh.chip)),
                )
            })
            .map_err(|e| format!("pnr: {e}"))?;
        let ms = ms_since(t);
        st.shard_max = st.shard_max.max(ms);
        st.shard_sum += ms;
        for (lsid, &(gsid, internal)) in sh.stream_map.iter().enumerate() {
            if internal {
                g.stream_mut(gsid).latency = sh.vudfg.streams[lsid].latency;
            }
        }
        chips.push(r);
    }
    for &sid in &plan.crossings {
        let hops = {
            let s = g.stream(sid);
            sys.route_hops(plan.chip_of[s.src.index()], plan.chip_of[s.dst.index()]).max(1)
        };
        let s = g.stream_mut(sid);
        s.latency = hops * sys.link.latency.max(1);
        s.depth = s.depth.max(sys.link.fifo_depth);
    }
    Ok((plan, chips))
}

/// Place-and-route a compiled design on the target, in place; returns
/// the routed graph and the shard plan (multi-chip targets only).
pub fn place_traced(
    p: &Prog,
    c: Compiled,
    target: &Target,
    seed: u64,
    tr: &mut Tracer,
    st: &mut Stages,
    ex: &mut Exact,
) -> Result<(Vudfg, Option<ShardPlan>), String> {
    let Compiled { vudfg: mut g, assignment: asg, .. } = c;
    let t = Instant::now();
    let (plan, chips) = match target {
        Target::Chip(chip) => {
            let r = tr
                .span(Layer::Pnr, "pnr.place", || place_and_route(&mut g, &asg, chip, seed))
                .map_err(|e| format!("{}: pnr: {e}", p.name))?;
            (None, vec![r])
        }
        Target::System(sys) if tr.enabled() => {
            let id = tr.begin(Layer::Pnr, "pnr.system");
            let r = place_system_stagewise(&mut g, &asg, sys, seed, tr, st);
            tr.end(id);
            let (plan, chips) = r.map_err(|e| format!("{}: {e}", p.name))?;
            (Some(plan), chips)
        }
        Target::System(sys) => {
            let r = place_and_route_system(&mut g, &asg, sys, seed)
                .map_err(|e| format!("{}: pnr: {e}", p.name))?;
            (Some(r.plan), r.chips)
        }
    };
    let ms = ms_since(t);
    match target {
        Target::Chip(_) => st.place = ms,
        Target::System(_) => st.system = ms,
    }
    ex.iterations = chips.iter().map(|r| r.iterations).sum();
    ex.wirelength = chips.iter().map(|r| r.wirelength).sum();
    ex.max_link_use = chips.iter().map(|r| u64::from(r.max_link_use)).max().unwrap_or(0);
    if let Some(plan) = &plan {
        ex.crossings = plan.crossings.len() as u64;
        ex.cut_traffic_bits = plan.cut_traffic.to_bits();
        let mut used = plan.chip_of.clone();
        used.sort_unstable();
        used.dedup();
        ex.chips_used = used.len() as u64;
    }
    Ok((g, plan))
}

/// Simulate a placed design on the target.
pub fn simulate_on(
    name: &str,
    g: &Vudfg,
    target: &Target,
    plan: Option<&ShardPlan>,
    cfg: &SimConfig,
    span: &str,
    tr: &mut Tracer,
) -> Result<SimOutcome, String> {
    tr.span(Layer::Sim, span, || match (target, plan) {
        (Target::System(sys), Some(plan)) => simulate_system(g, sys, plan, cfg),
        _ => simulate(g, target.chip(), cfg),
    })
    .map_err(|e| format!("{name}: sim: {e}"))
}

/// One cold request: compile → PnR → simulate (active scheduler).
pub fn cold_request(
    p: &Prog,
    target: &Target,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Reply, String> {
    let mut st = Stages::default();
    let c = compile_traced(p, target.chip(), tr, &mut st)?;
    let mut exact = Exact::from_compiled(&c);
    let (g, plan) = place_traced(p, c, target, seed, tr, &mut st, &mut exact)?;
    let t = Instant::now();
    let span = if plan.is_some() { "sim.system" } else { "sim.active" };
    let outcome = simulate_on(p.name, &g, target, plan.as_ref(), &SimConfig::default(), span, tr)?;
    st.sim = ms_since(t);
    exact.cycles = outcome.cycles;
    exact.firings = outcome.stats.firings;
    Ok(Reply { exact, stages: st, outcome })
}

/// Check that the stage-by-stage path builds exactly what the public
/// drivers build: the same compiled graph (by content hash) and the same
/// placed graph, shard plan and wirelength.
pub fn stagewise_matches(p: &Prog, target: &Target, seed: u64) -> Result<(), String> {
    let whole = compile(&p.program, target.chip(), &p.opts).map_err(|e| format!("compile: {e}"))?;
    let mut tr = Tracer::new(Instant::now());
    tr.set_enabled(true);
    let mut st = Stages::default();
    let staged = compile_traced(p, target.chip(), &mut tr, &mut st)?;
    let (h1, h2) = (graph_hash(&whole.vudfg), graph_hash(&staged.vudfg));
    if h1 != h2 || whole.report != staged.report {
        return Err(format!("{}: stagewise compile hash {h2} != compile() hash {h1}", p.name));
    }
    if let Target::System(sys) = target {
        let mut g = whole.vudfg.clone();
        let r = place_and_route_system(&mut g, &whole.assignment, sys, seed)
            .map_err(|e| format!("pnr: {e}"))?;
        let mut ex = Exact::default();
        let (g2, plan2) = place_traced(p, staged, target, seed, &mut tr, &mut st, &mut ex)?;
        if graph_hash(&g) != graph_hash(&g2)
            || Some(&r.plan) != plan2.as_ref()
            || r.wirelength() != ex.wirelength
        {
            return Err(format!(
                "{}: stagewise system PnR differs from place_and_route_system",
                p.name
            ));
        }
    }
    Ok(())
}

/// Compare every DRAM tensor with the interpreter's, with the float
/// tolerance of the differential test suite (reductions reassociate on
/// the fabric; integers stay exact).
pub fn check_dram(p: &Prog, out: &SimOutcome) -> Result<(), String> {
    for (mi, m) in p.program.mems.iter().enumerate() {
        if m.kind != MemKind::Dram {
            continue;
        }
        let mem = MemId(mi as u32);
        let expect = &p.reference[mem.index()];
        let got = out
            .dram_final
            .get(&mem)
            .ok_or_else(|| format!("{}: {}: no simulated DRAM image", p.name, m.name))?;
        if got.len() != expect.len() {
            return Err(format!(
                "{}: {}: {} simulated elements, {} expected",
                p.name,
                m.name,
                got.len(),
                expect.len()
            ));
        }
        for (i, (e, g)) in expect.iter().zip(got).enumerate() {
            let ok = match (e, g) {
                (Elem::F64(a), Elem::F64(b)) => {
                    let scale = a.abs().max(b.abs()).max(1.0);
                    (a - b).abs() <= 1e-9 * scale
                }
                _ => e.bit_eq(*g),
            };
            if !ok {
                return Err(format!("{}: {}[{i}]: interp {e:?} vs sim {g:?}", p.name, m.name));
            }
        }
    }
    Ok(())
}

/// VCU cycles stalled on DRAM (the `ramulator-lite` share) and all VCU
/// cycles, from a profile, as the `sarad` sim artifact counts them.
pub fn dram_blocked(out: &SimOutcome) -> Option<(u64, u64)> {
    let profile = out.profile.as_ref()?;
    let total: u64 = profile.vcus.iter().map(|v| v.total_cycles()).sum();
    let dram: u64 = profile.vcus.iter().map(|v| v.stalled(StallReason::DramBlocked)).sum();
    Some((dram, total))
}
