//! The simulation engine: builds runtime state from a compiled VUDFG and
//! advances it until the program completes (or deadlocks).
//!
//! One setup ([`run`]) serves both entry points: [`simulate`] runs a
//! graph on one chip, and [`crate::simulate_system`] runs it on a linked
//! multi-chip system, where every unit belongs to a chip with its own
//! DRAM controller and crossing streams pass through the inter-chip link
//! regulator ([`crate::link`]). Either way one of two cycle-for-cycle
//! equivalent schedulers advances the fabric:
//!
//! * the **dense** reference loop steps every unit on every cycle;
//! * the default **active-list** (wakeup-driven) loop steps a unit only
//!   when something it can observe changed — an input stream delivered a
//!   packet (on time, or late after link slip or a delay fault), an
//!   output stream freed capacity, a DRAM response arrived, or one of its
//!   own timers (AG run staleness) fired — and fast-forwards the clock
//!   over cycles with no scheduled events.
//!
//! The equivalence rests on one invariant of the unit steppers: stepping
//! a unit whose observable state (its own state plus the dst-visible /
//! src-visible state of adjacent streams) has not changed since its last
//! step is a no-op. All stepper phases check availability before mutating
//! anything, so a blocked unit stays blocked and side-effect-free until
//! one of the wake conditions above occurs.

use crate::fault::{FaultPlan, Injector};
use crate::link::Links;
use crate::packet::PacketArena;
use crate::profile::Profiler;
use crate::sanitize::Sanitizer;
use crate::stream::StreamRt;
use crate::units::{AgRt, CollRt, CompleteKind, Ctx, DistRt, SyncRt, UKind, Units, VcuRt, VmuRt};
use crate::watchdog;
use plasticine_arch::{ChipSpec, DramKind};
use ramulator_lite::{DramError, DramModelCfg, DramSim, DramStats, Response};
use sara_core::profile::SimProfile;
use sara_core::robust::{InvariantKind, SanitizerReport, WatchdogReport};
use sara_core::vudfg::{StreamKind, UnitKind, Vudfg};
use sara_ir::{Elem, MemId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Simulation limits, scheduler selection, and robustness options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Hard cycle limit.
    pub max_cycles: u64,
    /// Cycles without any progress before declaring deadlock.
    pub deadlock_window: u64,
    /// Step every unit on every cycle (the reference scheduler) instead
    /// of the event-driven active list. Outcomes are bit-identical either
    /// way; the dense path exists for equivalence testing and debugging.
    pub dense: bool,
    /// Collect a [`SimProfile`] (per-VCU cycle attribution, per-stream
    /// backpressure, DRAM timeline) into [`SimOutcome::profile`]. The
    /// collector only observes, so cycle counts are bit-identical with
    /// profiling on or off.
    pub profile: bool,
    /// Deterministic fault plan to inject (see [`crate::fault`]). `None`
    /// (the default) constructs no injector at all: simulation is
    /// bit-identical to a build without the feature.
    pub faults: Option<FaultPlan>,
    /// Run the per-cycle invariant sanitizer (see [`crate::sanitize`]).
    /// A pure observer — cycle counts are bit-identical on or off; a
    /// violation aborts with [`SimError::Sanitizer`].
    pub sanitize: bool,
    /// Fault mode only: cycles an issued DRAM request may go unanswered
    /// before the AG reissues it.
    pub dram_retry_timeout: u64,
    /// Fault mode only: reissue budget per request before the AG gives up
    /// with [`SimError::Dram`].
    pub dram_max_retries: u32,
    /// Replace the chip's DRAM model configuration (latency/bandwidth
    /// stress tests, e.g. watchdog false-positive checks).
    pub dram_override: Option<DramModelCfg>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_cycles: 50_000_000,
            deadlock_window: 50_000,
            dense: false,
            profile: false,
            faults: None,
            sanitize: false,
            dram_retry_timeout: 10_000,
            dram_max_retries: 3,
            dram_override: None,
        }
    }
}

impl SimConfig {
    /// The reference dense-scheduler configuration.
    pub fn dense() -> Self {
        SimConfig { dense: true, ..SimConfig::default() }
    }

    /// Default configuration with profiling enabled.
    pub fn profiled() -> Self {
        SimConfig { profile: true, ..SimConfig::default() }
    }

    /// Default configuration with the invariant sanitizer enabled.
    pub fn sanitized() -> Self {
        SimConfig { sanitize: true, ..SimConfig::default() }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No unit made progress for the configured window. `report` is the
    /// watchdog's structured wait-for diagnosis; `diagnostic` its
    /// human-readable rendering plus legacy stall/backpressure detail.
    Deadlock { cycle: u64, diagnostic: String, report: Box<WatchdogReport> },
    /// The cycle limit was reached.
    Timeout { cycle: u64 },
    /// A unit detected an inconsistency (address out of range, stream
    /// width mismatch, ...). Always indicates a compiler or model bug.
    Fault { cycle: u64, unit: String, message: String },
    /// The invariant sanitizer found a protocol violation.
    Sanitizer(Box<SanitizerReport>),
    /// A DRAM request exhausted its retry budget (fault mode), or the
    /// model surfaced a typed error.
    Dram { cycle: u64, unit: String, error: DramError },
    /// The configuration is invalid (e.g. a fault plan targeting a
    /// nonexistent stream or a non-VCU stall target).
    Config { message: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, diagnostic, .. } => {
                write!(f, "deadlock at cycle {cycle}:\n{diagnostic}")
            }
            SimError::Timeout { cycle } => write!(f, "timeout at cycle {cycle}"),
            SimError::Fault { cycle, unit, message } => {
                write!(f, "fault at cycle {cycle} in {unit}: {message}")
            }
            SimError::Sanitizer(r) => write!(f, "{r}"),
            SimError::Dram { cycle, unit, error } => {
                write!(f, "dram error at cycle {cycle} in {unit}: {error}")
            }
            SimError::Config { message } => write!(f, "invalid sim config: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate statistics.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total VCU firings.
    pub firings: u64,
    /// Firings per unit label.
    pub unit_firings: HashMap<String, u64>,
    /// DRAM model statistics.
    pub dram: DramStats,
    /// Total bytes moved by AG units (useful traffic).
    pub ag_bytes: u64,
    /// Compute utilization proxy: firings / (cycles × compute units).
    pub utilization: f64,
}

/// Outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Total cycles to completion.
    pub cycles: u64,
    /// Final contents of each DRAM tensor.
    pub dram_final: HashMap<MemId, Vec<Elem>>,
    /// Statistics.
    pub stats: SimStats,
    /// Observability record, present iff [`SimConfig::profile`] was set.
    pub profile: Option<SimProfile>,
}

impl SimOutcome {
    /// Final contents of a DRAM tensor as `f64`s.
    ///
    /// Returns an empty vector for a memory the program never mapped to
    /// DRAM (rather than panicking on the missing key).
    pub fn dram_f64(&self, mem: MemId) -> Vec<f64> {
        self.dram_final.get(&mem).map_or_else(Vec::new, |v| v.iter().map(|e| e.as_f64()).collect())
    }

    /// Final contents of a DRAM tensor as `i64`s.
    ///
    /// Returns an empty vector for a memory the program never mapped to
    /// DRAM (rather than panicking on the missing key).
    pub fn dram_i64(&self, mem: MemId) -> Vec<i64> {
        self.dram_final.get(&mem).map_or_else(Vec::new, |v| v.iter().map(|e| e.as_i64()).collect())
    }
}

/// Robustness-layer state threaded through the schedulers: the fault
/// injector, the sanitizer, and AG retry budgets. All `None`/inert by
/// default, in which case every hook below compiles down to a skipped
/// branch and the simulation is bit-identical to the pre-robustness
/// engine.
struct Robust {
    inj: Option<Injector>,
    san: Option<Sanitizer>,
    retry_timeout: u64,
    max_retries: u32,
}

impl Robust {
    /// Earliest future cycle the retry poller must run at (fault mode).
    fn next_retry_deadline(&self, units: &Units) -> Option<u64> {
        self.inj.as_ref()?;
        units.ags.iter().filter_map(|a| a.next_retry_deadline(self.retry_timeout)).min()
    }
}

/// The runtime state of one simulation, built by [`run`] for either
/// entry point and advanced by either scheduler.
struct Fabric<'a> {
    g: &'a Vudfg,
    cfg: &'a SimConfig,
    streams: Vec<StreamRt>,
    units: Units,
    /// Payload storage for every in-flight packet.
    arena: PacketArena,
    /// One DRAM controller per chip. All back the one word `image` (a
    /// partitioned-bandwidth, shared-address-space model).
    drams: Vec<DramSim>,
    /// Chip of every unit: the index of the controller its requests use.
    chip_of: Vec<u32>,
    image: Vec<Elem>,
    /// Streams that must drain before the program can finish.
    must_drain: Vec<bool>,
    prof: Option<Profiler>,
    robust: Robust,
    /// Inter-chip link regulator (multi-chip systems only).
    links: Option<Links>,
}

/// Shared setup of [`simulate`] and [`crate::simulate_system`]: build the
/// runtime state of `g` with `chips` DRAM controllers of technology
/// `dram` (`chip_of` assigns every unit one), advance it with the
/// scheduler `cfg` selects, and assemble the outcome.
pub(crate) fn run(
    g: &Vudfg,
    cfg: &SimConfig,
    dram: DramKind,
    chips: usize,
    chip_of: Vec<u32>,
    links: Option<Links>,
) -> Result<SimOutcome, SimError> {
    let streams = build_streams(g);
    let inj = match cfg.faults.as_ref() {
        Some(plan) => {
            let mut inj = Injector::new(plan, g).map_err(|message| SimError::Config { message })?;
            inj.prime(&streams);
            Some(inj)
        }
        None => None,
    };
    let mut f = Fabric {
        g,
        cfg,
        units: build_units(g),
        arena: PacketArena::new(),
        drams: (0..chips)
            .map(|_| match &cfg.dram_override {
                Some(c) => DramSim::with_cfg(c.clone()),
                None => DramSim::new(dram),
            })
            .collect(),
        chip_of,
        image: build_image(g),
        must_drain: build_must_drain(g),
        prof: cfg.profile.then(|| Profiler::new(g, &streams)),
        robust: Robust {
            inj,
            san: cfg.sanitize.then(|| Sanitizer::new(g)),
            retry_timeout: cfg.dram_retry_timeout,
            max_retries: cfg.dram_max_retries,
        },
        links,
        streams,
    };
    let now = if cfg.dense { run_dense(&mut f)? } else { run_active(&mut f)? };
    Ok(f.finish(now))
}

/// Simulate a compiled (and ideally placed-and-routed) VUDFG.
///
/// # Errors
///
/// Deadlock, timeout, or a unit fault (see [`SimError`]).
pub fn simulate(g: &Vudfg, chip: &ChipSpec, cfg: &SimConfig) -> Result<SimOutcome, SimError> {
    run(g, cfg, chip.dram, 1, vec![0; g.units.len()], None)
}

/// Runtime stream state, one per stream spec (token streams start with
/// their initial CMMC credits queued).
fn build_streams(g: &Vudfg) -> Vec<StreamRt> {
    g.streams
        .iter()
        .map(|s| {
            let init = match s.kind {
                StreamKind::Token { init } => init,
                _ => 0,
            };
            StreamRt::new(s.latency, s.depth, init)
        })
        .collect()
}

/// The flat DRAM word image, with every tensor's init copied in at its
/// base address.
fn build_image(g: &Vudfg) -> Vec<Elem> {
    let total_words = g.drams.iter().map(|d| (d.base / 4) as usize + d.words).max().unwrap_or(0);
    let mut image: Vec<Elem> = vec![Elem::F64(0.0); total_words];
    for d in &g.drams {
        let b = (d.base / 4) as usize;
        image[b..b + d.words].copy_from_slice(&d.init);
    }
    image
}

/// Runtime unit state (struct-of-arrays: a tag vector plus dense
/// per-kind vectors, each filled in unit-index order).
fn build_units(g: &Vudfg) -> Units {
    let mut units = Units::default();
    for (i, u) in g.units.iter().enumerate() {
        let tag = match &u.kind {
            UnitKind::Vcu(v) => {
                units.vcus.push(VcuRt::new(
                    v.clone(),
                    u.inputs.clone(),
                    u.outputs.clone(),
                    u.label.clone(),
                ));
                UKind::Vcu(units.vcus.len() as u32 - 1)
            }
            UnitKind::Vmu(v) => {
                units.vmus.push(VmuRt::new(
                    v.clone(),
                    u.inputs.clone(),
                    u.outputs.clone(),
                    u.label.clone(),
                ));
                UKind::Vmu(units.vmus.len() as u32 - 1)
            }
            UnitKind::Ag(a) => {
                units.ags.push(AgRt::new(
                    a.clone(),
                    u.inputs.clone(),
                    u.outputs.clone(),
                    u.label.clone(),
                    i,
                ));
                UKind::Ag(units.ags.len() as u32 - 1)
            }
            UnitKind::Sync(s) => {
                units.syncs.push(SyncRt {
                    spec: s.clone(),
                    inputs: u.inputs.clone(),
                    outputs: u.outputs.clone(),
                    fired: 0,
                });
                UKind::Sync(units.syncs.len() as u32 - 1)
            }
            UnitKind::XbarDist(d) => {
                units.dists.push(DistRt::new(d.clone(), u.inputs.clone(), u.outputs.clone()));
                UKind::Dist(units.dists.len() as u32 - 1)
            }
            UnitKind::XbarColl(c) => {
                units.colls.push(CollRt::new(c.clone(), u.inputs.clone(), u.outputs.clone()));
                UKind::Coll(units.colls.len() as u32 - 1)
            }
        };
        units.kind.push(tag);
    }
    units
}

/// Streams that must drain before the program can be considered
/// finished: anything feeding a passive unit (VMU, AG, crossbar, sync).
/// Streams into compute units may retain trailing epoch markers or
/// unused credits after the consumer completes; token streams retain
/// their initial credits.
fn build_must_drain(g: &Vudfg) -> Vec<bool> {
    g.streams
        .iter()
        .map(|s| {
            let token = matches!(s.kind, StreamKind::Token { .. });
            let dst_vcu = matches!(g.unit(s.dst).kind, UnitKind::Vcu(_));
            !token && !dst_vcu
        })
        .collect()
}

/// Sum of the DRAM controllers' statistics.
fn sum_stats(drams: &[DramSim]) -> DramStats {
    let mut agg = DramStats::default();
    for d in drams {
        let s = d.stats();
        agg.read_bytes += s.read_bytes;
        agg.write_bytes += s.write_bytes;
        agg.requests += s.requests;
        agg.row_hits += s.row_hits;
        agg.row_misses += s.row_misses;
    }
    agg
}

/// Route one DRAM response to its AG. Returns `true` when it matched an
/// outstanding run (progress; the unit should be woken). Duplicates from
/// the retry path are absorbed; an unknown response is a sanitizer
/// violation when sanitizing, silently dropped otherwise (pre-existing
/// behavior).
fn deliver_response(
    now: u64,
    r: &Response,
    units: &mut Units,
    robust: &mut Robust,
    progress: &mut u64,
) -> Result<bool, SimError> {
    let ui = (r.id >> 32) as usize;
    match units.ag_mut(ui) {
        Some(a) => match a.complete(r.id) {
            CompleteKind::Matched => {
                *progress += 1;
                Ok(true)
            }
            CompleteKind::Duplicate => {
                if let Some(san) = robust.san.as_mut() {
                    san.record(now, format!("duplicate response {:#x} absorbed", r.id));
                }
                Ok(false)
            }
            CompleteKind::Unknown => {
                if let Some(san) = robust.san.as_ref() {
                    return Err(SimError::Sanitizer(san.report(
                        now,
                        InvariantKind::DramResponseMismatch,
                        None,
                        a.label.clone(),
                        format!("response {:#x} matches no outstanding run", r.id),
                    )));
                }
                Ok(false)
            }
        },
        None => {
            if let Some(san) = robust.san.as_ref() {
                return Err(SimError::Sanitizer(san.report(
                    now,
                    InvariantKind::DramResponseMismatch,
                    None,
                    format!("unit {ui}"),
                    format!("response {:#x} addresses no AG", r.id),
                )));
            }
            Ok(false)
        }
    }
}

impl Fabric<'_> {
    /// Step unit `i` at `now`, then charge the packets it pushed onto
    /// crossing streams against the links (`slipped(t, s)` hears of each
    /// late delivery) and let the profiler observe it.
    fn step(
        &mut self,
        i: usize,
        now: u64,
        progress: &mut u64,
        slipped: impl FnMut(u64, usize),
    ) -> Result<(), SimError> {
        let before = *progress;
        let dram = &mut self.drams[self.chip_of[i] as usize];
        let mut ctx = Ctx { now, streams: &mut self.streams, arena: &mut self.arena, progress };
        self.units.step(i, &mut ctx, dram, &mut self.image).map_err(|message| SimError::Fault {
            cycle: now,
            unit: self.units.fault_label(i),
            message,
        })?;
        if let Some(links) = self.links.as_mut() {
            links.after_step(i, now, &mut self.streams, slipped);
        }
        if let Some(p) = self.prof.as_mut() {
            if let UKind::Vcu(k) = self.units.kind[i] {
                p.observe_vcu(i, now, &self.units.vcus[k as usize], *progress > before);
            }
            p.observe_unit_streams(i, now, &self.streams);
        }
        Ok(())
    }

    /// Tick every DRAM controller at `now`, collecting the completed
    /// responses into `responses` in chip order.
    fn tick_drams(&mut self, now: u64, responses: &mut Vec<Response>) {
        responses.clear();
        for d in &mut self.drams {
            d.tick(now, responses);
        }
        if let Some(p) = self.prof.as_mut() {
            p.observe_dram(now, sum_stats(&self.drams));
        }
    }

    fn dram_busy(&self) -> bool {
        self.drams.iter().any(DramSim::busy)
    }

    /// Fault mode: reissue overdue DRAM requests; typed error when a run
    /// exhausts its budget. Returns the number of reissues (progress).
    fn poll_ag_retries(&mut self, now: u64) -> Result<u64, SimError> {
        let r = &mut self.robust;
        if r.inj.is_none() {
            return Ok(0);
        }
        let mut reissued = 0u64;
        for a in self.units.ags.iter_mut() {
            let dram = &mut self.drams[self.chip_of[a.unit_index] as usize];
            match a.poll_retries(now, dram, r.retry_timeout, r.max_retries) {
                Ok(tags) => {
                    for (tag, nth) in tags {
                        reissued += 1;
                        if let Some(san) = r.san.as_mut() {
                            san.record(now, format!("retry #{nth} reissued request {tag:#x}"));
                        }
                    }
                }
                Err(error) => {
                    return Err(SimError::Dram { cycle: now, unit: a.label.clone(), error });
                }
            }
        }
        Ok(reissued)
    }

    /// Run end-of-cycle invariant checks (sanitize mode): stream and VMU
    /// invariants, then the DRAM-side checks once per controller.
    fn sanitize_cycle(&mut self, now: u64) -> Result<(), SimError> {
        let r = &mut self.robust;
        // Mirror injected-fault events into the report ring first so a
        // violation report names its own cause.
        if let (Some(inj), Some(san)) = (r.inj.as_mut(), r.san.as_mut()) {
            for (cycle, what) in inj.applied.drain(..) {
                san.record(cycle, what);
            }
        }
        let Some(san) = r.san.as_mut() else { return Ok(()) };
        san.check_streams(now, &self.streams).map_err(SimError::Sanitizer)?;
        // The SoA vectors are filled in unit-index order, so this matches
        // the old per-unit scan exactly.
        for v in &self.units.vmus {
            san.check_vmu(now, v).map_err(SimError::Sanitizer)?;
        }
        for d in &self.drams {
            san.check_dram(now, d).map_err(SimError::Sanitizer)?;
        }
        Ok(())
    }

    /// Completion test: all compute done, all AGs drained, every DRAM
    /// controller idle, and every must-drain stream empty (up to
    /// trailing markers).
    fn finished(&self) -> bool {
        let units = &self.units;
        let all_done = units.vcus.iter().all(|v| v.done) && units.ags.iter().all(|a| a.idle());
        all_done
            && !self.dram_busy()
            && self.streams.iter().zip(&self.must_drain).all(|(s, d)| !*d || s.is_drained())
    }

    /// Build the deadlock error: run the watchdog's wait-for analysis and
    /// append its rendering to the legacy stall/backpressure diagnostic.
    fn deadlock(&self, cycle: u64, stalled_for: u64) -> SimError {
        let (g, units, streams) = (self.g, &self.units, &self.streams);
        let report = watchdog::diagnose_waitfor(g, units, streams, cycle, stalled_for);
        let diagnostic =
            diagnose(units, streams) + &diagnose_streams(g, streams) + &report.to_string();
        SimError::Deadlock { cycle, diagnostic, report: Box::new(report) }
    }

    /// Final outcome assembly: per-tensor DRAM slices, aggregate
    /// statistics and the finished profile.
    fn finish(mut self, now: u64) -> SimOutcome {
        let profile = self.prof.take().map(|p| p.finish(now, &self.streams));
        let mut dram_final = HashMap::new();
        for d in &self.g.drams {
            let b = (d.base / 4) as usize;
            dram_final.insert(d.mem, self.image[b..b + d.words].to_vec());
        }
        let mut stats = SimStats { dram: sum_stats(&self.drams), ..SimStats::default() };
        let compute_units = self.units.vcus.len() as u64;
        for v in &self.units.vcus {
            stats.firings += v.firings;
            stats.unit_firings.insert(v.label.clone(), v.firings);
        }
        for a in &self.units.ags {
            stats.ag_bytes += a.bytes;
        }
        stats.utilization = if now > 0 && compute_units > 0 {
            stats.firings as f64 / (now as f64 * compute_units as f64)
        } else {
            0.0
        };
        SimOutcome { cycles: now, dram_final, stats, profile }
    }
}

/// Reference scheduler: tick every stream and step every unit, every
/// cycle. Returns the completion cycle.
fn run_dense(f: &mut Fabric) -> Result<u64, SimError> {
    let n = f.units.len();
    let mut now: u64 = 0;
    let mut last_progress_cycle: u64 = 0;
    let mut responses = Vec::new();
    loop {
        now += 1;
        if now > f.cfg.max_cycles {
            return Err(SimError::Timeout { cycle: now });
        }
        if let Some(inj) = f.robust.inj.as_mut() {
            inj.begin_cycle(now, &mut f.streams, &mut f.arena);
        }
        for s in f.streams.iter_mut() {
            s.tick(now);
        }
        let mut progress: u64 = 0;
        for i in 0..n {
            if let Some(inj) = f.robust.inj.as_ref() {
                // A stall fault freezes the unit: not stepped at all.
                if inj.unit_stalled(i, now).is_some() {
                    continue;
                }
            }
            f.step(i, now, &mut progress, |_, _| {})?;
        }
        progress += f.poll_ag_retries(now)?;
        f.tick_drams(now, &mut responses);
        if let Some(inj) = f.robust.inj.as_mut() {
            inj.filter_responses(now, &mut responses);
            responses.extend(inj.due_responses(now));
        }
        for r in &responses {
            deliver_response(now, r, &mut f.units, &mut f.robust, &mut progress)?;
        }
        if let Some(inj) = f.robust.inj.as_mut() {
            inj.end_cycle(now, &mut f.streams, &mut f.arena);
        }
        f.sanitize_cycle(now)?;
        if progress > 0 {
            last_progress_cycle = now;
        }
        if f.finished() {
            return Ok(now);
        }
        if now - last_progress_cycle > f.cfg.deadlock_window {
            // Slow-but-live is not deadlock: outstanding DRAM work always
            // completes (bumping progress), pending fault-plan state still
            // mutates the simulation, and an armed retry will fire. Only
            // when none of those can move does the watchdog declare.
            let live = f.dram_busy()
                || f.robust.inj.as_ref().is_some_and(|i| i.pending(now))
                || f.robust.next_retry_deadline(&f.units).is_some();
            if !live {
                return Err(f.deadlock(now, now - last_progress_cycle));
            }
        }
    }
}

/// Calendar-wheel event queue for (cycle, unit) wake events.
///
/// Nearly every wake the active scheduler schedules lands within a few
/// cycles (`now + 1` self/pop wakes, `now + latency` deliveries), so a
/// ring of per-cycle buckets with a non-empty bitmask turns the event
/// queue's push/pop from `O(log n)` heap operations into `O(1)` bucket
/// appends and a `trailing_zeros`. The rare far-out wake (AG staleness
/// flush, fault thaw) overflows into a heap and migrates into the ring
/// as the window advances. Duplicate entries are tolerated, exactly like
/// the `BinaryHeap` this replaces: draining one merely sets an `active`
/// flag.
struct EventWheel {
    /// Buckets cover cycles `[base, base + WHEEL)`; no event older than
    /// `base` may remain scheduled (the main loop always processes the
    /// earliest event first, which maintains this).
    base: u64,
    /// Bit `t % WHEEL` set iff the bucket for cycle `t` is non-empty.
    mask: u64,
    buckets: Vec<Vec<u32>>,
    /// Events at `>= base + WHEEL`, earliest first.
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

/// Wheel horizon; must stay 64 so `mask` is a single word.
const WHEEL: u64 = 64;

impl EventWheel {
    fn new() -> Self {
        EventWheel {
            base: 0,
            mask: 0,
            buckets: (0..WHEEL).map(|_| Vec::new()).collect(),
            far: BinaryHeap::new(),
        }
    }

    #[inline]
    fn push(&mut self, t: u64, u: usize) {
        debug_assert!(t >= self.base);
        if t < self.base + WHEEL {
            let slot = (t % WHEEL) as usize;
            self.buckets[slot].push(u as u32);
            self.mask |= 1 << slot;
        } else {
            self.far.push(Reverse((t, u as u32)));
        }
    }

    /// Earliest scheduled wake cycle, if any.
    #[inline]
    fn next_time(&self) -> Option<u64> {
        let near = if self.mask != 0 {
            let rot = self.mask.rotate_right((self.base % WHEEL) as u32);
            Some(self.base + rot.trailing_zeros() as u64)
        } else {
            None
        };
        match (near, self.far.peek().map(|&Reverse((t, _))| t)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Slide the window to `now` (callers guarantee nothing earlier is
    /// still scheduled) and pull far events that now fall inside it.
    fn advance(&mut self, now: u64) {
        debug_assert!(self.next_time().is_none_or(|t| t >= now));
        self.base = now;
        while let Some(&Reverse((t, u))) = self.far.peek() {
            if t >= now + WHEEL {
                break;
            }
            self.far.pop();
            let slot = (t % WHEEL) as usize;
            self.buckets[slot].push(u);
            self.mask |= 1 << slot;
        }
    }

    /// Collect every unit waking at cycle `now` into `alist` (deduped via
    /// the `active` flags). Requires a prior `advance(now)` so far events
    /// for `now` have migrated in.
    fn drain_now(&mut self, now: u64, active: &mut [bool], alist: &mut Vec<u32>) {
        let slot = (now % WHEEL) as usize;
        if self.mask & (1 << slot) != 0 {
            self.mask &= !(1 << slot);
            for &u in &self.buckets[slot] {
                if !active[u as usize] {
                    active[u as usize] = true;
                    alist.push(u);
                }
            }
            self.buckets[slot].clear();
        }
    }
}

/// Wakeup-driven scheduler, cycle-for-cycle equivalent to [`run_dense`].
///
/// A unit is stepped at cycle `t` iff an event targets it at `t`:
///
/// * **delivery** — a packet pushed to one of its input streams arrives
///   (push time + stream latency, or later when link slip or a delay
///   fault holds the packet in flight);
/// * **capacity** — one of its output streams was popped. The dense loop
///   steps units in index order, so a pop by a lower-indexed consumer is
///   visible to the producer the *same* cycle while a pop by a
///   higher-indexed one is visible the *next* cycle — the wake targets
///   the matching cycle;
/// * **self** — its previous step changed anything (it may be able to do
///   more next cycle, e.g. a VMU serving one port op per cycle);
/// * **DRAM** — a response for one of its requests retired, or its
///   coalescing run hits the staleness deadline;
/// * **start** — every unit is stepped at cycle 1 (init tokens).
///
/// When no event targets the current cycle the clock fast-forwards to the
/// next event (bounded by the deadlock deadline and the cycle limit), and
/// streams are ticked lazily just before their consumer steps.
fn run_active(f: &mut Fabric) -> Result<u64, SimError> {
    let n = f.units.len();
    let cfg = f.cfg;
    if n == 0 {
        // Degenerate graph: the dense loop completes (or deadlocks) on
        // cycle 1 with nothing to step.
        return if f.finished() {
            Ok(1)
        } else {
            Err(f.deadlock(cfg.deadlock_window + 1, cfg.deadlock_window + 1))
        };
    }

    // Static adjacency: per-unit input/output stream indices, per-stream
    // endpoints and latency.
    let g = f.g;
    let unit_inputs: Vec<Vec<usize>> =
        g.units.iter().map(|u| u.inputs.iter().map(|s| s.index()).collect()).collect();
    let unit_outputs: Vec<Vec<usize>> = g
        .units
        .iter()
        .map(|u| u.outputs.iter().flat_map(|p| p.streams.iter().map(|s| s.index())).collect())
        .collect();
    let src_of: Vec<usize> = g.streams.iter().map(|s| s.src.index()).collect();
    let dst_of: Vec<usize> = g.streams.iter().map(|s| s.dst.index()).collect();
    let lat_of: Vec<u64> = f.streams.iter().map(|s| s.latency()).collect();

    // Future wake events (cycle, unit). Duplicate entries are tolerated:
    // draining one merely sets an `active` flag.
    let mut events = EventWheel::new();
    // Cycle-1 start events for every unit, bucketed in one reservation.
    events.buckets[1].extend(0..n as u32);
    events.mask |= 1 << 1;
    // Units to step in the cycle being processed (scanned in index order;
    // same-cycle wakes may only target not-yet-scanned higher indices).
    let mut active = vec![false; n];
    // This round's wake list (indices into `units`), sorted before the
    // stepping pass; same-cycle wakes insert into the unprocessed tail.
    let mut alist: Vec<u32> = Vec::with_capacity(n);
    // VCUs not yet done — an O(1) guard in front of the full
    // `finished()` scan, which otherwise walks every unit and stream on
    // every processed round.
    let mut undone = f.units.vcus.iter().filter(|v| !v.done).count();
    // Next DRAM completion on any chip, valid after every DRAM tick.
    let mut dram_next: Option<u64> = None;

    // Last observed per-stream push/free counters, for post-step wake
    // inference. A stream's `pushed` only changes during its producer's
    // step and its `freed` only during its consumer's step, and both
    // endpoints' streams are compared (and re-synced) right after every
    // step — so outside a step these always equal the live counters, and
    // a difference after a step identifies exactly the streams that step
    // touched. Global arrays instead of per-step snapshots: no per-step
    // clear/fill churn.
    let mut seen_pushed: Vec<u64> = f.streams.iter().map(|s| s.pushed).collect();
    let mut seen_freed: Vec<u64> = f.streams.iter().map(|s| s.freed).collect();

    let mut now: u64;
    let mut last_progress_cycle: u64 = 0;
    let mut responses: Vec<Response> = Vec::new();

    let mut prev_now: u64 = 0;
    loop {
        // ---- pick the next cycle with any event ----
        let next_unit_event = events.next_time();
        let inj_next = f.robust.inj.as_ref().and_then(|i| i.next_cycle(prev_now));
        let retry_next = f.robust.next_retry_deadline(&f.units);
        let target = [next_unit_event, dram_next, inj_next, retry_next].into_iter().flatten().min();
        // The dense loop keeps ticking through event-free cycles, so it
        // reaches the no-progress deadline (or the cycle limit) even when
        // nothing is scheduled; reproduce both outcomes exactly.
        let deadline = last_progress_cycle + cfg.deadlock_window + 1;
        let target = target.unwrap_or(deadline);
        if target > deadline {
            // Slow-but-live is not deadlock: an outstanding DRAM
            // completion, a pending fault-plan mutation, or an armed retry
            // past the deadline means the fabric can still move — jump to
            // it instead of declaring (the dense loop defers identically
            // via its `dram_busy()` guard).
            let live = dram_next.is_some() || inj_next.is_some() || retry_next.is_some();
            if !live {
                return if deadline > cfg.max_cycles {
                    Err(SimError::Timeout { cycle: cfg.max_cycles + 1 })
                } else {
                    Err(f.deadlock(deadline, deadline - last_progress_cycle))
                };
            }
        }
        if target > cfg.max_cycles {
            return Err(SimError::Timeout { cycle: cfg.max_cycles + 1 });
        }
        now = target;

        // ---- apply cycle-armed faults (credit leak/steal) ----
        if let Some(inj) = f.robust.inj.as_mut() {
            for s in inj.begin_cycle(now, &mut f.streams, &mut f.arena) {
                // A mutated token edge is observable at both endpoints.
                for u in [dst_of[s], src_of[s]] {
                    if !active[u] {
                        active[u] = true;
                        alist.push(u as u32);
                    }
                }
            }
        }

        // ---- collect this cycle's active set ----
        let mut stepped_any = false;
        events.advance(now);
        events.drain_now(now, &mut active, &mut alist);

        // ---- step active units in index order ----
        let mut progress: u64 = 0;
        alist.sort_unstable();
        let mut pos = 0;
        while pos < alist.len() {
            let i = alist[pos] as usize;
            pos += 1;
            active[i] = false;
            if let Some(inj) = f.robust.inj.as_ref() {
                // A stall fault freezes the unit; re-arm its wake for the
                // thaw cycle so no wakeup is lost.
                if let Some(thaw) = inj.unit_stalled(i, now) {
                    events.push(thaw, i);
                    continue;
                }
            }
            stepped_any = true;

            // Lazy delivery: packets whose arrival time has passed become
            // visible exactly as the dense loop's global tick would make
            // them (ticking does not affect capacity, so producers never
            // need their output streams ticked).
            for &s in &unit_inputs[i] {
                f.streams[s].tick(now);
            }
            let progress_before = progress;
            let was_done = f.units.vcu(i).is_some_and(|v| v.done);

            // A slipped packet wakes its consumer at its delayed delivery.
            f.step(i, now, &mut progress, |t, s| events.push(t, dst_of[s]))?;

            let units = &f.units;
            let streams = &f.streams;
            if !was_done && units.vcu(i).is_some_and(|v| v.done) {
                undone -= 1;
            }

            // A done VCU's step is unconditionally a no-op (`done` is
            // sticky), so wakes targeting one are dropped. With the
            // profiler attached, wakes are kept so per-cycle observations
            // match the unpruned schedule.
            let prune = f.prof.is_none();
            let mut changed = progress > progress_before;
            // Pushes on output streams wake the consumer at delivery time.
            for &s in &unit_outputs[i] {
                if streams[s].pushed != seen_pushed[s] {
                    seen_pushed[s] = streams[s].pushed;
                    changed = true;
                    let dst = dst_of[s];
                    if !(prune && units.vcu(dst).is_some_and(|v| v.done)) {
                        events.push(now + lat_of[s], dst);
                    }
                }
            }
            // Pops on input streams free capacity for the producer
            // (`freed` counts pops plus marker skips, exactly the
            // capacity-releasing actions).
            for &s in &unit_inputs[i] {
                if streams[s].pushed != seen_pushed[s] {
                    // Self-loop push (defensive; VUDFGs are bipartite).
                    seen_pushed[s] = streams[s].pushed;
                    changed = true;
                    events.push(now + lat_of[s], dst_of[s]);
                }
                if streams[s].freed != seen_freed[s] {
                    seen_freed[s] = streams[s].freed;
                    changed = true;
                    let src = src_of[s];
                    if !(prune && units.vcu(src).is_some_and(|v| v.done)) {
                        if src > i {
                            // Same-cycle wake: insert into the unprocessed
                            // tail of the wake list, keeping it sorted.
                            if !active[src] {
                                active[src] = true;
                                let at =
                                    pos + alist[pos..].partition_point(|&x| (x as usize) < src);
                                alist.insert(at, src as u32);
                            }
                        } else {
                            events.push(now + 1, src);
                        }
                    }
                }
            }
            if let Some(a) = units.ag(i) {
                // Queue-full retry: the post-step DRAM tick always drains
                // the request queue, so the next cycle can issue.
                if a.wants_issue() {
                    events.push(now + 1, i);
                }
                // The staleness flush is evaluated inside the step, so the
                // unit must be stepped when the run's deadline passes.
                if let Some(t) = a.flush_due() {
                    events.push(t.max(now + 1), i);
                }
            }
            if changed && !(prune && units.vcu(i).is_some_and(|v| v.done)) {
                events.push(now + 1, i);
            }
        }
        alist.clear();

        // ---- end-of-cycle packet faults ----
        if let Some(inj) = f.robust.inj.as_mut() {
            let wakes = inj.end_cycle(now, &mut f.streams, &mut f.arena);
            for s in wakes.streams {
                // Dropped/corrupted packets change what both endpoints
                // can observe next cycle (capacity freed, payload
                // changed); spurious wakes are harmless no-ops.
                events.push(now + 1, src_of[s]);
                events.push(now + 1, dst_of[s]);
            }
            for (t, s) in wakes.deliveries {
                events.push(t.max(now + 1), dst_of[s]);
            }
        }

        // ---- AG retry recovery (fault mode) ----
        let reissued = f.poll_ag_retries(now)?;
        progress += reissued;

        // ---- DRAM ----
        // Requests are only pushed during unit steps (and retry polls) and
        // ticking schedules the whole queue, so ticking on step cycles
        // plus completion cycles reproduces the dense loop's every-cycle
        // tick exactly (idle ticks are no-ops).
        if stepped_any || reissued > 0 || dram_next == Some(now) {
            f.tick_drams(now, &mut responses);
            if let Some(inj) = f.robust.inj.as_mut() {
                inj.filter_responses(now, &mut responses);
            }
            for r in &responses {
                let ui = (r.id >> 32) as usize;
                if deliver_response(now, r, &mut f.units, &mut f.robust, &mut progress)? {
                    events.push(now + 1, ui);
                }
            }
            dram_next = f.drams.iter().filter_map(DramSim::next_completion_time).min();
        }
        // Fault-delayed responses re-deliver on their own schedule, DRAM
        // tick or not (their deadline is folded into `target`).
        let due = f.robust.inj.as_mut().map(|i| i.due_responses(now)).unwrap_or_default();
        for r in due {
            let ui = (r.id >> 32) as usize;
            if deliver_response(now, &r, &mut f.units, &mut f.robust, &mut progress)? {
                events.push(now + 1, ui);
            }
        }

        f.sanitize_cycle(now)?;
        if progress > 0 {
            last_progress_cycle = now;
        }

        // Completion and deadlock can only change state on processed
        // cycles, so checking here matches the dense per-cycle check.
        // (`finished` requires every VCU done, so the O(1) `undone` guard
        // skips the full scan until the endgame.)
        if undone == 0 && f.finished() {
            return Ok(now);
        }
        if now - last_progress_cycle > cfg.deadlock_window {
            let live = dram_next.is_some()
                || f.robust.inj.as_ref().is_some_and(|i| i.pending(now))
                || f.robust.next_retry_deadline(&f.units).is_some();
            if !live {
                return Err(f.deadlock(now, now - last_progress_cycle));
            }
        }
        prev_now = now;
    }
}

fn diagnose_streams(g: &Vudfg, streams: &[StreamRt]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, s) in streams.iter().enumerate() {
        if !s.can_push() {
            let spec = &g.streams[i];
            let _ = writeln!(
                out,
                "  FULL s{i} {} -> {} [{}] occ {}",
                g.unit(spec.src).label,
                g.unit(spec.dst).label,
                spec.label,
                s.occupancy()
            );
        }
    }
    out
}

fn diagnose(units: &Units, streams: &[StreamRt]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut shown = 0;
    for v in &units.vcus {
        if !v.done {
            let _ =
                writeln!(out, "  {} stalled on '{}' after {} firings", v.label, v.stall, v.firings);
            shown += 1;
            if shown > 200 {
                let _ = writeln!(out, "  ...");
                break;
            }
        }
    }
    let backed: usize = streams.iter().filter(|s| !s.can_push()).count();
    let _ = writeln!(out, "  {} streams backpressured", backed);
    out
}
