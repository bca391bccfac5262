//! The service core: a staged compile → place → simulate pipeline where
//! every stage is keyed by a stable content hash of its inputs and
//! served from cache when possible.
//!
//! ## Key derivation
//!
//! ```text
//! compile_key = H(domain, program_canon, options_canon, system_canon)
//! place_key   = H(domain, compile_key, pnr_seed)
//! sim_key     = H(domain, place_key, scheduler)
//! ```
//!
//! Any change to any field of the request tuple changes exactly the
//! stage keys downstream of it: a new PnR seed reuses the compile
//! artifact but re-places; a scheduler change reuses the placement but
//! re-simulates. The system canon ([`plasticine_arch::SystemSpec::canon`]) is
//! field-complete over the *whole* topology — chip geometry, unit
//! capabilities, DRAM technology, chip count, grid shape, and every
//! link parameter — so two configurations that happen to share a
//! display name can never alias in the cache (`tests/cache.rs` checks
//! each field individually). Multi-chip requests run the sharded
//! pipeline: the place artifact carries the shard plan alongside the
//! routed graph, and the sim stage runs the linked multi-chip
//! simulation.
//!
//! ## Cache layers
//!
//! * **In-memory index** — full `Compiled` objects, placed graphs, and
//!   sim artifacts (including *negative* entries: a compile or PnR
//!   failure is cached as its error string, so a hopeless point is
//!   never re-attempted).
//! * **On-disk store** — placed VUDFGs and sim artifacts in the
//!   [`Store`](crate::store::Store), content-verified at read time; a
//!   hash mismatch counts as corruption and forces a recompute, never a
//!   serve. The compile stage is memory-only: a restarted service
//!   replays the placement from disk, which is all a downstream miss
//!   needs, so a persisted compile artifact would never be read.
//!
//! All three stages run the same lookup-or-compute routine
//! (`Engine::cached`); they differ only in their compute step and in
//! whether they have a store codec.
//!
//! ## Single-flight
//!
//! Concurrent requests for the same stage key coalesce: one computes,
//! the rest wait on the per-key flight lock and then read the fresh
//! cache entry. The `coalesced` stat counts the waiters.
//!
//! ## Fault discipline
//!
//! The engine never lets the artifact store fail a request:
//!
//! * a store **write** failure (disk full, permissions, budget refusal,
//!   injected fault) downgrades to compute-without-cache — the computed
//!   result is still served and the `degraded` counter bumps;
//! * a store **read** failure that is not corruption (transient I/O)
//!   likewise degrades to a recompute;
//! * verification failures quarantine the artifact and recompute
//!   (`corrupt_detected`), never serve.
//!
//! Per-request [`Deadline`]s are enforced *between* stages: a request
//! that runs out of time gets a typed `timeout: ...` error, but every
//! stage that completed stays cached, so a retry resumes from the last
//! finished stage instead of starting over. Timeouts are never
//! negatively cached.

use crate::store::{Store, StoreFaults, StoreRead};
use plasticine_sim::{SimConfig, SimOutcome};
use sara_core::artifact::{
    compile_key, shard_plan_from_json, shard_plan_json, vudfg_from_json, vudfg_json, StableHasher,
};
use sara_core::compile::{compile, Compiled};
use sara_core::report::profile_scalars;
use sara_core::shard::ShardPlan;
use sara_core::vudfg::Vudfg;
use sara_dse::{EvalPoint, Evaluator, KnobConfig};
use sara_util::Json;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every engine timeout error starts with this prefix; the server maps
/// it to the typed `"code": "timeout"` response.
pub const TIMEOUT_PREFIX: &str = "timeout: ";

/// Simulator scheduler selector — part of the sim-stage cache key
/// (cycle counts are identical across the two, but the service proves
/// that rather than assuming it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Wakeup-driven active-list scheduler (default).
    Active,
    /// Dense reference scheduler.
    Dense,
}

impl Scheduler {
    /// Stable protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Active => "active",
            Scheduler::Dense => "dense",
        }
    }

    /// Parse a protocol name.
    ///
    /// # Errors
    ///
    /// On anything other than `"active"` or `"dense"`.
    pub fn parse(s: &str) -> Result<Scheduler, String> {
        match s {
            "active" => Ok(Scheduler::Active),
            "dense" => Ok(Scheduler::Dense),
            other => Err(format!("unknown scheduler {other:?} (active|dense)")),
        }
    }

    /// Simulator configuration for this scheduler, with profiling on:
    /// profiling never changes cycle counts and the profile scalars are
    /// part of the sim artifact.
    fn config(self) -> SimConfig {
        SimConfig { profile: true, dense: self == Scheduler::Dense, ..SimConfig::default() }
    }
}

/// A per-request compute deadline, checked at stage boundaries. Work
/// completed before the deadline stays cached, so a retried request
/// resumes from the last finished stage.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline: stages always run.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// A deadline `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Deadline {
        Deadline(Some(Instant::now() + Duration::from_millis(ms)))
    }

    /// Whether the deadline has passed.
    pub fn exceeded(self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }

    /// Typed timeout error if the deadline has passed before `stage`
    /// could start.
    fn check(self, stage: &str) -> Result<(), String> {
        if self.exceeded() {
            Err(format!(
                "{TIMEOUT_PREFIX}deadline exceeded before the {stage} stage \
                 (completed stages are cached; retry resumes from there)"
            ))
        } else {
            Ok(())
        }
    }
}

/// The three stage keys derived from one request tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKeys {
    pub compile: String,
    pub place: String,
    pub sim: String,
}

/// Derive the stage keys for a knob configuration and scheduler.
///
/// The compile key is [`sara_core::artifact::compile_key`]: it hashes
/// the *field-complete* [`plasticine_arch::SystemSpec::canon`] of the target (with any
/// link-knob overrides applied), never just a display name — so cached
/// artifacts cannot alias across topologies that differ in chip count,
/// grid shape, link latency/bandwidth/FIFO depth, or any per-chip
/// capability.
///
/// # Errors
///
/// When the knobs name an unknown chip/system or cannot build a
/// program.
pub fn stage_keys(knobs: &KnobConfig, scheduler: Scheduler) -> Result<StageKeys, String> {
    let program = knobs.build_program()?;
    let system = knobs.system_spec()?;
    let compile = compile_key(&program, &knobs.compiler_options(), &system);
    let mut h = StableHasher::new();
    h.str("sarad-place-v2").str(&compile).u64(knobs.pnr_seed);
    let place = h.hex();
    let mut h = StableHasher::new();
    h.str("sarad-sim-v1").str(&place).str(scheduler.name());
    Ok(StageKeys { compile, place, sim: h.hex() })
}

/// The cached result of one simulation stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArtifact {
    /// Cycles to completion (bit-identical to a fresh run).
    pub cycles: u64,
    /// Total unit firings (cheap cross-check of bit-identity).
    pub firings: u64,
    /// Fraction of VCU cycles stalled on DRAM.
    pub dram_blocked_frac: f64,
    /// Human-readable bottleneck summary.
    pub bottleneck: String,
}

impl SimArtifact {
    fn from_outcome(out: &SimOutcome) -> Result<SimArtifact, String> {
        let profile = out
            .profile
            .as_ref()
            .ok_or_else(|| "sim: profiled run returned no profile".to_string())?;
        let (dram_blocked_frac, bottleneck) = profile_scalars(profile);
        Ok(SimArtifact {
            cycles: out.cycles,
            firings: out.stats.firings,
            dram_blocked_frac,
            bottleneck,
        })
    }

    fn to_json(&self) -> Json {
        Json::object()
            .set("cycles", i64::try_from(self.cycles).unwrap_or(i64::MAX))
            .set("firings", i64::try_from(self.firings).unwrap_or(i64::MAX))
            .set("dram_blocked_frac", self.dram_blocked_frac)
            .set("bottleneck", self.bottleneck.as_str())
    }

    fn from_json(v: &Json) -> Result<SimArtifact, String> {
        Ok(SimArtifact {
            cycles: v.get("cycles").and_then(Json::as_u64).ok_or("sim artifact: cycles")?,
            firings: v.get("firings").and_then(Json::as_u64).ok_or("sim artifact: firings")?,
            dram_blocked_frac: v
                .get("dram_blocked_frac")
                .and_then(Json::as_f64)
                .ok_or("sim artifact: dram_blocked_frac")?,
            bottleneck: v
                .get("bottleneck")
                .and_then(Json::as_str)
                .ok_or("sim artifact: bottleneck")?
                .to_string(),
        })
    }
}

/// Monotonic service counters. All atomics: read without locking.
#[derive(Debug, Default)]
pub struct Stats {
    pub compile_hits: AtomicU64,
    pub compile_misses: AtomicU64,
    pub place_hits: AtomicU64,
    pub place_misses: AtomicU64,
    pub sim_hits: AtomicU64,
    pub sim_misses: AtomicU64,
    /// Real compiler invocations (the number the warm-autotune
    /// acceptance test pins to zero on a repeat run).
    pub compiles_run: AtomicU64,
    pub pnrs_run: AtomicU64,
    pub sims_run: AtomicU64,
    /// On-disk artifacts served after hash verification.
    pub disk_hits: AtomicU64,
    /// On-disk artifacts that failed verification and were recomputed.
    pub corrupt_detected: AtomicU64,
    /// Requests that waited on another in-flight computation of the
    /// same key instead of redoing the work.
    pub coalesced: AtomicU64,
    /// Requests rejected by queue backpressure (maintained by the
    /// server front end).
    pub rejected: AtomicU64,
    /// Requests that completed *without* the cache because a store read
    /// or write failed (disk full, permissions, budget refusal): the
    /// result was still served, just not persisted.
    pub degraded: AtomicU64,
    /// Requests cut off by their deadline between stages.
    pub timeouts: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Render every counter.
    pub fn json(&self) -> Json {
        Json::object()
            .set("compile_hits", count(&self.compile_hits))
            .set("compile_misses", count(&self.compile_misses))
            .set("place_hits", count(&self.place_hits))
            .set("place_misses", count(&self.place_misses))
            .set("sim_hits", count(&self.sim_hits))
            .set("sim_misses", count(&self.sim_misses))
            .set("compiles_run", count(&self.compiles_run))
            .set("pnrs_run", count(&self.pnrs_run))
            .set("sims_run", count(&self.sims_run))
            .set("disk_hits", count(&self.disk_hits))
            .set("corrupt_detected", count(&self.corrupt_detected))
            .set("coalesced", count(&self.coalesced))
            .set("rejected", count(&self.rejected))
            .set("degraded", count(&self.degraded))
            .set("timeouts", count(&self.timeouts))
    }
}

/// A counter's current value as a JSON integer (saturating).
fn count(c: &AtomicU64) -> i64 {
    i64::try_from(c.load(Ordering::Relaxed)).unwrap_or(i64::MAX)
}

/// Per-stage progress callback: `(stage, outcome)` where outcome is
/// `"hit"`, `"disk-hit"`, or `"miss"`.
pub type Progress<'a> = &'a mut dyn FnMut(&str, &str);

/// A no-op progress sink.
pub fn no_progress() -> impl FnMut(&str, &str) {
    |_: &str, _: &str| {}
}

/// A placement artifact: the routed graph plus, for multi-chip systems,
/// the shard plan the linked simulation needs to model chip crossings.
#[derive(Debug, Clone, PartialEq)]
pub struct Placed {
    /// The placed-and-routed VUDFG (crossing streams carry their link
    /// latencies and widened FIFO depths for multi-chip systems).
    pub vudfg: Vudfg,
    /// Where every unit lives; `None` for single-chip placements.
    pub plan: Option<ShardPlan>,
}

impl Placed {
    fn to_json(&self) -> Json {
        let doc = Json::object().set("vudfg", vudfg_json(&self.vudfg));
        match &self.plan {
            Some(p) => doc.set("plan", shard_plan_json(p)),
            None => doc,
        }
    }

    fn from_json(v: &Json) -> Result<Placed, String> {
        let vudfg = vudfg_from_json(v.get("vudfg").ok_or("place artifact: missing vudfg")?)?;
        let plan = match v.get("plan") {
            None | Some(Json::Null) => None,
            Some(p) => Some(shard_plan_from_json(p)?),
        };
        Ok(Placed { vudfg, plan })
    }
}

/// A stage's in-memory index: key → artifact or cached failure.
type Memo<T> = Mutex<HashMap<String, Result<T, String>>>;

/// How a persisted stage's artifact round-trips through the store.
struct Codec<T> {
    encode: fn(&T) -> Json,
    decode: fn(&Json) -> Result<T, String>,
}

/// One cached pipeline stage as [`Engine::cached`] sees it.
struct Stage<'a, T> {
    name: &'static str,
    memo: &'a Memo<T>,
    hits: &'a AtomicU64,
    misses: &'a AtomicU64,
    /// `None` keeps the stage memory-only: no pin, load or save.
    codec: Option<Codec<T>>,
}

/// The cached pipeline engine shared by the socket server and the
/// in-process [`CachedEval`] autotune backend.
#[derive(Debug)]
pub struct Engine {
    store: Store,
    compiled: Memo<Arc<Compiled>>,
    placed: Memo<Arc<Placed>>,
    sims: Memo<SimArtifact>,
    flights: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Artificial per-stage compute latency — a chaos/test hook for
    /// exercising deadlines and watchdogs; `None` in production.
    stage_delay: Mutex<Option<Duration>>,
    /// Service counters (public: the server also bumps `rejected`).
    pub stats: Stats,
}

impl Engine {
    /// Open an engine with an unbounded artifact store rooted at
    /// `cache_dir`.
    ///
    /// # Errors
    ///
    /// When the cache directory cannot be created.
    pub fn open(cache_dir: &Path) -> Result<Engine, String> {
        Engine::open_with(cache_dir, None, None)
    }

    /// Open an engine with an optional store byte budget and an
    /// optional fault-injection schedule (the chaos harness's entry
    /// point).
    ///
    /// # Errors
    ///
    /// When the cache directory cannot be created.
    pub fn open_with(
        cache_dir: &Path,
        budget: Option<u64>,
        faults: Option<StoreFaults>,
    ) -> Result<Engine, String> {
        Ok(Engine {
            store: Store::open_with(cache_dir, budget, faults)?,
            compiled: Mutex::new(HashMap::new()),
            placed: Mutex::new(HashMap::new()),
            sims: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
            stage_delay: Mutex::new(None),
            stats: Stats::default(),
        })
    }

    /// The underlying artifact store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Arm (or disarm) an artificial per-stage compute delay. Chaos and
    /// deadline tests use this to make stages reliably slow; it has no
    /// effect on cache hits, so the "retry resumes from the completed
    /// stage" contract is observable.
    pub fn set_stage_delay(&self, delay: Option<Duration>) {
        *self.stage_delay.lock().expect("stage delay poisoned") = delay;
    }

    fn apply_stage_delay(&self) {
        let delay = *self.stage_delay.lock().expect("stage delay poisoned");
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
    }

    /// Engine counters merged with the store's eviction/bytes counters
    /// — the full `stats` report the protocol exposes.
    pub fn stats_json(&self) -> Json {
        let c = &self.store.counters;
        let mut doc = self
            .stats
            .json()
            .set("store_bytes", count(&c.bytes))
            .set("evictions", count(&c.evictions))
            .set("evicted_bytes", count(&c.evicted_bytes))
            .set("tmp_swept", count(&c.tmp_swept))
            .set("quarantined", count(&c.quarantined))
            .set("save_failures", count(&c.save_failures));
        if let Some(b) = self.store.budget() {
            doc = doc.set("cache_budget", i64::try_from(b).unwrap_or(i64::MAX));
        }
        doc
    }

    /// Acquire the per-key flight lock (creating it on first use).
    fn flight(&self, key: &str) -> Arc<Mutex<()>> {
        let mut flights = self.flights.lock().expect("flight registry poisoned");
        flights.entry(key.to_string()).or_default().clone()
    }

    fn flight_done(&self, key: &str) {
        self.flights.lock().expect("flight registry poisoned").remove(key);
    }

    /// Persist a stage artifact, downgrading failure to degraded mode:
    /// the request still succeeds, the artifact just is not cached.
    fn save_or_degrade(&self, stage: &str, key: &str, payload: &Json) {
        if self.store.save(stage, key, payload).is_err() {
            Stats::bump(&self.stats.degraded);
        }
    }

    /// [`Deadline::check`], counting a timeout.
    fn check_deadline(&self, deadline: Deadline, stage: &str) -> Result<(), String> {
        deadline.check(stage).inspect_err(|_| Stats::bump(&self.stats.timeouts))
    }

    /// The memoized entry for `key`, counted as a hit — and as a
    /// coalesced wait when found only after taking the flight lock.
    fn memo_hit<T: Clone>(
        &self,
        stage: &Stage<'_, T>,
        key: &str,
        coalesced: bool,
        progress: Progress,
    ) -> Option<Result<T, String>> {
        let entry = stage.memo.lock().expect("stage cache poisoned").get(key).cloned()?;
        Stats::bump(stage.hits);
        if coalesced {
            Stats::bump(&self.stats.coalesced);
        }
        progress(stage.name, "hit");
        Some(entry)
    }

    /// The lookup-or-compute routine every stage runs: memory; then,
    /// under the per-key flight lock, memory again; then — for a stage
    /// with a codec — the verified disk store; then `compute`, if the
    /// deadline allows. The result is saved (codec stages) and memoized,
    /// failures included. A timeout is never memoized, so a retry
    /// resumes from the last completed stage.
    fn cached<T: Clone>(
        &self,
        stage: Stage<'_, T>,
        key: &str,
        deadline: Deadline,
        progress: Progress,
        compute: impl FnOnce(Progress) -> Result<T, String>,
    ) -> Result<T, String> {
        if let Some(entry) = self.memo_hit(&stage, key, false, progress) {
            return entry;
        }
        let fl = self.flight(key);
        let _g = fl.lock().expect("flight lock poisoned");
        if let Some(entry) = self.memo_hit(&stage, key, true, progress) {
            return entry;
        }
        let _pin = stage.codec.as_ref().map(|_| self.store.pin(stage.name, key));
        let entry = match stage.codec.as_ref().and_then(|c| self.load(stage.name, key, c.decode)) {
            Some(v) => {
                Stats::bump(stage.hits);
                Stats::bump(&self.stats.disk_hits);
                progress(stage.name, "disk-hit");
                Ok(v)
            }
            // The deadline gates the *computation*, never a cache hit.
            None => self.check_deadline(deadline, stage.name).and_then(|()| {
                Stats::bump(stage.misses);
                progress(stage.name, "miss");
                let entry = compute(progress);
                if let (Ok(v), Some(codec)) = (&entry, &stage.codec) {
                    self.save_or_degrade(stage.name, key, &(codec.encode)(v));
                }
                entry
            }),
        };
        // A timeout — this stage's own or a nested one's — is not a
        // failure of this stage, so it is never memoized.
        if !matches!(&entry, Err(e) if e.starts_with(TIMEOUT_PREFIX)) {
            stage.memo.lock().expect("stage cache poisoned").insert(key.to_string(), entry.clone());
        }
        self.flight_done(key);
        entry
    }

    /// A verified, decodable artifact from the store, or `None` after
    /// counting why not: a payload that fails verification or decoding
    /// as corruption, a failed read as degraded.
    fn load<T>(&self, stage: &str, key: &str, decode: fn(&Json) -> Result<T, String>) -> Option<T> {
        let counter = match self.store.load(stage, key) {
            StoreRead::Hit(payload) => match decode(&payload) {
                Ok(v) => return Some(v),
                Err(_) => &self.stats.corrupt_detected,
            },
            StoreRead::Corrupt(_) => &self.stats.corrupt_detected,
            StoreRead::Failed(_) => &self.stats.degraded,
            StoreRead::Miss => return None,
        };
        Stats::bump(counter);
        None
    }

    /// Compile stage: the compiled design, keyed by (program, options,
    /// system). Compilation itself is chip-local — sharding happens at
    /// placement — but the key covers the full topology so downstream
    /// stages can never alias. Memory-only: the place artifact already
    /// replays without recompiling, so a compile artifact on disk would
    /// never be read. Failures are cached as errors so a hopeless point
    /// never compiles twice.
    ///
    /// # Errors
    ///
    /// Setup failures (bad chip/knobs), (cached) compile failures, and
    /// typed `timeout:` errors when the deadline passed before the
    /// compile could start.
    pub fn compile_stage(
        &self,
        knobs: &KnobConfig,
        keys: &StageKeys,
        deadline: Deadline,
        progress: Progress,
    ) -> Result<Arc<Compiled>, String> {
        let stage = Stage {
            name: "compile",
            memo: &self.compiled,
            hits: &self.stats.compile_hits,
            misses: &self.stats.compile_misses,
            codec: None,
        };
        self.cached(stage, &keys.compile, deadline, progress, |_| {
            self.apply_stage_delay();
            let program = knobs.build_program()?;
            let system = knobs.system_spec()?;
            Stats::bump(&self.stats.compiles_run);
            compile(&program, &system.chip, &knobs.compiler_options())
                .map(Arc::new)
                .map_err(|e| format!("compile: {e}"))
        })
    }

    /// Place stage: PnR'd VUDFG (plus the shard plan for multi-chip
    /// systems) keyed by (compile_key, pnr_seed). Served from memory,
    /// then from the verified disk store, then recomputed (via the
    /// compile stage).
    ///
    /// # Errors
    ///
    /// Setup failures plus (cached) compile/PnR failures and typed
    /// `timeout:` errors.
    pub fn place_stage(
        &self,
        knobs: &KnobConfig,
        keys: &StageKeys,
        deadline: Deadline,
        progress: Progress,
    ) -> Result<Arc<Placed>, String> {
        let stage = Stage {
            name: "place",
            memo: &self.placed,
            hits: &self.stats.place_hits,
            misses: &self.stats.place_misses,
            codec: Some(Codec {
                encode: |p: &Arc<Placed>| p.to_json(),
                decode: |v| Placed::from_json(v).map(Arc::new),
            }),
        };
        self.cached(stage, &keys.place, deadline, progress, |progress| {
            let compiled = self.compile_stage(knobs, keys, deadline, progress)?;
            // Re-check after the nested stage: a compile that consumed
            // the whole budget stays cached, and this request stops here
            // instead of starting a PnR it cannot afford.
            self.check_deadline(deadline, "place")?;
            let system = knobs.system_spec()?;
            let mut g = compiled.vudfg.clone();
            self.apply_stage_delay();
            Stats::bump(&self.stats.pnrs_run);
            // `place_and_route_system` delegates to the single-chip
            // placer (same seed, bit-identical) when `count <= 1`; the
            // plan is only kept when the linked simulation needs it.
            let pnr = sara_pnr::place_and_route_system(
                &mut g,
                &compiled.assignment,
                &system,
                knobs.pnr_seed,
            )
            .map_err(|e| format!("pnr: {e}"))?;
            let plan = (system.count > 1).then_some(pnr.plan);
            Ok(Arc::new(Placed { vudfg: g, plan }))
        })
    }

    /// Sim stage: cycles + profile scalars keyed by
    /// (place_key, scheduler). Cached sim results are bit-identical to
    /// fresh computation (`tests/cache.rs` proves it for both
    /// schedulers).
    ///
    /// # Errors
    ///
    /// Setup failures plus (cached) compile/PnR/sim failures and typed
    /// `timeout:` errors.
    pub fn sim_stage(
        &self,
        knobs: &KnobConfig,
        scheduler: Scheduler,
        keys: &StageKeys,
        deadline: Deadline,
        progress: Progress,
    ) -> Result<SimArtifact, String> {
        let stage = Stage {
            name: "sim",
            memo: &self.sims,
            hits: &self.stats.sim_hits,
            misses: &self.stats.sim_misses,
            codec: Some(Codec { encode: SimArtifact::to_json, decode: SimArtifact::from_json }),
        };
        self.cached(stage, &keys.sim, deadline, progress, |progress| {
            let placed = self.place_stage(knobs, keys, deadline, progress)?;
            self.check_deadline(deadline, "sim")?;
            let system = knobs.system_spec()?;
            self.apply_stage_delay();
            Stats::bump(&self.stats.sims_run);
            let out = match &placed.plan {
                Some(plan) => plasticine_sim::simulate_system(
                    &placed.vudfg,
                    &system,
                    plan,
                    &scheduler.config(),
                ),
                None => plasticine_sim::simulate(&placed.vudfg, &system.chip, &scheduler.config()),
            }
            .map_err(|e| format!("sim: {e}"))?;
            SimArtifact::from_outcome(&out)
        })
    }

    /// Run the full pipeline for one request tuple.
    ///
    /// # Errors
    ///
    /// Any stage failure (possibly served from the negative cache).
    pub fn run(
        &self,
        knobs: &KnobConfig,
        scheduler: Scheduler,
        progress: Progress,
    ) -> Result<(StageKeys, SimArtifact), String> {
        self.run_with(knobs, scheduler, Deadline::none(), progress)
    }

    /// [`Engine::run`] under a per-request deadline.
    ///
    /// # Errors
    ///
    /// Stage failures, or a typed `timeout:` error when the deadline
    /// passes between stages (completed stages stay cached).
    pub fn run_with(
        &self,
        knobs: &KnobConfig,
        scheduler: Scheduler,
        deadline: Deadline,
        progress: Progress,
    ) -> Result<(StageKeys, SimArtifact), String> {
        let keys = stage_keys(knobs, scheduler)?;
        let art = self.sim_stage(knobs, scheduler, &keys, deadline, progress)?;
        Ok((keys, art))
    }
}

/// The cached [`Evaluator`] backend: `sara-dse` autotune served by an
/// [`Engine`], making a warm autotune run skip every repeated
/// compilation (see `tests/cache.rs`).
#[derive(Debug, Clone)]
pub struct CachedEval {
    engine: Arc<Engine>,
}

impl CachedEval {
    /// Wrap an engine.
    pub fn new(engine: Arc<Engine>) -> CachedEval {
        CachedEval { engine }
    }

    /// The shared engine (for stats inspection).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }
}

impl Evaluator for CachedEval {
    fn evaluate(&self, knobs: &KnobConfig) -> Result<EvalPoint, String> {
        // Same contract as `LocalEval`: setup failures are `Err`, and a
        // compile failure is an infeasible point.
        let system = knobs.system_spec()?;
        let program = knobs.build_program()?;
        let keys = stage_keys(knobs, Scheduler::Active)?;
        let mut sink = no_progress();
        let compiled = self.engine.compile_stage(knobs, &keys, Deadline::none(), &mut sink).ok();
        Ok(EvalPoint::from_compile(knobs, &program, &system, compiled.as_deref()))
    }

    fn simulate(&self, point: &mut EvalPoint) -> Result<(), String> {
        let mut sink = no_progress();
        let (_, art) = self.engine.run(&point.knobs, Scheduler::Active, &mut sink)?;
        point.simulated = Some(art.cycles);
        point.dram_blocked_frac = Some(art.dram_blocked_frac);
        point.bottleneck = Some(art.bottleneck);
        Ok(())
    }
}
