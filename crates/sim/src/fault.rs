//! Deterministic fault injection: a replayable fault-plan DSL and the
//! engine-side injector that applies it.
//!
//! A [`FaultPlan`] is a list of `(cycle, fault)` pairs. Every fault is
//! tagged with the cycle it arms at and the location (stream / unit /
//! response ordinal) it targets, so a campaign is a text file that replays
//! bit-for-bit. With [`crate::SimConfig::faults`] unset, the injector is
//! never constructed and simulation is bit-identical to a fault-free
//! build.
//!
//! # Fault taxonomy
//!
//! * **Network packet faults** (`drop` / `dup` / `delay` / `corrupt`)
//!   target the *first packet pushed on the chosen stream at or after* the
//!   arming cycle: the packet is removed from flight, delivered twice,
//!   held `cycles` extra cycles (head-of-line: later packets on the same
//!   wire queue behind it), or payload-poisoned (lane 0 inverted for data;
//!   the epoch-end flag flipped for control packets). Targeting an AG's
//!   output stream corrupts a DRAM response payload on its way back into
//!   the fabric.
//! * **Unit faults** (`stall`) freeze a chosen VCU for N cycles — it is
//!   simply not stepped, like a transient clock-gate glitch.
//! * **CMMC protocol faults** (`leak` / `steal`) add or remove one credit
//!   token on a chosen token edge *behind the protocol's back* (the
//!   push/pop counters are deliberately not updated — exactly what the
//!   sanitizer's conservation check exists to catch).
//! * **DRAM faults** (`drop-dram` / `delay-dram`) swallow or hold the
//!   `nth` response completed at or after the arming cycle, exercising the
//!   AG retry-with-timeout recovery path.
//!
//! Application points are scheduler-independent by construction: cycle-
//! triggered faults apply at the start of their arming cycle, push-
//! triggered faults at the end of the cycle containing the matching push
//! (stream latency ≥ 1 guarantees the packet is still in flight), and
//! response faults at the completion cycle the DRAM model itself fixes.
//!
//! # Recover or explain
//!
//! The fault model's contract is that every injected fault either
//! recovers or ends in a typed diagnosis. Its rules live here, once, for
//! every harness that checks it (the `fault-campaign` bench and the fuzz
//! oracle's fault mode): a fault-free baseline fixes the plan's arming
//! horizon ([`plan_horizon`]) and the faulted run's time-box
//! ([`faulted_config`]), and [`classify`] maps the faulted run's result
//! to a [`FaultOutcome`].

use crate::engine::{SimConfig, SimError, SimOutcome};
use crate::packet::{PacketArena, PacketRef};
use crate::stream::StreamRt;
use ramulator_lite::Response;
use sara_core::vudfg::{StreamKind, UnitKind, Vudfg};
use sara_ir::Elem;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One fault kind, with its target location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Drop the first packet pushed on `stream` at/after the arming cycle.
    Drop { stream: usize },
    /// Deliver that packet twice.
    Duplicate { stream: usize },
    /// Hold that packet (and everything queued behind it) `cycles` extra.
    Delay { stream: usize, cycles: u64 },
    /// Poison that packet's payload (lane 0) or control flag.
    Corrupt { stream: usize },
    /// Freeze unit `unit` (must be a VCU) for `cycles` cycles.
    Stall { unit: usize, cycles: u64 },
    /// Materialize one spurious credit on token stream `stream`.
    LeakCredit { stream: usize },
    /// Destroy one queued credit on token stream `stream` (waits until one
    /// is queued).
    StealCredit { stream: usize },
    /// Swallow the `nth` (1-based) DRAM response completed at/after the
    /// arming cycle.
    DropDramResponse { nth: u64 },
    /// Hold that response `cycles` extra cycles before delivery.
    DelayDramResponse { nth: u64, cycles: u64 },
}

/// A fault armed at a specific cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Cycle the fault arms (cycle-triggered faults apply here; push- and
    /// response-triggered faults apply to the first match at/after it).
    pub at: u64,
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Drop { stream } => write!(f, "drop @{} stream={}", self.at, stream),
            FaultKind::Duplicate { stream } => write!(f, "dup @{} stream={}", self.at, stream),
            FaultKind::Delay { stream, cycles } => {
                write!(f, "delay @{} stream={} cycles={}", self.at, stream, cycles)
            }
            FaultKind::Corrupt { stream } => write!(f, "corrupt @{} stream={}", self.at, stream),
            FaultKind::Stall { unit, cycles } => {
                write!(f, "stall @{} unit={} cycles={}", self.at, unit, cycles)
            }
            FaultKind::LeakCredit { stream } => write!(f, "leak @{} stream={}", self.at, stream),
            FaultKind::StealCredit { stream } => write!(f, "steal @{} stream={}", self.at, stream),
            FaultKind::DropDramResponse { nth } => write!(f, "drop-dram @{} nth={}", self.at, nth),
            FaultKind::DelayDramResponse { nth, cycles } => {
                write!(f, "delay-dram @{} nth={} cycles={}", self.at, nth, cycles)
            }
        }
    }
}

/// A replayable fault plan: one fault per line in the text form.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injection machinery on, no faults — useful for
    /// testing that the machinery itself is inert).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Add a fault; returns `self` for fluent construction.
    pub fn with(mut self, at: u64, kind: FaultKind) -> Self {
        self.faults.push(Fault { at, kind });
        self
    }

    /// Parse the text form: one fault per line, `#` comments and blank
    /// lines ignored. Each line is a verb, an `@CYCLE` tag, and `key=value`
    /// operands in any order, e.g.:
    ///
    /// ```text
    /// # drop a packet, then steal a credit
    /// drop @1000 stream=3
    /// steal @2500 stream=7
    /// delay-dram @400 nth=2 cycles=5000
    /// ```
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            faults.push(parse_line(line).map_err(|e| format!("fault plan line {}: {e}", ln + 1))?);
        }
        Ok(FaultPlan { faults })
    }
}

/// `Display` writes the parseable text form back out (round-trips through
/// [`FaultPlan::parse`]).
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fault in &self.faults {
            writeln!(f, "{fault}")?;
        }
        Ok(())
    }
}

fn parse_line(line: &str) -> Result<Fault, String> {
    let mut verb = None;
    let mut at = None;
    let mut stream = None;
    let mut unit = None;
    let mut cycles = None;
    let mut nth = None;
    for tok in line.split_whitespace() {
        if let Some(c) = tok.strip_prefix('@') {
            at = Some(c.parse::<u64>().map_err(|_| format!("bad cycle '{tok}'"))?);
        } else if let Some((k, v)) = tok.split_once('=') {
            let val = v.parse::<u64>().map_err(|_| format!("bad value '{tok}'"))?;
            match k {
                "stream" => stream = Some(val as usize),
                "unit" => unit = Some(val as usize),
                "cycles" => cycles = Some(val),
                "nth" => nth = Some(val),
                _ => return Err(format!("unknown operand '{k}'")),
            }
        } else if verb.is_none() {
            verb = Some(tok);
        } else {
            return Err(format!("unexpected token '{tok}'"));
        }
    }
    let verb = verb.ok_or("missing fault verb")?;
    let at = at.ok_or("missing @CYCLE tag")?;
    let need_stream = || stream.ok_or_else(|| format!("'{verb}' needs stream=N"));
    let need_cycles = || cycles.ok_or_else(|| format!("'{verb}' needs cycles=N"));
    let need_nth = || nth.ok_or_else(|| format!("'{verb}' needs nth=N"));
    let kind = match verb {
        "drop" => FaultKind::Drop { stream: need_stream()? },
        "dup" => FaultKind::Duplicate { stream: need_stream()? },
        "delay" => FaultKind::Delay { stream: need_stream()?, cycles: need_cycles()? },
        "corrupt" => FaultKind::Corrupt { stream: need_stream()? },
        "stall" => FaultKind::Stall {
            unit: unit.ok_or_else(|| format!("'{verb}' needs unit=N"))?,
            cycles: need_cycles()?,
        },
        "leak" => FaultKind::LeakCredit { stream: need_stream()? },
        "steal" => FaultKind::StealCredit { stream: need_stream()? },
        "drop-dram" => FaultKind::DropDramResponse { nth: need_nth()?.max(1) },
        "delay-dram" => {
            FaultKind::DelayDramResponse { nth: need_nth()?.max(1), cycles: need_cycles()? }
        }
        other => return Err(format!("unknown fault verb '{other}'")),
    };
    Ok(Fault { at, kind })
}

// ---------------------------------------------------------- seeded plans

/// Tiny deterministic PRNG (xorshift64*) for seeded plan derivation —
/// self-contained so campaign plans replay bit-for-bit across hosts.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `0..n` (`n == 0` yields 0).
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// Derive a deterministic single-fault plan from the graph structure.
///
/// The fault site is drawn from what the graph actually offers — packet
/// faults on any stream, credit faults on token edges, stalls on VCUs,
/// response faults whenever the graph touches DRAM — and armed at a
/// pseudo-random cycle in `1..horizon` (pass the fault-free cycle count
/// so faults land while the workload is in flight). The same
/// `(graph, seed, horizon)` always yields the same plan, and the plan's
/// text form ([`FaultPlan`]'s `Display`) replays it anywhere.
pub fn seeded_plan(g: &Vudfg, seed: u64, horizon: u64) -> FaultPlan {
    let mut rng = XorShift::new(seed);
    let token_streams: Vec<usize> = g
        .streams
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.kind, StreamKind::Token { .. }))
        .map(|(i, _)| i)
        .collect();
    let vcus: Vec<usize> = g
        .units
        .iter()
        .enumerate()
        .filter(|(_, u)| matches!(u.kind, UnitKind::Vcu(_)))
        .map(|(i, _)| i)
        .collect();
    let has_dram = g.units.iter().any(|u| matches!(u.kind, UnitKind::Ag(_)));
    let at = 1 + rng.below(horizon.max(2) - 1);
    // Draw a category until one the graph supports comes up (bounded: the
    // packet category always exists when there is any stream at all).
    for _ in 0..16 {
        let kind = match rng.below(9) {
            0 if !g.streams.is_empty() => {
                FaultKind::Drop { stream: rng.below(g.streams.len() as u64) as usize }
            }
            1 if !g.streams.is_empty() => {
                FaultKind::Duplicate { stream: rng.below(g.streams.len() as u64) as usize }
            }
            2 if !g.streams.is_empty() => FaultKind::Delay {
                stream: rng.below(g.streams.len() as u64) as usize,
                cycles: 16 + rng.below(512),
            },
            3 if !g.streams.is_empty() => {
                FaultKind::Corrupt { stream: rng.below(g.streams.len() as u64) as usize }
            }
            4 if !vcus.is_empty() => FaultKind::Stall {
                unit: vcus[rng.below(vcus.len() as u64) as usize],
                cycles: 64 + rng.below(1024),
            },
            5 if !token_streams.is_empty() => FaultKind::LeakCredit {
                stream: token_streams[rng.below(token_streams.len() as u64) as usize],
            },
            6 if !token_streams.is_empty() => FaultKind::StealCredit {
                stream: token_streams[rng.below(token_streams.len() as u64) as usize],
            },
            7 if has_dram => FaultKind::DropDramResponse { nth: 1 + rng.below(4) },
            8 if has_dram => FaultKind::DelayDramResponse {
                nth: 1 + rng.below(4),
                cycles: 256 + rng.below(4096),
            },
            _ => continue,
        };
        return FaultPlan::empty().with(at, kind);
    }
    FaultPlan::empty()
}

// ------------------------------------------------ recover-or-explain protocol

/// The arming horizon for [`seeded_plan`], taken from a fault-free
/// baseline run: three quarters of its cycle count, so the fault lands
/// while the workload is still in flight.
pub fn plan_horizon(baseline: &SimOutcome) -> u64 {
    (baseline.cycles * 3 / 4).max(2)
}

/// The configuration of a faulted run: the caller's `base` (scheduler and
/// every other field kept) with `plan` armed, the sanitizer on, and a
/// time-box — a faulted run may be slower than `baseline` (stalls,
/// delays, retries) but not unboundedly so.
pub fn faulted_config(base: &SimConfig, plan: FaultPlan, baseline: &SimOutcome) -> SimConfig {
    SimConfig {
        faults: Some(plan),
        sanitize: true,
        max_cycles: baseline.cycles * 50 + 1_000_000,
        ..base.clone()
    }
}

/// How one faulted run ended. Every variant but [`FaultOutcome::Fail`]
/// honours the fault model's contract: recover or explain, never hang or
/// crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Completed with the baseline's exact DRAM image (timing-only fault,
    /// absorbed retry, or a fault that never landed).
    Recovered,
    /// Completed, but the DRAM image differs from the baseline: a payload
    /// corruption propagated and the comparison itself detected it.
    CorruptDetected,
    /// Aborted with a typed sanitizer report.
    Sanitizer,
    /// Deadlocked with the watchdog's structured wait-for diagnosis.
    Watchdog,
    /// A typed `SimError::Dram` or `SimError::Fault`.
    TypedFault,
    /// A panic, an undiagnosed timeout, or a plan the config validator
    /// rejected: the contract is broken.
    Fail,
}

impl FaultOutcome {
    /// Every outcome, in report order.
    pub const ALL: [FaultOutcome; 6] = [
        FaultOutcome::Recovered,
        FaultOutcome::CorruptDetected,
        FaultOutcome::Sanitizer,
        FaultOutcome::Watchdog,
        FaultOutcome::TypedFault,
        FaultOutcome::Fail,
    ];

    pub fn label(self) -> &'static str {
        match self {
            FaultOutcome::Recovered => "recovered",
            FaultOutcome::CorruptDetected => "corrupt-detected",
            FaultOutcome::Sanitizer => "sanitizer",
            FaultOutcome::Watchdog => "watchdog",
            FaultOutcome::TypedFault => "typed-fault",
            FaultOutcome::Fail => "FAIL",
        }
    }
}

/// Classify one faulted run against its fault-free `baseline`. `result` is
/// the `catch_unwind`-wrapped [`crate::simulate`] result, with a panic
/// already rendered as text. Returns the outcome and a one-line detail.
pub fn classify(
    result: Result<Result<SimOutcome, SimError>, String>,
    baseline: &SimOutcome,
) -> (FaultOutcome, String) {
    match result {
        Err(panic_msg) => (FaultOutcome::Fail, format!("panic: {panic_msg}")),
        Ok(Ok(o)) if o.dram_final == baseline.dram_final => {
            (FaultOutcome::Recovered, format!("completed in {} cycles", o.cycles))
        }
        Ok(Ok(o)) => (
            FaultOutcome::CorruptDetected,
            format!("completed in {} cycles but DRAM image differs from baseline", o.cycles),
        ),
        Ok(Err(e)) => match &e {
            SimError::Sanitizer(r) => (
                FaultOutcome::Sanitizer,
                format!("{} at cycle {}: {}", r.invariant.label(), r.cycle, r.detail),
            ),
            SimError::Deadlock { cycle, report, .. } => (
                FaultOutcome::Watchdog,
                format!(
                    "deadlock at cycle {cycle}: {} member(s), cycle={}",
                    report.members.len(),
                    report.is_cycle
                ),
            ),
            SimError::Dram { .. } | SimError::Fault { .. } => {
                (FaultOutcome::TypedFault, e.to_string())
            }
            SimError::Timeout { cycle } => {
                (FaultOutcome::Fail, format!("undiagnosed timeout at cycle {cycle}"))
            }
            SimError::Config { message } => {
                (FaultOutcome::Fail, format!("plan rejected by config validation: {message}"))
            }
        },
    }
}

// ------------------------------------------------------------- injector

/// What a push-triggered fault does to the in-flight packet.
#[derive(Debug, Clone, Copy)]
enum PushOp {
    Drop,
    Duplicate,
    Delay(u64),
    Corrupt,
}

#[derive(Debug)]
struct PushFault {
    at: u64,
    stream: usize,
    op: PushOp,
    done: bool,
}

#[derive(Debug)]
struct CreditFault {
    at: u64,
    stream: usize,
    /// true = leak (add), false = steal (remove).
    leak: bool,
    done: bool,
}

#[derive(Debug)]
struct StallFault {
    at: u64,
    until: u64,
    unit: usize,
}

#[derive(Debug)]
struct DramFault {
    at: u64,
    nth: u64,
    seen: u64,
    /// `None` = drop, `Some(extra)` = delay by `extra` cycles.
    delay: Option<u64>,
    done: bool,
}

/// Engine-side state applying a [`FaultPlan`] deterministically.
///
/// Constructed only when [`crate::SimConfig::faults`] is set; every hook
/// is a no-op-free straight scan over the (few) pending faults.
pub(crate) struct Injector {
    push_faults: Vec<PushFault>,
    credit_faults: Vec<CreditFault>,
    stalls: Vec<StallFault>,
    dram_faults: Vec<DramFault>,
    /// Streams watched by any push fault, with last-seen push counters.
    watched: Vec<(usize, u64)>,
    /// Delayed DRAM responses awaiting re-delivery: `(deliver_at, resp)`.
    delayed: Vec<(u64, Response)>,
    /// Log of applied faults: `(cycle, description)` — replay/debug trail,
    /// also mirrored into the sanitizer's protocol-event ring.
    pub applied: Vec<(u64, String)>,
}

/// Streams whose state an applied fault mutated this call (the engine
/// wakes their endpoints), plus packet-delivery wakes at future cycles.
#[derive(Debug, Default)]
pub(crate) struct FaultWakes {
    /// Mutated streams (wake src and dst at the current cycle).
    pub streams: Vec<usize>,
    /// `(cycle, stream)` future packet deliveries (wake dst then).
    pub deliveries: Vec<(u64, usize)>,
}

impl Injector {
    /// Validate a plan against the graph and build the runtime state.
    pub fn new(plan: &FaultPlan, g: &Vudfg) -> Result<Self, String> {
        let n_streams = g.streams.len();
        let n_units = g.units.len();
        let mut inj = Injector {
            push_faults: Vec::new(),
            credit_faults: Vec::new(),
            stalls: Vec::new(),
            dram_faults: Vec::new(),
            watched: Vec::new(),
            delayed: Vec::new(),
            applied: Vec::new(),
        };
        let check_stream = |s: usize| -> Result<(), String> {
            if s >= n_streams {
                return Err(format!("fault targets stream {s}, graph has {n_streams}"));
            }
            Ok(())
        };
        let check_token = |s: usize| -> Result<(), String> {
            check_stream(s)?;
            if !matches!(g.streams[s].kind, StreamKind::Token { .. }) {
                return Err(format!("credit fault targets non-token stream {s}"));
            }
            Ok(())
        };
        for f in &plan.faults {
            match f.kind {
                FaultKind::Drop { stream } => {
                    check_stream(stream)?;
                    inj.push_faults.push(PushFault {
                        at: f.at,
                        stream,
                        op: PushOp::Drop,
                        done: false,
                    });
                }
                FaultKind::Duplicate { stream } => {
                    check_stream(stream)?;
                    inj.push_faults.push(PushFault {
                        at: f.at,
                        stream,
                        op: PushOp::Duplicate,
                        done: false,
                    });
                }
                FaultKind::Delay { stream, cycles } => {
                    check_stream(stream)?;
                    inj.push_faults.push(PushFault {
                        at: f.at,
                        stream,
                        op: PushOp::Delay(cycles),
                        done: false,
                    });
                }
                FaultKind::Corrupt { stream } => {
                    check_stream(stream)?;
                    inj.push_faults.push(PushFault {
                        at: f.at,
                        stream,
                        op: PushOp::Corrupt,
                        done: false,
                    });
                }
                FaultKind::Stall { unit, cycles } => {
                    if unit >= n_units {
                        return Err(format!("stall targets unit {unit}, graph has {n_units}"));
                    }
                    if !matches!(g.units[unit].kind, UnitKind::Vcu(_)) {
                        return Err(format!("stall targets non-VCU unit {unit}"));
                    }
                    inj.stalls.push(StallFault { at: f.at, until: f.at + cycles, unit });
                }
                FaultKind::LeakCredit { stream } => {
                    check_token(stream)?;
                    inj.credit_faults.push(CreditFault {
                        at: f.at,
                        stream,
                        leak: true,
                        done: false,
                    });
                }
                FaultKind::StealCredit { stream } => {
                    check_token(stream)?;
                    inj.credit_faults.push(CreditFault {
                        at: f.at,
                        stream,
                        leak: false,
                        done: false,
                    });
                }
                FaultKind::DropDramResponse { nth } => {
                    inj.dram_faults.push(DramFault {
                        at: f.at,
                        nth: nth.max(1),
                        seen: 0,
                        delay: None,
                        done: false,
                    });
                }
                FaultKind::DelayDramResponse { nth, cycles } => {
                    inj.dram_faults.push(DramFault {
                        at: f.at,
                        nth: nth.max(1),
                        seen: 0,
                        delay: Some(cycles),
                        done: false,
                    });
                }
            }
        }
        let mut watch: Vec<usize> = inj.push_faults.iter().map(|p| p.stream).collect();
        watch.sort_unstable();
        watch.dedup();
        inj.watched = watch.into_iter().map(|s| (s, 0)).collect();
        Ok(inj)
    }

    /// Sync push counters to the current stream state (call once before
    /// the main loop so pre-existing pushes are not matched).
    pub fn prime(&mut self, streams: &[StreamRt]) {
        for (s, seen) in &mut self.watched {
            *seen = streams[*s].pushed;
        }
    }

    /// Apply cycle-triggered faults due at `now` (credit leak/steal).
    /// Returns the streams mutated so the engine can wake endpoints.
    pub fn begin_cycle(
        &mut self,
        now: u64,
        streams: &mut [StreamRt],
        arena: &mut PacketArena,
    ) -> Vec<usize> {
        let mut touched = Vec::new();
        for cf in &mut self.credit_faults {
            if cf.done || cf.at > now {
                continue;
            }
            if cf.leak {
                streams[cf.stream].fault_leak_token();
                cf.done = true;
                self.applied.push((now, format!("leak: injected credit on s{}", cf.stream)));
                touched.push(cf.stream);
            } else {
                // Deliver due in-flight credits first (idempotent with the
                // scheduler's own lazy tick) so a steal can see them.
                streams[cf.stream].tick(now);
                if streams[cf.stream].fault_steal_token(arena) {
                    cf.done = true;
                    self.applied.push((now, format!("steal: destroyed credit on s{}", cf.stream)));
                    touched.push(cf.stream);
                }
                // An unsatisfied steal (no queued credit yet) stays pending.
            }
        }
        touched
    }

    /// Whether unit `i` is frozen at `now`; returns the cycle it thaws.
    pub fn unit_stalled(&self, i: usize, now: u64) -> Option<u64> {
        self.stalls
            .iter()
            .filter(|s| s.unit == i && s.at <= now && now < s.until)
            .map(|s| s.until)
            .max()
    }

    /// End-of-cycle scan: apply push-triggered faults to packets pushed
    /// this cycle (latency ≥ 1 guarantees they are still in flight).
    pub fn end_cycle(
        &mut self,
        now: u64,
        streams: &mut [StreamRt],
        arena: &mut PacketArena,
    ) -> FaultWakes {
        let mut wakes = FaultWakes::default();
        for wi in 0..self.watched.len() {
            let (s, last) = self.watched[wi];
            let pushed = streams[s].pushed;
            if pushed == last {
                continue;
            }
            let delta = (pushed - last) as usize;
            self.watched[wi].1 = pushed;
            // Target the *first* packet pushed this cycle.
            let back_offset = delta - 1;
            // One fault application per stream per cycle keeps the plan
            // semantics simple and replayable.
            if let Some(pf) =
                self.push_faults.iter_mut().find(|p| !p.done && p.stream == s && p.at <= now)
            {
                pf.done = true;
                match pf.op {
                    PushOp::Drop => {
                        if streams[s].fault_drop_in_flight(back_offset, arena) {
                            self.applied.push((now, format!("drop: packet on s{s}")));
                            wakes.streams.push(s);
                        }
                    }
                    PushOp::Duplicate => {
                        if let Some(t) = streams[s].fault_dup_in_flight(back_offset, arena) {
                            self.applied.push((now, format!("dup: packet on s{s}")));
                            wakes.deliveries.push((t, s));
                        }
                    }
                    PushOp::Delay(extra) => {
                        if let Some(t) = streams[s].fault_delay_in_flight(back_offset, extra) {
                            self.applied
                                .push((now, format!("delay: packet on s{s} by {extra} cycles")));
                            wakes.deliveries.push((t, s));
                        }
                    }
                    PushOp::Corrupt => {
                        if let Some(p) = streams[s].fault_packet_ref_mut(back_offset) {
                            let d = corrupt_packet(p, arena);
                            self.applied.push((now, format!("corrupt: s{s} {d}")));
                            wakes.streams.push(s);
                        }
                    }
                }
            }
        }
        wakes
    }

    /// Filter the DRAM responses completed at `now` through the armed
    /// response faults (drop and delay).
    pub fn filter_responses(&mut self, now: u64, responses: &mut Vec<Response>) {
        if self.dram_faults.iter().all(|d| d.done) || responses.is_empty() {
            return;
        }
        let mut kept = Vec::with_capacity(responses.len());
        'resp: for r in responses.drain(..) {
            for df in &mut self.dram_faults {
                if df.done || df.at > now {
                    continue;
                }
                df.seen += 1;
                if df.seen == df.nth {
                    df.done = true;
                    match df.delay {
                        None => {
                            self.applied.push((now, format!("drop-dram: response {:#x}", r.id)));
                            continue 'resp;
                        }
                        Some(extra) => {
                            self.applied.push((
                                now,
                                format!("delay-dram: response {:#x} by {extra} cycles", r.id),
                            ));
                            self.delayed.push((now + extra, r));
                            continue 'resp;
                        }
                    }
                }
            }
            kept.push(r);
        }
        *responses = kept;
    }

    /// Delayed responses whose re-delivery cycle has arrived.
    pub fn due_responses(&mut self, now: u64) -> Vec<Response> {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                due.push(self.delayed.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        due
    }

    /// Earliest future cycle at which injector state changes on its own:
    /// a cycle-triggered fault arms, a stall thaws, or a delayed response
    /// re-delivers. The active scheduler folds this into its event horizon
    /// so no fault fires on an unprocessed cycle.
    pub fn next_cycle(&self, now: u64) -> Option<u64> {
        let credit = self.credit_faults.iter().filter(|c| !c.done && c.at > now).map(|c| c.at);
        let thaw = self.stalls.iter().filter(|s| s.until > now).map(|s| s.until.max(s.at));
        let redeliver = self.delayed.iter().map(|(t, _)| *t);
        credit.chain(thaw).chain(redeliver).min()
    }

    /// Whether any fault state could still mutate the simulation (pending
    /// deliveries or future arming cycles) — the watchdog treats this as
    /// "slow-but-live", not deadlock.
    pub fn pending(&self, now: u64) -> bool {
        self.next_cycle(now).is_some() || !self.delayed.is_empty()
    }
}

/// Poison one element in place; returns a short description.
pub(crate) fn corrupt_elem(e: &mut Elem) -> String {
    match e {
        Elem::I64(v) => {
            let old = *v;
            *v = !old;
            format!("lane0 i64 {old} -> {}", *v)
        }
        Elem::F64(v) => {
            let old = *v;
            *v = if old.is_finite() { -old - 1.0e6 } else { 0.0 };
            format!("lane0 f64 {old} -> {}", *v)
        }
    }
}

/// Poison a packet: data loses lane 0 integrity, control flips its
/// epoch-end flag (marker ↔ token) — both protocol-visible.
pub(crate) fn corrupt_packet(p: &mut PacketRef, arena: &mut PacketArena) -> String {
    if p.is_sentinel() {
        let was_token = !p.is_marker();
        *p = p.flip_control();
        if was_token {
            "token -> marker".to_string()
        } else {
            "marker -> token".to_string()
        }
    } else {
        corrupt_elem(&mut arena.vals_mut(*p)[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_text() {
        let plan = FaultPlan::empty()
            .with(100, FaultKind::Drop { stream: 3 })
            .with(200, FaultKind::Delay { stream: 4, cycles: 50 })
            .with(300, FaultKind::Stall { unit: 2, cycles: 1000 })
            .with(400, FaultKind::StealCredit { stream: 7 })
            .with(500, FaultKind::DelayDramResponse { nth: 2, cycles: 5000 });
        let text = plan.to_string();
        let back = FaultPlan::parse(&text).expect("round trip");
        assert_eq!(plan, back);
    }

    #[test]
    fn parser_accepts_comments_and_rejects_garbage() {
        let plan = FaultPlan::parse("# a comment\n\n  drop @10 stream=1  # trailing\n").unwrap();
        assert_eq!(plan.faults.len(), 1);
        assert_eq!(plan.faults[0], Fault { at: 10, kind: FaultKind::Drop { stream: 1 } });
        assert!(FaultPlan::parse("drop stream=1").is_err(), "missing @cycle");
        assert!(FaultPlan::parse("drop @10").is_err(), "missing stream");
        assert!(FaultPlan::parse("explode @10 stream=1").is_err(), "unknown verb");
        assert!(FaultPlan::parse("drop @x stream=1").is_err(), "bad cycle");
        let err = FaultPlan::parse("drop @1 stream=1\ndrop @2 foo=3").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_distinct() {
        let w = sara_workloads::by_name("dotprod").unwrap();
        let chip = plasticine_arch::ChipSpec::small_8x8();
        let compiled = sara_core::compile::compile(
            &w.program,
            &chip,
            &sara_core::compile::CompilerOptions::default(),
        )
        .unwrap();
        let g = compiled.vudfg;
        let a = seeded_plan(&g, 1, 1000);
        let b = seeded_plan(&g, 1, 1000);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.faults.len(), 1);
        assert!(a.faults[0].at >= 1 && a.faults[0].at < 1000);
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..32u64 {
            let p = seeded_plan(&g, seed, 1000);
            kinds.insert(format!("{}", p.faults[0]).split(' ').next().unwrap().to_string());
        }
        assert!(kinds.len() >= 3, "seeds should cover several fault kinds: {kinds:?}");
    }

    fn outcome(cycles: u64, out: i64) -> SimOutcome {
        SimOutcome {
            cycles,
            dram_final: [(sara_ir::MemId(0), vec![Elem::I64(out)])].into_iter().collect(),
            stats: crate::SimStats::default(),
            profile: None,
        }
    }

    #[test]
    fn horizon_and_time_box_follow_the_baseline() {
        let baseline = outcome(1000, 7);
        assert_eq!(plan_horizon(&baseline), 750);
        assert_eq!(plan_horizon(&outcome(1, 7)), 2, "floor keeps 1..horizon non-empty");
        let base = SimConfig { dense: true, deadlock_window: 123, ..SimConfig::default() };
        let plan = FaultPlan::empty().with(5, FaultKind::Drop { stream: 0 });
        let cfg = faulted_config(&base, plan.clone(), &baseline);
        assert_eq!(cfg.max_cycles, 1_050_000);
        assert!(cfg.sanitize);
        assert_eq!(cfg.faults, Some(plan));
        assert!(cfg.dense);
        assert_eq!(cfg.deadlock_window, 123);
    }

    #[test]
    fn classify_covers_every_outcome() {
        use sara_core::robust::{InvariantKind, SanitizerReport, WatchdogReport};
        let baseline = outcome(1000, 7);
        let class = |r: Result<Result<SimOutcome, SimError>, String>| classify(r, &baseline).0;
        let err = |e: SimError| class(Ok(Err(e)));

        assert_eq!(class(Err("boom".to_string())), FaultOutcome::Fail);
        assert_eq!(classify(Err("boom".to_string()), &baseline).1, "panic: boom");
        assert_eq!(err(SimError::Timeout { cycle: 9 }), FaultOutcome::Fail);
        assert_eq!(err(SimError::Config { message: "bad".into() }), FaultOutcome::Fail);
        let watchdog = WatchdogReport {
            cycle: 9,
            stalled_for: 5,
            is_cycle: true,
            members: Vec::new(),
            backpressured_streams: 0,
        };
        let deadlock =
            SimError::Deadlock { cycle: 9, diagnostic: String::new(), report: Box::new(watchdog) };
        assert_eq!(err(deadlock), FaultOutcome::Watchdog);
        let report = SanitizerReport {
            cycle: 9,
            invariant: InvariantKind::TokenConservation,
            stream: Some(0),
            edge: String::new(),
            detail: "lost".into(),
            recent: Vec::new(),
        };
        assert_eq!(err(SimError::Sanitizer(Box::new(report))), FaultOutcome::Sanitizer);
        let stall = ramulator_lite::DramError::ResponseStall {
            channel: None,
            id: 1,
            waited: 10,
            budget: 5,
        };
        let dram = SimError::Dram { cycle: 9, unit: "ag0".into(), error: stall };
        assert_eq!(err(dram), FaultOutcome::TypedFault);
        let fault = SimError::Fault { cycle: 9, unit: "pcu0".into(), message: "oob".into() };
        assert_eq!(err(fault), FaultOutcome::TypedFault);
        assert_eq!(class(Ok(Ok(outcome(1200, 7)))), FaultOutcome::Recovered);
        assert_eq!(class(Ok(Ok(outcome(1000, 8)))), FaultOutcome::CorruptDetected);
    }

    #[test]
    fn corrupt_flips_control_and_poisons_data() {
        let mut arena = PacketArena::new();
        let mut m = PacketRef::marker();
        corrupt_packet(&mut m, &mut arena);
        assert!(!m.is_marker(), "marker became token");
        let mut d = arena.data(&[Elem::I64(5)]);
        corrupt_packet(&mut d, &mut arena);
        assert_ne!(arena.vals(d)[0], Elem::I64(5));
    }
}
