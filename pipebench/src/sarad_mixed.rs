//! `sarad_mixed`: the `sarad` service in-process on a Unix socket, one
//! client connection, a Zipf-popular request stream over 16 programs × 4
//! PnR seeds × {active, dense}, a store budget of about half the on-disk
//! working set, and a server restart on the same cache directory every
//! `SESSION_PASSES` passes (restarts turn memory hits into disk hits).
//!
//! A pass requests every program once, in a seeded order; each program's
//! eight (PnR seed, scheduler) keys have Zipf popularity with a seeded
//! rank order. Drawing the programs themselves from one Zipf over all 128
//! keys let the seed decide which programs dominate, and every latency
//! metric then moved 15–35% between seeds.
//!
//! The client speaks the line protocol directly so it can stamp each
//! per-stage progress line as it arrives. The engine announces a stage
//! when it starts, and a missing stage runs its own prerequisites first,
//! so the time after the last progress line is the deepest missed stage
//! plus every stage after it: `sarad.compile_ms` is compile + place +
//! sim, `sarad.place_ms` is place + sim, `sarad.sim_ms` is sim alone.
//! A `disk-hit` line is sent once the artifact has been read, verified
//! and decoded, so the gap before it is the disk hit's service time
//! (`disk_hit_ms_p50`). Under the budget the store evicts sim artifacts
//! first, so restarts turn memory hits mostly into place-stage disk hits
//! followed by a fresh simulation; whole-request sim disk hits are rare.
//!
//! Every reply is checked on cycles and firings against the cold path
//! (compile → place_and_route → simulate) for the same program, PnR
//! seed and scheduler, whose own DRAM output is checked against the
//! interpreter.

use crate::cold::build_progs;
use crate::common::{
    latency_metrics, normalize, trace_metrics, write_trace, Args, Sample, SEED_SLOTS, SETUP_REPS,
};
use crate::pipeline::{check_dram, Exact, Stages};
use crate::probe::{timed_s, Probes};
use crate::report::{Report, Row};
use crate::trace::{Layer, Tracer};
use crate::util::{geomean, median, pnr_seed, Rng};
use plasticine_arch::ChipSpec;
use plasticine_sim::{simulate, SimConfig};
use sara_core::compile::compile;
use sara_dse::KnobConfig;
use sara_util::Json;
use sarad::{
    client::is_terminal, serve_on, stage_keys, Endpoint, Engine, Listener, Scheduler, ServerOptions,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Passes (16 requests each) between server restarts.
const SESSION_PASSES: usize = 32;
/// Keys per program: `SEED_SLOTS` PnR seeds × {active, dense}.
const VARIANTS: usize = SEED_SLOTS * 2;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.0;
/// Store byte budget: about half the on-disk working set of all 128
/// keys (≈ 4.7 MB of compile, place and sim artifacts, measured with no
/// budget).
const BUDGET: u64 = 2_400_000;
/// Client-side read timeout: a hung server fails the run instead of
/// stalling it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Request kinds for the tracing-overhead comparison.
const CLASSES: [&str; 5] = ["hit", "disk-hit", "miss-sim", "miss-place", "miss-compile"];

#[derive(Debug, Clone)]
struct Key {
    prog: usize,
    pnr_seed: u64,
    scheduler: Scheduler,
    knobs: KnobConfig,
}

impl Key {
    fn request(&self, name: &str) -> Json {
        Json::object()
            .set("op", "run")
            .set("workload", name)
            .set("chip", "8x8")
            .set("pnr_seed", self.pnr_seed)
            .set("scheduler", self.scheduler.name())
    }
}

/// One connection speaking the line protocol, stamping every line.
struct LineConn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl LineConn {
    fn connect(sock: &Path) -> Result<LineConn, String> {
        let s =
            UnixStream::connect(sock).map_err(|e| format!("connect {}: {e}", sock.display()))?;
        s.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
        let r = s.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        Ok(LineConn { writer: s, reader: BufReader::new(r) })
    }

    /// Send one request; every response line with its arrival time, the
    /// terminal one last.
    fn request(&mut self, req: &Json) -> Result<Vec<(Json, Instant)>, String> {
        let mut text = req.pretty().replace('\n', " ");
        text.push('\n');
        self.writer.write_all(text.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut lines = Vec::new();
        loop {
            let mut raw = String::new();
            let n = self.reader.read_line(&mut raw).map_err(|e| format!("recv: {e}"))?;
            let at = Instant::now();
            if n == 0 {
                return Err("server closed the connection before a terminal line".into());
            }
            let line = Json::parse(raw.trim()).map_err(|e| format!("bad response line: {e}"))?;
            let terminal = is_terminal(&line);
            lines.push((line, at));
            if terminal {
                return Ok(lines);
            }
        }
    }

    fn call(&mut self, req: &Json) -> Result<Json, String> {
        let (last, _) = self.request(req)?.pop().expect("request returns the terminal line");
        match last.get("error").and_then(Json::as_str) {
            Some(e) => Err(format!("server: {e}")),
            None => Ok(last),
        }
    }
}

struct Server {
    conn: LineConn,
    thread: JoinHandle<Result<(), String>>,
    sock: PathBuf,
}

impl Server {
    /// Open the engine on `dir` (timed: the recovery sweep), serve it on
    /// a fresh socket, connect and ping. Returns the open time in ms.
    fn start(dir: &Path, sock: &Path) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let engine = Engine::open_with(dir, Some(BUDGET), None)?;
        let open_ms = t.elapsed().as_secs_f64() * 1e3;
        let ep = Endpoint::unix(sock);
        let listener = Listener::bind(&ep)?;
        let opts = ServerOptions {
            socket: sock.to_path_buf(),
            workers: 1,
            queue: 4,
            cache_dir: dir.to_path_buf(),
            cache_budget: Some(BUDGET),
        };
        let thread = std::thread::spawn(move || serve_on(listener, &opts, Arc::new(engine)));
        let mut conn = LineConn::connect(sock)?;
        conn.call(&Json::object().set("op", "ping"))?;
        Ok((Server { conn, thread, sock: sock.to_path_buf() }, open_ms))
    }

    fn stats(&mut self) -> Result<Json, String> {
        let r = self.conn.call(&Json::object().set("op", "stats"))?;
        r.get("stats").cloned().ok_or_else(|| "stats reply without counters".to_string())
    }

    fn stop(mut self) -> Result<(), String> {
        self.conn.call(&Json::object().set("op", "shutdown"))?;
        drop(self.conn);
        let r = self.thread.join().map_err(|_| "server thread panicked".to_string())?;
        let _ = std::fs::remove_file(&self.sock);
        r
    }
}

/// Engine counters summed over server sessions (`store_bytes`, a gauge,
/// keeps its latest value).
#[derive(Debug, Default)]
struct Counters(BTreeMap<String, u64>);

impl Counters {
    fn add(&mut self, stats: &Json) {
        if let Json::Object(fields) = stats {
            for (k, v) in fields {
                if let Some(v) = v.as_u64() {
                    let slot = self.0.entry(k.clone()).or_default();
                    *slot = if k == "store_bytes" { v } else { *slot + v };
                }
            }
        }
    }

    fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0) as f64
    }

    fn ratio(&self, stage: &str) -> f64 {
        let h = self.get(&format!("{stage}_hits"));
        h / (h + self.get(&format!("{stage}_misses"))).max(1.0)
    }
}

/// Zipf sampler over `n` items with a seeded popularity order.
struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut item_of_rank);
        Zipf { cdf, item_of_rank }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

/// What one reply said and how long each part took.
struct Reply {
    key: usize,
    ms: f64,
    traced: bool,
    probe: usize,
    class: usize,
    /// Time after the last progress line, ms.
    tail_ms: f64,
    /// Time to serve a stage from the verified disk store (from the line
    /// before the `disk-hit` line to it), ms.
    disk_ms: Option<f64>,
    cycles: u64,
    dram_blocked_frac: f64,
}

/// The cache class of a reply (an index into `CLASSES`), the arrival
/// time of its last progress line, and how long a `disk-hit` stage took
/// to be served (ms), for a request sent at `sent`.
fn classify(
    sent: Instant,
    lines: &[(Json, Instant)],
) -> Result<(usize, Instant, Option<f64>), String> {
    let mut cache = BTreeMap::new();
    let mut last = None;
    let mut disk_ms = None;
    let mut prev = sent;
    for (l, at) in lines {
        if l.get("event").and_then(Json::as_str) == Some("stage") {
            let stage = l.get("stage").and_then(Json::as_str).unwrap_or("");
            let outcome = l.get("cache").and_then(Json::as_str).unwrap_or("");
            if outcome == "disk-hit" {
                disk_ms = Some(at.duration_since(prev).as_secs_f64() * 1e3);
            }
            cache.insert(stage.to_string(), outcome.to_string());
            last = Some(*at);
            prev = *at;
        }
    }
    let get = |s: &str| cache.get(s).map(String::as_str);
    let class = match (get("sim"), get("place"), get("compile")) {
        (Some("hit"), _, _) => 0,
        (Some("disk-hit"), _, _) => 1,
        (Some("miss"), Some("hit" | "disk-hit"), _) => 2,
        (Some("miss"), Some("miss"), Some("hit")) => 3,
        (Some("miss"), Some("miss"), Some("miss")) => 4,
        other => return Err(format!("unexpected stage sequence {other:?}")),
    };
    Ok((class, last.expect("a classified reply has progress lines"), disk_ms))
}

/// The 128 request keys (index `prog * VARIANTS + slot * 2 + dense`).
fn make_keys() -> Result<(Vec<&'static str>, Vec<Key>), String> {
    let workloads = sara_workloads::all_small();
    let mut keys = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        for slot in 0..SEED_SLOTS {
            let knobs = KnobConfig::default_for(w, "8x8", pnr_seed(i, slot))?;
            for scheduler in [Scheduler::Active, Scheduler::Dense] {
                keys.push(Key {
                    prog: i,
                    pnr_seed: knobs.pnr_seed,
                    scheduler,
                    knobs: knobs.clone(),
                });
            }
        }
    }
    Ok((workloads.iter().map(|w| w.name).collect(), keys))
}

/// Cold-path (cycles, firings) of every key: compile → place_and_route →
/// simulate with the key's scheduler, each run's DRAM checked against
/// the interpreter. A key whose cold run fails has no entry.
fn cold_reference(keys: &[Key], rep: &mut Report) -> Result<Vec<Option<Exact>>, String> {
    let (progs, _) = build_progs(false)?;
    let chip = ChipSpec::small_8x8();
    let mut out = vec![None; keys.len()];
    for (i, p) in progs.iter().enumerate() {
        let knobs = &keys[i * VARIANTS].knobs;
        let c = compile(&knobs.build_program()?, &chip, &knobs.compiler_options())
            .map_err(|e| format!("{}: compile: {e}", p.name))?;
        for pair in (i * VARIANTS..(i + 1) * VARIANTS).step_by(2) {
            let mut g = c.vudfg.clone();
            sara_pnr::place_and_route(&mut g, &c.assignment, &chip, keys[pair].pnr_seed)
                .map_err(|e| format!("{}: pnr: {e}", p.name))?;
            for k in [pair, pair + 1] {
                let cfg = SimConfig {
                    dense: keys[k].scheduler == Scheduler::Dense,
                    ..SimConfig::default()
                };
                match simulate(&g, &chip, &cfg)
                    .map_err(|e| format!("{}: sim: {e}", p.name))
                    .and_then(|o| check_dram(p, &o).map(|()| o))
                {
                    Ok(o) => {
                        out[k] = Some(Exact {
                            cycles: o.cycles,
                            firings: o.stats.firings,
                            ..Exact::default()
                        })
                    }
                    Err(e) => rep.fail(format!("cold reference: {e}")),
                }
            }
        }
    }
    Ok(out)
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let pid = std::process::id();
    let dir = PathBuf::from(format!("sarad-cache-{pid}"));
    let sock = PathBuf::from(format!("sarad-{pid}.sock"));
    let r = run_in(args, rep, &dir, &sock);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&sock);
    r
}

fn run_in(args: &Args, rep: &mut Report, dir: &Path, sock: &Path) -> Result<(), String> {
    // ---- set-up: request keys, their cold-path reference, an engine on
    // an empty cache directory, the server and the client connection ----
    let (mut setup_s, mut setup_raw) = (Vec::new(), Vec::new());
    let (mut names, mut keys, mut reference) = (Vec::new(), Vec::new(), Vec::new());
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            s.stop()?;
        }
        let _ = std::fs::remove_dir_all(dir);
        let mut ref_rep = Report::new("reference", args.seed, false);
        let (r, raw, scaled) = timed_s(|| -> Result<_, String> {
            let (names, keys) = make_keys()?;
            let reference = cold_reference(&keys, &mut ref_rep)?;
            let (server, _) = Server::start(dir, sock)?;
            Ok((names, keys, reference, server))
        });
        let (new_names, new_keys, new_reference, s) = r?;
        setup_s.push(scaled);
        setup_raw.push(raw);
        if !reference.is_empty() && reference != new_reference {
            rep.fail("set-up computed a different cold-path reference on a repeat".into());
        }
        (names, keys, reference, server) = (new_names, new_keys, new_reference, Some(s));
        for e in ref_rep.errors {
            rep.fail(e);
        }
    }
    let mut server = server.expect("SETUP_REPS > 0");
    rep.e2e.insert("setup_s", median(&setup_s));
    rep.extra.push(("raw.setup_s".into(), median(&setup_raw), "s"));
    let requests: Vec<Json> = keys.iter().map(|k| k.request(names[k.prog])).collect();

    // ---- measurement: whole sessions of whole passes ----
    let n = names.len();
    let mut rng = Rng::new(args.seed);
    let zipf: Vec<Zipf> = (0..n).map(|_| Zipf::new(VARIANTS, ZIPF_S, &mut rng)).collect();
    let mut tr = Tracer::new(Instant::now());
    let mut replies: Vec<Reply> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut counters = Counters::default();
    let (mut reopen_ms, mut ping_us, mut keys_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut probes = Probes::new();
    let start = Instant::now();
    let mut session = 0;
    while session < 2 || start.elapsed() < Duration::from_secs_f64(args.seconds) {
        if session > 0 {
            counters.add(&server.stats()?);
            server.stop()?;
            let (s, ms) = Server::start(dir, sock)?;
            server = s;
            reopen_ms.push(ms);
        }
        let traced = args.trace && session % 2 == 1;
        tr.set_enabled(traced);
        for pass in 0..SESSION_PASSES {
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            for prog in order {
                let k = prog * VARIANTS + zipf[prog].sample(&mut rng);
                if args.trace {
                    let t = Instant::now();
                    stage_keys(&keys[k].knobs, keys[k].scheduler)?;
                    keys_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if prog == 0 && pass % 2 == 0 {
                        let t = Instant::now();
                        server.conn.call(&Json::object().set("op", "ping"))?;
                        ping_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                }
                let probe = probes.tick();
                rep.attempted += 1;
                tr.set_request(rep.attempted);
                let root = tr.begin(Layer::Bench, names[prog]);
                let t = Instant::now();
                let lines = server.conn.request(&requests[k])?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                // Split the request at each line's arrival.
                let mut prev = t;
                let split = if tr.enabled() { &lines[..] } else { &[] };
                for (l, at) in split {
                    let name = match (
                        l.get("stage").and_then(Json::as_str),
                        l.get("cache").and_then(Json::as_str),
                    ) {
                        (Some(s), Some(c)) => format!("sarad.{s} {c}"),
                        _ => "sarad.reply".to_string(),
                    };
                    tr.record(Layer::Sarad, &name, prev, *at);
                    prev = *at;
                }
                tr.end_at(root, lines.last().map_or(prev, |l| l.1));

                // Check the reply against the cold path.
                let (last, done_at) = lines.last().expect("request returns the terminal line");
                if let Some(e) = last.get("error").and_then(Json::as_str) {
                    rep.fail(format!("{}: server error: {e}", names[prog]));
                    continue;
                }
                let (class, last_progress, disk_ms) = match classify(t, &lines) {
                    Ok(c) => c,
                    Err(e) => {
                        rep.fail(e);
                        continue;
                    }
                };
                let num = |f: &str| last.get(f).and_then(Json::as_u64);
                let got = (num("cycles"), num("firings"));
                let Some(want) = reference[k] else {
                    rep.fail(format!("{}: no cold-path reference", names[prog]));
                    continue;
                };
                if got != (Some(want.cycles), Some(want.firings)) {
                    rep.fail(format!(
                        "{}@{} {}: sarad replied {got:?} (cycles, firings), cold path ({}, {})",
                        names[prog],
                        keys[k].pnr_seed,
                        keys[k].scheduler.name(),
                        want.cycles,
                        want.firings
                    ));
                    continue;
                }
                replies.push(Reply {
                    key: k,
                    ms,
                    traced,
                    probe,
                    class,
                    tail_ms: done_at.duration_since(last_progress).as_secs_f64() * 1e3,
                    disk_ms,
                    cycles: want.cycles,
                    dram_blocked_frac: last
                        .get("dram_blocked_frac")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                });
                samples.push(Sample::new(class, ms, traced, Stages::default(), want.cycles, probe));
            }
        }
        session += 1;
    }
    counters.add(&server.stats()?);
    server.stop()?;
    for c in ["corrupt_detected", "save_failures", "degraded"] {
        if counters.get(c) > 0.0 {
            rep.fail(format!("sarad counter {c} = {} (must stay 0)", counters.get(c)));
        }
    }

    let sim_rate = |replies: &[Reply]| {
        let sim_only = replies.iter().filter(|r| r.class == 2 && !r.traced);
        let (c, ms) = sim_only.fold((0.0, 0.0), |(c, m), r| (c + r.cycles as f64, m + r.tail_ms));
        c / ms.max(1e-12)
    };
    let raw_sim_rate = sim_rate(&replies);
    probes.finish();
    normalize(&mut samples, &probes);
    for r in &mut replies {
        let f = probes.factor(r.probe);
        r.ms *= f;
        r.tail_ms *= f;
        r.disk_ms = r.disk_ms.map(|d| d * f);
    }

    // ---- end-to-end metrics ----
    latency_metrics(rep, &samples, &probes);
    // One design per program × seed slot: the active key of each pair
    // (every reply was checked equal to this reference).
    let designs: Vec<f64> =
        reference.iter().step_by(2).flatten().map(|e| e.cycles as f64).collect();
    rep.e2e.insert("design_cycles_geomean", geomean(&designs));
    rep.e2e.insert("sim_kcycles_per_s", sim_rate(&replies));
    rep.extra.push(("raw.sim_kcycles_per_s".into(), raw_sim_rate, "kcycles/s"));
    let class_ms = |c: usize, tail: bool| {
        let v: Vec<f64> = replies
            .iter()
            .filter(|r| r.class == c)
            .map(|r| if tail { r.tail_ms } else { r.ms })
            .collect();
        median(&v)
    };
    let hit_us = class_ms(0, false) * 1e3;
    let disk_ms = median(&replies.iter().filter_map(|r| r.disk_ms).collect::<Vec<_>>());
    rep.extra.push(("hit_us_p50".into(), hit_us, "us"));
    rep.extra.push(("disk_hit_ms_p50".into(), disk_ms, "ms"));
    for (c, name) in CLASSES.iter().enumerate() {
        let count = replies.iter().filter(|r| r.class == c).count();
        rep.extra.push((format!("requests.{name}"), count as f64, "count"));
    }

    // ---- per-layer metrics ----
    rep.layer.insert("sarad.hit_us_p50", hit_us);
    rep.layer.insert("sarad.disk_hit_ms_p50", disk_ms);
    rep.layer.insert("sarad.sim_ms", class_ms(2, true));
    rep.layer.insert("sarad.place_ms", class_ms(3, true));
    rep.layer.insert("sarad.compile_ms", class_ms(4, true));
    rep.layer.insert("sarad.keys_us", median(&keys_us));
    rep.layer.insert("server.ping_us", median(&ping_us));
    rep.layer.insert("sarad.reopen_ms", median(&reopen_ms));
    rep.layer.insert("sarad.hit_ratio.compile", counters.ratio("compile"));
    rep.layer.insert("sarad.hit_ratio.place", counters.ratio("place"));
    rep.layer.insert("sarad.hit_ratio.sim", counters.ratio("sim"));
    rep.layer.insert("store.disk_hits", counters.get("disk_hits"));
    rep.layer.insert("store.evictions", counters.get("evictions"));
    rep.layer.insert("store.bytes", counters.get("store_bytes"));
    rep.layer.insert("store.corrupt_detected", counters.get("corrupt_detected"));
    rep.layer.insert("store.save_failures", counters.get("save_failures"));
    rep.layer.insert("sarad.degraded", counters.get("degraded"));
    let fracs: Vec<f64> = replies.iter().map(|r| r.dram_blocked_frac).collect();
    rep.layer
        .insert("sim.dram_blocked_frac", fracs.iter().sum::<f64>() / fracs.len().max(1) as f64);
    if args.trace {
        trace_metrics(rep, &tr, &samples, CLASSES.len());
        write_trace(args, &tr)?;
    }

    // ---- per-program rows and exact counts ----
    for (i, name) in names.iter().enumerate() {
        let ms: Vec<f64> = replies.iter().filter(|r| keys[r.key].prog == i).map(|r| r.ms).collect();
        rep.rows.push(Row {
            name: name.to_string(),
            requests: ms.len(),
            p50_ms: median(&ms),
            total_ms: ms.iter().sum(),
            exact: reference[i * VARIANTS].unwrap_or_default(),
        });
    }
    for (k, ex) in reference.iter().enumerate() {
        if let Some(ex) = ex {
            let key = &keys[k];
            rep.exact.insert(
                format!("{}@{}/{}", names[key.prog], key.pnr_seed, key.scheduler.name()),
                *ex,
            );
        }
    }
    Ok(())
}
