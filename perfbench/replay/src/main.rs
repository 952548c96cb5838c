//! Traced in-process replay of one `hprc-exp` benchmark workload.
//!
//! Usage: `perfbench-replay --mode quiet|traced|resume [--jobs N]
//! [--seed S] --run DIR --stdout FILE`
//!
//! The replay does what the CLI invocation of the workload does, through
//! the crates' public functions, and records a span around each call:
//! compute (`run_experiment`), render, CSV series, Chrome trace,
//! attribution, registry snapshot, journal export, sealing, manifest
//! appends, and on resume the manifest parse and the per-artifact CRC
//! verification. Run artifacts land under `DIR/out` and `DIR/trace`
//! (resume only reads them) and the text the CLI would print goes to
//! FILE, so the caller can check both byte for byte against the CLI.
//!
//! The per-layer metrics of the replay are printed as one JSON object.
//! `sched.*`, `sim.*` and `virt.*` self times and counters come from
//! the program's own registry spans, so they describe an instrumented
//! run: the traced workload's own registries, or for the quiet
//! workloads a second, separate pass under a live registry.

mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use hprc_ctx::ExecCtx;
use hprc_exp::recover::{self, PointDisposition, PointRecord};
use hprc_exp::report::Report;
use hprc_exp::{ExpError, ALL_EXPERIMENTS};
use hprc_obs::manifest::{ArtifactDirKind, Manifest};
use hprc_obs::{artifact, ArtifactState, DeltaCache, Journal, Registry, Snapshot};

use spans::Recorder;

const USAGE: &str = "usage: perfbench-replay --mode quiet|traced|resume [--jobs N] [--seed S] \
                     --run DIR --stdout FILE";

/// The run id every benchmark invocation uses (the CLI default).
const RUN_ID: &str = "run";

/// Registry span names of the substrate layers, and the metric each
/// one's self time is reported under.
const SUBSTRATE_SPANS: [(&str, &str); 9] = [
    ("sched.simulate", "sched.simulate_ms"),
    ("sched.simulate_faulty", "sched.simulate_faulty_ms"),
    ("sched.simulate_preemptive", "sched.simulate_preemptive_ms"),
    ("sim.run_prtr", "sim.run_prtr_ms"),
    ("sim.run_frtr", "sim.run_frtr_ms"),
    ("sim.run_preemptive", "sim.run_preemptive_ms"),
    ("virt.run", "virt.run_ms"),
    ("virt.run_faulty", "virt.run_ms"),
    ("virt.run_flexible", "virt.run_ms"),
];

/// Replay spans reported as `<name>_ms` self time.
const TIMED_SPANS: [&str; 11] = [
    "exp.series",
    "exp.render",
    "exp.chrome_trace",
    "exp.attribution",
    "obs.registry.snapshot",
    "obs.journal.to_jsonl",
    "obs.artifact.seal",
    "obs.manifest.append",
    "obs.artifact.verify",
    "exp.recover.parse",
    "exp.recover.disposition",
];

/// Metrics that are counts or ratios rather than span self times.
const OTHER_METRICS: [&str; 14] = [
    "sim.prtr.calls",
    "sched.hit_ratio",
    "sim.calls_per_host_s",
    "obs.delta.lookups",
    "obs.delta.useful_ratio",
    "obs.delta.replayed_ratio",
    "obs.delta.held_mb",
    "obs.journal.mb",
    "obs.artifact.seals",
    "obs.artifact.sealed_mb",
    "obs.manifest.appends",
    "obs.artifact.verifies",
    "obs.artifact.verified_mb",
    "exp.unattributed_ms",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Quiet,
    Traced,
    Resume,
}

struct Args {
    mode: Mode,
    jobs: usize,
    seed: u64,
    run: PathBuf,
    stdout: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut mode, mut jobs, mut seed, mut run, mut stdout) = (None, 1usize, 0u64, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--mode" => {
                mode = Some(match value.as_str() {
                    "quiet" => Mode::Quiet,
                    "traced" => Mode::Traced,
                    "resume" => Mode::Resume,
                    other => return Err(format!("unknown mode {other:?}")),
                })
            }
            "--jobs" => match value.parse::<usize>() {
                Ok(n) if n > 0 => jobs = n,
                _ => return Err(format!("--jobs needs a positive integer, got {value:?}")),
            },
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got {value:?}"))?
            }
            "--run" => run = Some(PathBuf::from(value)),
            "--stdout" => stdout = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("--mode is required")?,
        jobs,
        seed,
        run: run.ok_or("--run is required")?,
        stdout: stdout.ok_or("--stdout is required")?,
    })
}

/// Per-layer metrics of one replay, every name present from the start.
struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn new() -> Self {
        let mut m = BTreeMap::new();
        let names = ALL_EXPERIMENTS
            .iter()
            .map(|id| format!("exp.compute.{id}_ms"))
            .chain(SUBSTRATE_SPANS.iter().map(|(_, m)| m.to_string()))
            .chain(TIMED_SPANS.iter().map(|s| format!("{s}_ms")))
            .chain(OTHER_METRICS.iter().map(|s| s.to_string()))
            .chain(["bench.replay_ms".to_string()]);
        for name in names {
            m.insert(name, 0.0);
        }
        Layers(m)
    }

    fn add(&mut self, name: &str, v: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared")) += v;
    }

    fn set(&mut self, name: &str, v: f64) {
        self.add(name, v - self.0[name]);
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Byte and call counts gathered while committing.
#[derive(Default)]
struct Counts {
    seals: u64,
    sealed_bytes: u64,
    appends: u64,
    journal_bytes: u64,
}

/// Adds the substrate self times and counters of one experiment's
/// registry snapshot; returns the µs its substrate spans account for.
fn absorb_snapshot(layers: &mut Layers, snap: &Snapshot, hits: &mut (u64, u64)) -> u64 {
    let mut substrate_us = 0;
    for (name, us) in spans::registry_self_times(&snap.spans) {
        if let Some((_, metric)) = SUBSTRATE_SPANS.iter().find(|(s, _)| *s == name) {
            layers.add(metric, us as f64 / 1e3);
            substrate_us += us;
        }
    }
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    layers.add("sim.prtr.calls", counter("sim.prtr.calls") as f64);
    let sim_calls = counter("sim.prtr.calls") + counter("sim.frtr.calls");
    layers.add("sim.calls_per_host_s", sim_calls as f64);
    for (name, v) in &snap.counters {
        let Some(policy) = name.strip_prefix("sched.") else {
            continue;
        };
        if let Some(p) = policy.strip_suffix(".calls") {
            if p != "fault" {
                hits.1 += v;
            }
        } else if let Some(p) = policy.strip_suffix(".hits") {
            if p != "fault" {
                hits.0 += v;
            }
        }
    }
    substrate_us
}

/// Turns the summed simulated-call count into calls per host second of
/// executor self time, and the hit/call sums into the hit ratio.
fn finish_substrate(layers: &mut Layers, hits: (u64, u64)) {
    let sim_s = (layers.get("sim.run_prtr_ms") + layers.get("sim.run_frtr_ms")) / 1e3;
    let calls = layers.get("sim.calls_per_host_s");
    layers.set(
        "sim.calls_per_host_s",
        if sim_s > 0.0 { calls / sim_s } else { 0.0 },
    );
    layers.set("sched.hit_ratio", ratio(hits.0, hits.1));
}

fn context(id: &str, seed: u64, traced: bool, delta: &DeltaCache) -> ExecCtx {
    ExecCtx::default()
        .with_registry(if traced {
            Registry::new()
        } else {
            Registry::noop()
        })
        .with_journal(if traced {
            Journal::new(hprc_exp::journal_salt(id, seed))
        } else {
            Journal::noop()
        })
        .with_seed(seed)
        .with_jobs(1)
        .with_delta(delta.clone())
}

/// Everything one commit needs besides the experiment itself.
struct Sink<'a> {
    rec: &'a Recorder,
    out_dir: &'a Path,
    trace_dir: Option<&'a Path>,
    manifest: Manifest,
    stdout: String,
    counts: Counts,
    snapshots: BTreeMap<String, Snapshot>,
}

impl Sink<'_> {
    fn append(
        &mut self,
        f: impl FnOnce(&mut Manifest) -> std::io::Result<u64>,
    ) -> Result<(), String> {
        let manifest = &mut self.manifest;
        self.rec
            .time(0, "obs.manifest.append", || f(manifest))
            .map_err(|e| format!("manifest append: {e}"))?;
        self.counts.appends += 1;
        Ok(())
    }

    /// Mirrors the CLI's per-point commit: print the report, log
    /// `point-begin`, assemble and seal every artifact in the CLI's
    /// order, log each seal, then `point-complete`.
    fn commit(&mut self, id: &str, report: &Report, ctx: &ExecCtx) -> Result<(), String> {
        let rec = self.rec;
        let (text, json) = rec.time(0, "exp.render", || (report.render(), report.json_text()));
        self.stdout.push_str(&text);
        self.stdout.push_str("\n\n");
        self.append(|m| m.point_begin(id))?;
        let err = |e: ExpError| format!("{id}: {e}");
        let mut blobs = Vec::new();
        let mut blob = |dir, ext: &str, text: String| {
            blobs.push((dir, format!("{id}.{ext}"), text.into_bytes()))
        };
        blob(ArtifactDirKind::Out, "json", json);
        if let Some(csv) = rec
            .time(0, "exp.series", || hprc_exp::series_text(id, ctx))
            .map_err(err)?
        {
            blob(ArtifactDirKind::Out, "csv", csv);
        }
        if self.trace_dir.is_some() {
            let trace = rec.time(0, "exp.chrome_trace", || {
                hprc_exp::chrome_trace(id, ctx)?
                    .map(|events| serde_json::to_string(&events).map_err(ExpError::from))
                    .transpose()
            });
            if let Some(t) = trace.map_err(err)? {
                blob(ArtifactDirKind::Trace, "trace.json", t);
            }
            let attr = rec.time(0, "exp.attribution", || {
                hprc_exp::attribution(id, ctx)
                    .map(|a| serde_json::to_string_pretty(&a).map_err(ExpError::from))
                    .transpose()
            });
            if let Some(a) = attr.map_err(err)? {
                blob(ArtifactDirKind::Trace, "attr.json", a);
            }
            let (snap, metrics) = rec.time(0, "obs.registry.snapshot", || {
                let snap = ctx.registry.snapshot();
                let text = serde_json::to_string_pretty(&snap).map_err(ExpError::from);
                (snap, text)
            });
            blob(
                ArtifactDirKind::Trace,
                "metrics.json",
                metrics.map_err(err)?,
            );
            self.snapshots.insert(id.to_string(), snap);
            let journal = rec.time(0, "obs.journal.to_jsonl", || {
                ctx.journal.to_jsonl(id, ctx.seed)
            });
            self.counts.journal_bytes += journal.len() as u64;
            blob(ArtifactDirKind::Trace, "journal.jsonl", journal);
        }
        for (dir, name, bytes) in blobs {
            let base = match dir {
                ArtifactDirKind::Out => self.out_dir,
                ArtifactDirKind::Trace => {
                    self.trace_dir.expect("trace blobs only exist when traced")
                }
            };
            let path = base.join(&name);
            let crc = rec
                .time(0, "obs.artifact.seal", || artifact::seal(&path, &bytes))
                .map_err(|e| format!("seal {}: {e}", path.display()))?;
            self.counts.seals += 1;
            self.counts.sealed_bytes += bytes.len() as u64;
            self.append(|m| m.artifact_sealed(id, dir, &name, crc, bytes.len() as u64))?;
        }
        self.append(|m| m.point_complete(id))
    }
}

/// The metrics every replay derives from its own spans over `[t0, t1)`:
/// wall time, unattributed time and the `TIMED_SPANS` self times. Also
/// returns the self time of every span name.
fn span_layers(rec: &Recorder, t0: u64, t1: u64) -> (Layers, BTreeMap<String, u64>) {
    let recs = rec.records();
    let mut layers = Layers::new();
    layers.set("bench.replay_ms", ms(t1 - t0));
    layers.set("exp.unattributed_ms", ms(spans::uncovered(&recs, t0, t1)));
    let self_ns = spans::self_times(&recs);
    for name in TIMED_SPANS {
        if let Some(ns) = self_ns.get(name) {
            layers.set(&format!("{name}_ms"), ms(*ns));
        }
    }
    (layers, self_ns)
}

/// Replays `hprc-exp --jobs N [--trace trace] --out out all`.
fn replay_run(args: &Args) -> Result<Layers, String> {
    let traced = args.mode == Mode::Traced;
    let ids: Vec<String> = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    let out_dir = args.run.join("out");
    let trace_dir = args.run.join("trace");
    let rec = Recorder::new();
    let t0 = rec.now();

    let delta = DeltaCache::new(hprc_obs::DEFAULT_DELTA_BYTES);
    let contexts: Vec<ExecCtx> = ids
        .iter()
        .map(|id| context(id, args.seed, traced, &delta))
        .collect();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    if traced {
        std::fs::create_dir_all(&trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;
    }
    let mpath = recover::manifest_path(&out_dir, RUN_ID);
    let manifest = rec
        .time(0, "obs.manifest.append", || Manifest::create(&mpath, None))
        .map_err(|e| format!("{}: {e}", mpath.display()))?;
    let mut sink = Sink {
        rec: &rec,
        out_dir: &out_dir,
        trace_dir: traced.then_some(trace_dir.as_path()),
        manifest,
        stdout: String::new(),
        counts: Counts {
            appends: 1,
            ..Counts::default()
        },
        snapshots: BTreeMap::new(),
    };
    sink.append(|m| m.intent(RUN_ID, &ids, args.seed, traced))?;

    let compute = |lane: usize, i: usize| {
        rec.time(lane, format!("exp.compute.{}", ids[i]), || {
            hprc_exp::run_experiment(&ids[i], &contexts[i])
        })
        .map_err(|e| format!("{}: {e}", ids[i]))
    };
    let workers = args.jobs.min(ids.len());
    if workers <= 1 {
        for i in 0..ids.len() {
            let report = compute(0, i)?;
            sink.commit(&ids[i], &report, &contexts[i])?;
        }
    } else {
        // The CLI's committer: workers compute in parallel, this thread
        // commits in id order.
        let slots: Mutex<Vec<Option<Result<Report, String>>>> =
            Mutex::new((0..ids.len()).map(|_| None).collect());
        let ready = Condvar::new();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| -> Result<(), String> {
            for lane in 1..=workers {
                let (slots, ready, next, compute, ids) = (&slots, &ready, &next, &compute, &ids);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ids.len() {
                        break;
                    }
                    let result = compute(lane, i);
                    slots.lock().expect("commit slots poisoned")[i] = Some(result);
                    ready.notify_all();
                });
            }
            for i in 0..ids.len() {
                let mut guard = slots.lock().expect("commit slots poisoned");
                let result = loop {
                    if let Some(r) = guard[i].take() {
                        break r;
                    }
                    guard = ready.wait(guard).expect("commit slots poisoned");
                };
                drop(guard);
                sink.commit(&ids[i], &result?, &contexts[i])?;
            }
            Ok(())
        })?;
    }
    sink.append(|m| m.run_complete())?;
    sink.stdout.push_str("artifacts written to out/\n");
    if traced {
        sink.stdout.push_str("metrics + traces written to trace/\n");
    }
    rec.time(0, "exp.stdout", || {
        std::fs::write(&args.stdout, &sink.stdout)
    })
    .map_err(|e| format!("{}: {e}", args.stdout.display()))?;
    let t1 = rec.now();

    let (mut layers, self_ns) = span_layers(&rec, t0, t1);
    let Counts {
        seals,
        sealed_bytes,
        appends,
        journal_bytes,
    } = sink.counts;
    layers.set("obs.artifact.seals", seals as f64);
    layers.set("obs.artifact.sealed_mb", mb(sealed_bytes));
    layers.set("obs.manifest.appends", appends as f64);
    layers.set("obs.journal.mb", mb(journal_bytes));
    if let Some(account) = delta.account() {
        layers.set("obs.delta.lookups", account.lookups as f64);
        layers.set(
            "obs.delta.useful_ratio",
            ratio(account.full_hits + account.resumes, account.lookups),
        );
        layers.set(
            "obs.delta.replayed_ratio",
            ratio(
                account.calls_replayed,
                account.calls_replayed + account.calls_resimulated,
            ),
        );
        layers.set("obs.delta.held_mb", mb(account.bytes_held));
    }

    // Substrate layers: the traced run's own registries, or a separate
    // instrumented pass for the quiet workloads.
    let snapshots = if traced {
        sink.snapshots
    } else {
        instrumented_pass(&ids, args.seed)?
    };
    let mut hits = (0, 0);
    for id in &ids {
        let compute_ns = self_ns
            .get(&format!("exp.compute.{id}"))
            .copied()
            .ok_or_else(|| format!("no compute span for {id}"))?;
        // Under a live registry the substrate spans nest inside compute.
        let substrate_us = match (traced, snapshots.get(id)) {
            (true, Some(snap)) => absorb_snapshot(&mut layers, snap, &mut hits),
            (false, Some(snap)) => {
                absorb_snapshot(&mut layers, snap, &mut hits);
                0
            }
            (_, None) => return Err(format!("no registry snapshot for {id}")),
        };
        layers.set(
            &format!("exp.compute.{id}_ms"),
            (ms(compute_ns) - substrate_us as f64 / 1e3).max(0.0),
        );
    }
    finish_substrate(&mut layers, hits);
    Ok(layers)
}

/// Runs every experiment once more under a live registry (no journal,
/// fresh delta cache, serial) and returns the registry snapshots.
fn instrumented_pass(ids: &[String], seed: u64) -> Result<BTreeMap<String, Snapshot>, String> {
    let delta = DeltaCache::new(hprc_obs::DEFAULT_DELTA_BYTES);
    let mut out = BTreeMap::new();
    for id in ids {
        let ctx = context(id, seed, false, &delta).with_registry(Registry::new());
        hprc_exp::run_experiment(id, &ctx).map_err(|e| format!("{id}: {e}"))?;
        out.insert(id.clone(), ctx.registry.snapshot());
    }
    Ok(out)
}

/// Mirrors `recover::disposition`, with the CRC verification of each
/// sealed artifact in a span of its own.
fn disposition(
    rec: &Recorder,
    point: Option<&PointRecord>,
    out_dir: &Path,
    trace_dir: &Path,
    verified: &mut (u64, u64),
) -> PointDisposition {
    let Some(point) = point else {
        return PointDisposition::Redo("never started".to_string());
    };
    if !point.complete {
        return PointDisposition::Redo(if point.begun {
            "interrupted mid-commit".to_string()
        } else {
            "never started".to_string()
        });
    }
    if point.sealed.is_empty() {
        return PointDisposition::Redo("complete but no sealed artifacts".to_string());
    }
    for a in &point.sealed {
        let path = match a.dir {
            ArtifactDirKind::Out => out_dir.join(&a.name),
            ArtifactDirKind::Trace => trace_dir.join(&a.name),
        };
        let state = rec.time(0, "obs.artifact.verify", || artifact::verify(&path));
        verified.0 += 1;
        match state {
            ArtifactState::Clean { crc, bytes } if crc == a.crc && bytes == a.bytes => {
                verified.1 += bytes
            }
            ArtifactState::Clean { .. } => {
                return PointDisposition::Redo(format!(
                    "{}: sealed contents differ from the manifest record",
                    a.name
                ))
            }
            state => return PointDisposition::Redo(format!("{}: {state}", a.name)),
        }
    }
    PointDisposition::Salvage
}

/// Replays `hprc-exp resume run --out out --trace trace` on a complete
/// traced run: parse the manifest, verify every sealed artifact, and
/// report that nothing is left to do. The run is only read.
fn replay_resume(args: &Args) -> Result<Layers, String> {
    let out_dir = args.run.join("out");
    let trace_dir = args.run.join("trace");
    let rec = Recorder::new();
    let t0 = rec.now();
    let mpath = recover::manifest_path(&out_dir, RUN_ID);
    let parsed = rec.time(0, "exp.recover.parse", || {
        let text =
            std::fs::read_to_string(&mpath).map_err(|e| format!("{}: {e}", mpath.display()))?;
        recover::parse_manifest(&text).map_err(|e| format!("{}: {e}", mpath.display()))
    })?;
    if !parsed.trace {
        return Err("the prepared run wrote no trace artifacts".to_string());
    }
    let mut stdout = String::new();
    let mut verified = (0u64, 0u64);
    let mut salvaged = 0usize;
    for id in &parsed.ids {
        let d = rec.time(0, "exp.recover.disposition", || {
            disposition(
                &rec,
                parsed.points.get(id),
                &out_dir,
                &trace_dir,
                &mut verified,
            )
        });
        match d {
            PointDisposition::Salvage => {
                stdout.push_str(&format!(
                    "salvage {id}: all sealed artifacts verify clean\n"
                ));
                salvaged += 1;
            }
            PointDisposition::Redo(reason) => {
                return Err(format!(
                    "{id} needs re-execution ({reason}); the replay covers a no-op resume only"
                ))
            }
        }
    }
    if !parsed.run_complete {
        return Err("the prepared run is not complete".to_string());
    }
    stdout.push_str(&format!(
        "nothing to do: run {RUN_ID} is complete and all {salvaged} artifacts verify clean\n"
    ));
    rec.time(0, "exp.stdout", || std::fs::write(&args.stdout, &stdout))
        .map_err(|e| format!("{}: {e}", args.stdout.display()))?;
    let t1 = rec.now();

    let (mut layers, _) = span_layers(&rec, t0, t1);
    layers.set("obs.artifact.verifies", verified.0 as f64);
    layers.set("obs.artifact.verified_mb", mb(verified.1));
    Ok(layers)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.mode {
        Mode::Quiet | Mode::Traced => replay_run(&args),
        Mode::Resume => replay_resume(&args),
    };
    match result.and_then(|layers| serde_json::to_string(&layers.0).map_err(|e| e.to_string())) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
