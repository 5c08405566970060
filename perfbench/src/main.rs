//! The repository benchmark: four workloads run through the public
//! experiment API, every output checked, end-to-end metrics with
//! tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <contended|io|quiescent|paper-artifacts>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --emit-reference --workload <sweep workload> --seed <n>
//! ```
//!
//! Run it from the repository root (it reads `tests/goldens/`). The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; progress and
//! mismatches go to standard error. `--emit-reference` prints the
//! dense-oracle reference of a sweep workload at a seed, the format
//! of the committed `reference/<workload>.seed0` files.
//! See `perfbench/README.md` for the metrics.

mod oracle;
mod speed;
mod traced;
mod workload;

use std::panic::catch_unwind;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use aql_experiments::{execute, ExecOpts};
use aql_hv::TimeMode;

use oracle::CellRef;
use workload::{Artifact, Sweep, Workload, ARTIFACTS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        emit_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-reference" {
            args.emit_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

/// Cells attempted and failed over a run; a failure is reported on
/// standard error.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: MISMATCH {e}");
            }
        }
    }
}

/// Set-up passes take 0.1–2 ms: a slice of them this long (and at
/// least `SETUP_MIN_PASSES`) runs before every repetition, so set-up
/// is sampled across the whole run rather than in one burst.
const SETUP_SLICE: Duration = Duration::from_millis(30);
const SETUP_MIN_PASSES: usize = 3;

/// Median of a non-empty sample (sorts it).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Alternates set-up slices with timed repetitions until `seconds`
/// have elapsed (at least one repetition). A repetition runs the
/// plan's `parts` (cells, or artifacts) in order through `part`, which
/// returns the part's elapsed time, with a host-speed probe before the
/// first part and after each one. Each repetition and its set-up slice
/// are scaled to reference host speed by the median of its probes (see
/// [`speed`]). Returns, in seconds, the sum over parts of each part's
/// lower-quartile scaled time, and the lower quartile of the scaled
/// set-up passes.
fn measure(
    seconds: f64,
    mut setup: impl FnMut() -> Result<(), String>,
    parts: usize,
    mut part: impl FnMut(usize) -> Result<f64, String>,
) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let (mut walls, mut setups, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    // Each part's scaled time in every repetition.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); parts];
    let mut probe = speed::Probe::new();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut probes = vec![probe.time()];
        let (slice, mut passes) = (Instant::now(), Vec::new());
        while passes.len() < SETUP_MIN_PASSES || slice.elapsed() < SETUP_SLICE {
            let t = Instant::now();
            setup()?;
            passes.push(t.elapsed().as_secs_f64());
        }
        let mut wall = Vec::with_capacity(parts);
        for i in 0..parts {
            wall.push(part(i)?);
            probes.push(probe.time());
        }
        let scale = speed::REFERENCE_S / median(&mut probes);
        for (t, w) in times.iter_mut().zip(&wall) {
            t.push(w * scale);
        }
        walls.push(wall.iter().sum::<f64>() * scale);
        setups.extend(passes.iter().map(|s| s * scale));
        speeds.push(1.0 / scale);
    }
    let wall = times.iter_mut().map(|t| lower_quartile(t)).sum();
    eprintln!("perfbench: repetition wall times at reference speed (s): {walls:.4?}; host slowdown: {speeds:.3?}; parts' lower quartiles: {wall:.4}");
    Ok((wall, lower_quartile(&mut setups)))
}

/// Lower quartile of a non-empty sample (sorts it). Load the probe
/// misses only ever adds time, so this is steadier than the median and
/// less luck than the minimum.
fn lower_quartile(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[(xs.len() - 1) / 4]
}

/// Runs one artifact serially and formats it as its golden; `None` if
/// it panicked.
pub fn run_artifact(a: &Artifact) -> Option<String> {
    catch_unwind(|| workload::golden_text(&(a.run)(&ExecOpts::serial()))).ok()
}

/// Byte-compares every artifact against its golden.
pub fn check_artifacts(texts: &[Option<String>], goldens: &[String], tally: &mut Tally) {
    for ((a, text), want) in ARTIFACTS.iter().zip(texts).zip(goldens) {
        tally.check(check_artifact(a, text, want));
    }
}

fn check_artifact(a: &Artifact, text: &Option<String>, want: &str) -> Result<(), String> {
    match text {
        Some(t) if t == want => Ok(()),
        Some(_) => Err(format!("{}: output differs from its golden", a.name)),
        None => Err(format!("{}: panicked", a.name)),
    }
}

/// Host memory high-water mark of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn committed_reference(name: &str) -> Option<&'static str> {
    match name {
        "contended" => Some(include_str!("../reference/contended.seed0")),
        "io" => Some(include_str!("../reference/io.seed0")),
        "quiescent" => Some(include_str!("../reference/quiescent.seed0")),
        _ => None,
    }
}

/// The dense-oracle reference of a sweep workload at a seed.
fn dense_reference(w: &Sweep, seed: u64) -> Result<Vec<CellRef>, String> {
    let cells = w.cells(seed)?;
    let opts = ExecOpts {
        threads: 2,
        time_mode: TimeMode::Dense,
        ..ExecOpts::default()
    };
    oracle::reference_of(&cells, &execute(&cells, &opts)?)
}

/// The reference for an end-to-end run: committed at seed 0,
/// otherwise produced by a child process (so its memory stays out of
/// this process's high-water mark).
fn reference(name: &str, seed: u64) -> Result<Vec<CellRef>, String> {
    if seed == 0 {
        if let Some(text) = committed_reference(name) {
            return oracle::decode(text);
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let out = Command::new(exe)
        .args(["--emit-reference", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot run the reference child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reference child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    oracle::decode(&String::from_utf8_lossy(&out.stdout))
}

struct Outcome {
    correct: bool,
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

fn end_to_end(
    wall_s: f64,
    sim_s: f64,
    setup_s: f64,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    Ok(vec![
        ("wall_s".into(), wall_s, "s"),
        ("sim_rate".into(), sim_s / wall_s, "s/s"),
        ("setup_s".into(), setup_s, "s"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
    ])
}

fn sweep_e2e(w: &Sweep, args: &Args) -> Result<Outcome, String> {
    let reference = reference(&args.workload, args.seed)?;
    let self_test = oracle::self_test();
    let cells = w.setup(args.seed)?;
    oracle::matches_plan(&reference, &cells)?;
    let sim_s: f64 = cells
        .iter()
        .zip(&reference)
        .filter(|(_, r)| r.fields.is_some())
        .map(|(c, _)| (c.spec.warmup_ns + c.spec.measure_ns) as f64 / 1e9)
        .sum();
    let opts = ExecOpts::serial();
    let mut tally = Tally::default();
    let setup = || w.setup(args.seed).map(drop);
    // One plan per cell, so the host-speed probes fall between cells.
    let (wall_s, setup_s) = measure(args.seconds, setup, cells.len(), |i| {
        let t = Instant::now();
        let results = execute(&cells[i..=i], &opts)?;
        let wall = t.elapsed().as_secs_f64();
        tally.check(oracle::check_cell(&reference[i], &results[0]));
        Ok(wall)
    })?;
    Ok(Outcome {
        correct: report_self_test(self_test),
        metrics: end_to_end(wall_s, sim_s, setup_s)?,
        tally,
    })
}

fn artifacts_e2e(args: &Args) -> Result<Outcome, String> {
    let self_test = oracle::self_test();
    let goldens = workload::artifact_setup()?;
    let mut tally = Tally::default();
    let setup = || workload::artifact_setup().map(drop);
    let (wall_s, setup_s) = measure(args.seconds, setup, ARTIFACTS.len(), |i| {
        let t = Instant::now();
        let text = run_artifact(&ARTIFACTS[i]);
        let wall = t.elapsed().as_secs_f64();
        tally.check(check_artifact(&ARTIFACTS[i], &text, &goldens[i]));
        Ok(wall)
    })?;
    let sim_s = ARTIFACTS.iter().map(|a| a.sim_ns as f64 / 1e9).sum();
    Ok(Outcome {
        correct: report_self_test(self_test),
        metrics: end_to_end(wall_s, sim_s, setup_s)?,
        tally,
    })
}

fn traced_run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let self_test = oracle::self_test();
    let mut layers = traced::Layers::new();
    let mut tally = Tally::default();
    match w {
        Workload::Sweep(s) => {
            let committed = match (args.seed, committed_reference(&args.workload)) {
                (0, Some(text)) => Some(oracle::decode(text)?),
                _ => None,
            };
            traced::sweep(s, args.seed, committed, &mut layers, &mut tally)?;
        }
        Workload::Artifacts => {
            let goldens = workload::load_goldens()?;
            traced::artifacts(&goldens, &mut layers, &mut tally);
        }
    }
    traced::mem_kernels(&mut layers);
    traced::core_kernels(&mut layers);
    let catalog = traced::catalog();
    if let Some(stray) = layers
        .keys()
        .find(|k| !catalog.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("per-layer metric '{stray}' is not in the catalog"));
    }
    let metrics = catalog
        .into_iter()
        .map(|(n, unit)| {
            let v = layers.get(&n).copied().unwrap_or(0.0);
            (n, v, unit)
        })
        .collect();
    Ok(Outcome {
        correct: report_self_test(self_test),
        tally,
        metrics,
    })
}

fn report_self_test(outcome: Result<(), String>) -> bool {
    if let Err(e) = &outcome {
        eprintln!("perfbench: {e}");
    }
    outcome.is_ok()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = workload::by_name(&args.workload)?;
    if args.emit_reference {
        let Workload::Sweep(s) = &w else {
            return Err("--emit-reference takes a sweep workload".into());
        };
        print!("{}", oracle::encode(&dense_reference(s, args.seed)?));
        return Ok(());
    }
    let outcome = match (&w, args.trace) {
        (_, true) => traced_run(&w, &args)?,
        (Workload::Sweep(s), false) => sweep_e2e(s, &args)?,
        (Workload::Artifacts, false) => artifacts_e2e(&args)?,
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let failed = outcome.tally.failed;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.correct && failed == 0,
        outcome.tally.attempted,
        metrics.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
