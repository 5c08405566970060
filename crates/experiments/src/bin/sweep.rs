//! `sweep` — fans a scenario × policy × seed matrix across cores and
//! prints one aggregated comparison table.
//!
//! Usage:
//!
//! ```text
//! sweep [options]
//!
//! options:
//!   --scenarios a,b,c   catalog entries to sweep (default: all)
//!   --policies a,b      policies to compare (default: all five)
//!   --seeds N           replicates per scenario (default: 1)
//!   --threads N         worker threads (default: all cores)
//!   --quick             shorten warm-up/measurement (CI smoke)
//!   --time-mode M       adaptive (default), dense, or both: `both`
//!                       runs the matrix under each mode, asserts the
//!                       aggregate tables are byte-identical, and
//!                       reports the wall-clock speedup
//!   --oracle-sample N   with `both`, run the comparison on a seeded
//!                       rotation of N scenarios instead of the full
//!                       list (the CI dense-oracle sampling knob)
//!   --oracle-seed S     rotation seed for `--oracle-sample`
//!                       (default: 0; CI derives it from the commit
//!                       count so the subset advances PR over PR)
//!   --bench-json PATH   with `both`, write the timing comparison as
//!                       JSON (the CI perf-smoke writes
//!                       BENCH_sweep.json); otherwise record this
//!                       run's wall time (and failure count) under a
//!                       `sweep[_quick][_filesN][_dense]` key
//!   --scenario-file F   sweep scenario documents parsed from the
//!                       given files (comma-separated) instead of the
//!                       catalog; combine with --scenarios to add
//!                       catalog entries too
//!   --max-cell-wall D   wall-clock budget per cell attempt
//!                       (`250ms`, `30s`, …; default: unlimited)
//!   --retries N         retry environmental (wall-budget) cell
//!                       failures up to N times (default: 0)
//!   --journal PATH      append finished cells to a crash-safe JSONL
//!                       journal
//!   --resume            skip cells already in the journal; the table
//!                       is byte-identical to a clean run
//!   --fail-fast         abort on the first cell failure instead of
//!                       rendering FAIL
//!   --list              print the catalog and exit
//!   --show NAME         print a scenario document and exit
//! ```
//!
//! A failed cell (injected fault, livelock, blown budget) never takes
//! the sweep down: it renders as `FAIL`, its classification is printed
//! after the table, and every surviving row is byte-identical to a
//! sweep without the broken cell. Exit code stays 0 — containment is
//! the contract; use `--fail-fast` to turn failures back into aborts.
//!
//! The emitted table is byte-identical across repeated same-seed runs
//! and across `--threads` values; per-replicate seeds derive from the
//! scenario names alone. The table is also saved as CSV under
//! `results/`.

use std::fmt::Write as _;
use std::process::ExitCode;

use aql_experiments::emit::{save_and_print, update_bench_json};
use aql_experiments::json::Json;
use aql_experiments::plan::{flag_value, number_value};
use aql_experiments::sweep::{run_sweep, run_sweep_on, SweepConfig, SweepOutcome};
use aql_scenarios::{catalog, ScenarioSpec, TimeMode};

fn usage() -> String {
    format!(
        "usage: sweep [--scenarios a,b,c] [--scenario-file f.scn,g.scn] \
         [--policies a,b] [--seeds N] [--threads N] [--quick] \
         [--time-mode adaptive|dense|both] [--oracle-sample N] \
         [--oracle-seed S] [--bench-json PATH] [--max-cell-wall DUR] \
         [--retries N] [--journal PATH] [--resume] [--fail-fast] \
         [--list] [--show NAME]\n\
         scenarios: {}\n\
         policies:  {}",
        catalog::names().join(", "),
        aql_scenarios::POLICY_NAMES.join(", ")
    )
}

/// Milliseconds with three decimals, the unit of every timing field.
fn ms(ns: u64) -> Json {
    Json::decimal(ns as f64 / 1e6, 3)
}

/// `num / den` with three decimals (`0.000` when `den` is zero).
fn ratio(num: u64, den: u64) -> Json {
    Json::decimal(
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        },
        3,
    )
}

/// The three-way timing comparison (dense oracle, uncoalesced
/// adaptive, coalesced adaptive) as a JSON document. The headline
/// `speedup` is dense over *coalesced* — the default execution mode —
/// with `speedup_flat` recording the grid-replaying fast path next to
/// it so the coalescing contribution stays visible PR over PR.
fn bench_json(
    names: &[String],
    cfg: &SweepConfig,
    dense: &SweepOutcome,
    flat: &SweepOutcome,
    coalesced: &SweepOutcome,
) -> Json {
    let (dense_by, flat_by, coalesced_by) = (
        dense.wall_ns_by_scenario(),
        flat.wall_ns_by_scenario(),
        coalesced.wall_ns_by_scenario(),
    );
    let per_scenario = names.iter().enumerate().map(|(i, name)| {
        let (d, f, c) = (dense_by[i], flat_by[i], coalesced_by[i]);
        Json::obj([
            ("scenario", Json::Str(name.clone())),
            ("dense_ms", ms(d)),
            ("adaptive_ms", ms(f)),
            ("coalesced_ms", ms(c)),
            ("speedup", ratio(d, c)),
        ])
    });
    let (d, f, c) = (
        dense.total_wall_ns(),
        flat.total_wall_ns(),
        coalesced.total_wall_ns(),
    );
    Json::obj([
        ("scenarios", Json::uint(names.len() as u64)),
        ("policies", Json::uint(cfg.policies.len() as u64)),
        ("seeds", Json::uint(cfg.seeds as u64)),
        ("quick", Json::Bool(cfg.quick)),
        ("dense_ms", ms(d)),
        ("adaptive_ms", ms(f)),
        ("coalesced_ms", ms(c)),
        ("speedup", ratio(d, c)),
        ("speedup_flat", ratio(d, f)),
        ("per_scenario", Json::Arr(per_scenario.collect())),
    ])
}

/// Parsed command line: scenario names, sweep config, the output of
/// any metadata action, and the mode-comparison request (`--time-mode
/// both` + optional JSON output path).
struct Cli {
    names: Vec<String>,
    /// `--scenarios` was given explicitly (vs. the full-catalog
    /// default); decides whether catalog entries join `file_specs`.
    names_explicit: bool,
    /// Scenario documents loaded from `--scenario-file`.
    file_specs: Vec<ScenarioSpec>,
    cfg: SweepConfig,
    /// What `--list`, `--show` and `--help` print; printed, in place of
    /// a sweep, only once the whole command line has parsed.
    meta: Option<String>,
    compare_modes: bool,
    bench_json: Option<String>,
    /// `--oracle-sample N`: cap the mode-comparison matrix at `N`
    /// scenarios, chosen by a seeded rotation (`0` = full list).
    oracle_sample: usize,
    /// Rotation seed for `--oracle-sample`.
    oracle_seed: u64,
}

/// Picks `sample` scenario names by rotating a window of that length
/// through the list, starting at `seed % len`. Deterministic, keeps
/// the original order inside the window, and sweeps every scenario
/// into the window as the seed advances (CI derives the seed from the
/// commit count).
fn sample_rotation(names: &[String], sample: usize, seed: u64) -> Vec<String> {
    if sample == 0 || sample >= names.len() {
        return names.to_vec();
    }
    let start = (seed % names.len() as u64) as usize;
    let mut picked: Vec<usize> = (0..sample).map(|i| (start + i) % names.len()).collect();
    picked.sort_unstable();
    picked.into_iter().map(|i| names[i].clone()).collect()
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cfg = SweepConfig::default();
    let mut names: Vec<String> = catalog::names().iter().map(|s| s.to_string()).collect();
    let mut names_explicit = false;
    let mut file_specs: Vec<ScenarioSpec> = Vec::new();
    let mut meta: Option<String> = None;
    let mut compare_modes = false;
    let mut bench_json = None;
    let mut oracle_sample = 0usize;
    let mut oracle_seed = 0u64;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenarios" => {
                names = flag_value(&mut args, arg)?
                    .split(',')
                    .map(str::to_string)
                    .collect();
                names_explicit = true;
            }
            "--scenario-file" => {
                for path in flag_value(&mut args, arg)?.split(',') {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read scenario file {path}: {e}"))?;
                    file_specs
                        .push(ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?);
                }
            }
            "--policies" => {
                cfg.policies = flag_value(&mut args, arg)?
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--seeds" => cfg.seeds = number_value(&mut args, arg)?,
            "--quick" => cfg.quick = true,
            "--time-mode" if args.as_slice().first().is_some_and(|v| v == "both") => {
                args.next();
                compare_modes = true;
            }
            "--bench-json" => bench_json = Some(flag_value(&mut args, arg)?.to_string()),
            "--fail-fast" => cfg.exec.fail_fast = true,
            "--oracle-sample" => oracle_sample = number_value(&mut args, arg)?,
            "--oracle-seed" => oracle_seed = number_value(&mut args, arg)?,
            "--list" => {
                let out = meta.get_or_insert_with(String::new);
                for spec in catalog::load_all().map_err(|e| e.to_string())? {
                    let _ = writeln!(
                        out,
                        "{:<16} {:>2} VM lines, {:>2} vCPUs on {:>2} pCPUs ({:.1}:1)",
                        spec.name,
                        spec.vms.len(),
                        spec.total_vcpus(),
                        spec.machine.sockets * spec.machine.cores_per_socket,
                        spec.consolidation(),
                    );
                }
            }
            "--show" => {
                let name = flag_value(&mut args, arg)?;
                let doc =
                    catalog::document(name).ok_or_else(|| format!("unknown scenario '{name}'"))?;
                meta.get_or_insert_with(String::new).push_str(doc);
            }
            "--help" | "-h" => {
                let _ = writeln!(meta.get_or_insert_with(String::new), "{}", usage());
            }
            flag if cfg.exec.parse_flag(flag, &mut args)? => {}
            other => return Err(format!("unknown option '{other}'\n{}", usage())),
        }
    }
    if oracle_sample > 0 && !compare_modes {
        return Err("--oracle-sample requires --time-mode both (it samples the \
                    dense-oracle comparison matrix)"
            .to_string());
    }
    if compare_modes && !file_specs.is_empty() {
        return Err("--scenario-file cannot combine with --time-mode both".to_string());
    }
    cfg.exec.check_flags()?;
    Ok(Cli {
        names,
        names_explicit,
        file_specs,
        cfg,
        meta,
        compare_modes,
        bench_json,
        oracle_sample,
        oracle_seed,
    })
}

/// `--time-mode both`: sweep the matrix under the dense oracle, the
/// uncoalesced adaptive path and the coalesced default; assert every
/// aggregate table is byte-identical (the rendered-precision
/// conformance gate — the uncoalesced path is bitwise, the coalesced
/// one within the tolerance rounding absorbs), report the wall-clock
/// comparison and optionally write it as JSON.
fn run_mode_comparison(cli: &Cli) -> Result<(), String> {
    let names = sample_rotation(&cli.names, cli.oracle_sample, cli.oracle_seed);
    if names.len() < cli.names.len() {
        println!(
            "dense-oracle sampling: {} of {} scenarios (rotation seed {}): {}",
            names.len(),
            cli.names.len(),
            cli.oracle_seed,
            names.join(", ")
        );
    }
    let mode_cfg = |time_mode: TimeMode, coalesce: bool| {
        let mut cfg = cli.cfg.clone();
        cfg.exec.time_mode = time_mode;
        cfg.exec.coalesce = coalesce;
        cfg
    };
    let dense_cfg = mode_cfg(TimeMode::Dense, cli.cfg.exec.coalesce);
    let flat_cfg = mode_cfg(TimeMode::Adaptive, false);
    let coalesced_cfg = mode_cfg(TimeMode::Adaptive, true);
    println!(
        "sweeping {} scenarios under TimeMode::Dense ...",
        names.len()
    );
    let dense = run_sweep(&names, &dense_cfg)?;
    println!(
        "sweeping {} scenarios under TimeMode::Adaptive (coalescing off) ...",
        names.len()
    );
    let flat = run_sweep(&names, &flat_cfg)?;
    println!(
        "sweeping {} scenarios under TimeMode::Adaptive (coalescing on) ...",
        names.len()
    );
    let coalesced = run_sweep(&names, &coalesced_cfg)?;
    if dense.table.render() != flat.table.render() {
        return Err(
            "conformance violation: dense and uncoalesced-adaptive tables differ".to_string(),
        );
    }
    if dense.table.render() != coalesced.table.render() {
        return Err("conformance violation: coalescing drifted a rendered table byte".to_string());
    }
    coalesced.table.print();
    let d_ms = dense.total_wall_ns() as f64 / 1e6;
    let f_ms = flat.total_wall_ns() as f64 / 1e6;
    let c_ms = coalesced.total_wall_ns() as f64 / 1e6;
    let x = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    println!(
        "\ntables byte-identical across time modes; simulation wall time \
         dense {d_ms:.0} ms, adaptive {f_ms:.0} ms ({:.2}x), coalesced {c_ms:.0} ms ({:.2}x)",
        x(d_ms, f_ms),
        x(d_ms, c_ms)
    );
    if let Some(path) = &cli.bench_json {
        let doc = bench_json(&names, &cli.cfg, &dense, &flat, &coalesced).to_pretty();
        std::fs::write(path, doc).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("(saved {path})");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(meta) = &cli.meta {
        print!("{meta}");
        return ExitCode::SUCCESS;
    }
    if cli.compare_modes {
        return match run_mode_comparison(&cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ran = if cli.file_specs.is_empty() {
        run_sweep(&cli.names, &cli.cfg)
    } else {
        // File-provided documents replace the catalog default; an
        // explicit --scenarios list joins them.
        let mut specs = cli.file_specs.clone();
        if cli.names_explicit {
            match cli
                .names
                .iter()
                .map(|n| catalog::load(n).ok_or_else(|| format!("unknown scenario '{n}'")))
                .collect::<Result<Vec<_>, _>>()
            {
                Ok(named) => specs.extend(named),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        run_sweep_on(&specs, &cli.cfg)
    };
    match ran {
        Ok(outcome) => {
            save_and_print(std::slice::from_ref(&outcome.table));
            let failures = outcome.failures();
            if !failures.is_empty() {
                println!("\n{} cell(s) failed (contained):", failures.len());
                for f in &failures {
                    println!("  {f}");
                }
            }
            if let Some(path) = &cli.bench_json {
                // Plain-mode benchmark record: one key per
                // (quick, scenario-files, time-mode) shape, so the
                // fault-injection smoke (file-driven) cannot clobber a
                // catalog record, nor a dense run an adaptive one.
                let key = format!(
                    "sweep{}{}{}",
                    if cli.cfg.quick { "_quick" } else { "" },
                    if cli.file_specs.is_empty() {
                        String::new()
                    } else {
                        format!("_files{}", cli.file_specs.len())
                    },
                    if cli.cfg.exec.time_mode == TimeMode::Dense {
                        "_dense"
                    } else {
                        ""
                    }
                );
                let scenario_count = if cli.file_specs.is_empty() {
                    cli.names.len()
                } else if cli.names_explicit {
                    cli.file_specs.len() + cli.names.len()
                } else {
                    cli.file_specs.len()
                };
                let value = Json::obj([
                    ("scenarios", Json::uint(scenario_count as u64)),
                    ("wall_ms", ms(outcome.total_wall_ns())),
                    ("failed_cells", Json::uint(failures.len() as u64)),
                ]);
                if let Err(e) = update_bench_json(std::path::Path::new(path), &key, value) {
                    eprintln!("warning: could not update {path}: {e}");
                } else {
                    println!("(recorded {key} in {path})");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
