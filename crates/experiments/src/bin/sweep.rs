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
//!   --time-mode M       adaptive (default) or dense
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

use aql_experiments::emit::save_and_print;
use aql_experiments::plan::{flag_value, number_value};
use aql_experiments::sweep::{run_sweep, run_sweep_on, SweepConfig};
use aql_scenarios::{catalog, ScenarioSpec};

fn usage() -> String {
    format!(
        "usage: sweep [--scenarios a,b,c] [--scenario-file f.scn,g.scn] \
         [--policies a,b] [--seeds N] [--threads N] [--quick] \
         [--time-mode adaptive|dense] [--max-cell-wall DUR] \
         [--retries N] [--journal PATH] [--resume] [--fail-fast] \
         [--list] [--show NAME]\n\
         scenarios: {}\n\
         policies:  {}",
        catalog::names().join(", "),
        aql_scenarios::POLICY_NAMES.join(", ")
    )
}

/// Parsed command line: scenario names, sweep config and the output of
/// any metadata action.
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
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cfg = SweepConfig::default();
    let mut names: Vec<String> = catalog::names().iter().map(|s| s.to_string()).collect();
    let mut names_explicit = false;
    let mut file_specs: Vec<ScenarioSpec> = Vec::new();
    let mut meta: Option<String> = None;
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
            "--fail-fast" => cfg.exec.fail_fast = true,
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
    cfg.exec.check_flags()?;
    Ok(Cli {
        names,
        names_explicit,
        file_specs,
        cfg,
        meta,
    })
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
