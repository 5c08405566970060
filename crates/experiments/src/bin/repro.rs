//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--threads N] [--time-mode M] [--bench-json PATH] <command>...
//!
//! commands:
//!   fig2            calibration panels (a)-(f) + lock-duration inset
//!   fig2a .. fig2f  one calibration panel
//!   fig2lock        the lock-duration inset only
//!   fig4            vTRS cursor traces (5 representative apps)
//!   fig5            validation sweep over the whole catalog
//!   fig6left        scenarios S1-S5, AQL vs Xen
//!   fig6right       the 4-socket complex case
//!   fig7            quantum-customisation ablation
//!   fig8            comparison with vTurbo / vSlicer / Microsliced
//!   table3          application type recognition
//!   table5          clustering per scenario
//!   table6          qualitative feature matrix
//!   overhead        vTRS + clustering cost (§4.3)
//!   fairness        Jain fairness under AQL vs Xen
//!   ablations       design-choice ablations + scalability
//!   scalability     §4.3 scalability only
//!   all             everything above
//!
//! options:
//!   --quick           shorten warm-up/measurement (CI smoke)
//!   --threads N       worker threads for the experiment plans
//!                     (default: all cores; output is byte-identical
//!                     across thread counts)
//!   --time-mode M     adaptive (default) or dense time advance;
//!                     output is byte-identical across modes
//!   --bench-json PATH record this invocation's wall time under a
//!                     "repro_…" key in the given JSON file (the CI
//!                     smoke tracks BENCH_sweep.json)
//!   --max-cell-wall D wall-clock budget per experiment cell
//!                     (`30s`, `500ms`, …; default: unlimited)
//!   --retries N       retry environmental (wall-budget) cell
//!                     failures up to N times (default: 0)
//!   --journal PATH    append finished cells to a crash-safe JSONL
//!                     journal
//!   --resume          skip cells already in the journal (probe cells
//!                     always re-run); output is byte-identical to a
//!                     clean run
//! ```
//!
//! Each table is printed to stdout and saved as CSV under `results/`.

use std::process::ExitCode;

use aql_experiments::emit::{save_and_print, update_bench_json};
use aql_experiments::{ablations, fig2, fig4, fig5, fig6, fig7, fig8, tables, ExecOpts, Table};
use aql_scenarios::TimeMode;

fn run(cmd: &str, quick: bool, opts: &ExecOpts) -> Result<Vec<Table>, String> {
    Ok(match cmd {
        "fig2" => fig2::run_all(quick, opts),
        "fig2a" => vec![fig2::run_panel(fig2::Panel::ExclusiveIo, quick, opts)],
        "fig2b" => vec![fig2::run_panel(fig2::Panel::HeterogeneousIo, quick, opts)],
        "fig2c" => vec![fig2::run_panel(fig2::Panel::ConSpin, quick, opts)],
        "fig2d" => vec![fig2::run_panel(fig2::Panel::Llcf, quick, opts)],
        "fig2e" => vec![fig2::run_panel(fig2::Panel::Lolcf, quick, opts)],
        "fig2f" => vec![fig2::run_panel(fig2::Panel::Llco, quick, opts)],
        "fig2lock" => vec![fig2::run_lock_inset(quick, opts)],
        "fig4" => fig4::run(quick, opts),
        "fig5" => vec![fig5::run(&[], quick, opts)],
        "fig6left" => vec![fig6::run_left(quick, opts)],
        "fig6right" => {
            let (norm, clusters) = fig6::run_right(quick, opts);
            vec![norm, clusters]
        }
        "fig7" => vec![fig7::run(quick, opts)],
        "fig8" => vec![fig8::run(quick, opts)],
        "table3" => vec![tables::table3(quick, opts)],
        "table5" => vec![tables::table5(quick, opts)],
        "table6" => vec![tables::table6()],
        "overhead" => vec![tables::overhead()],
        "fairness" => vec![tables::fairness(quick, opts)],
        "ablations" => ablations::run_all(quick, opts),
        "scalability" => vec![ablations::scalability()],
        other => return Err(format!("unknown command '{other}'")),
    })
}

const ALL: [&str; 14] = [
    "fig2",
    "fig4",
    "fig5",
    "fig6left",
    "fig6right",
    "fig7",
    "fig8",
    "table3",
    "table5",
    "table6",
    "overhead",
    "fairness",
    "ablations",
    "scalability",
];

fn usage() {
    eprintln!(
        "usage: repro [--quick] [--threads N] \
         [--time-mode adaptive|dense] [--bench-json PATH] \
         [--max-cell-wall DUR] [--retries N] [--journal PATH] [--resume] \
         <command>..."
    );
    eprintln!("commands: {} | all", ALL.join(" | "));
    eprintln!("          fig2a..fig2f fig2lock (individual panels)");
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut opts = ExecOpts::default();
    let mut bench_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let take_value = |args: &mut Vec<String>, i: usize, flag: &str| -> Option<String> {
            if i + 1 < args.len() {
                args.remove(i); // the flag
                Some(args.remove(i)) // its value
            } else {
                eprintln!("error: {flag} needs a value");
                None
            }
        };
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                args.remove(i);
            }
            "--threads" => {
                let Some(v) = take_value(&mut args, i, "--threads") else {
                    return ExitCode::FAILURE;
                };
                match v.parse() {
                    Ok(n) => opts.threads = n,
                    Err(_) => {
                        eprintln!("error: --threads needs a number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--time-mode" => {
                let Some(v) = take_value(&mut args, i, "--time-mode") else {
                    return ExitCode::FAILURE;
                };
                match v.as_str() {
                    "adaptive" => opts.time_mode = TimeMode::Adaptive,
                    "dense" => opts.time_mode = TimeMode::Dense,
                    other => {
                        eprintln!("error: --time-mode must be adaptive or dense, got '{other}'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--bench-json" => {
                let Some(v) = take_value(&mut args, i, "--bench-json") else {
                    return ExitCode::FAILURE;
                };
                bench_json = Some(v);
            }
            "--max-cell-wall" => {
                let Some(v) = take_value(&mut args, i, "--max-cell-wall") else {
                    return ExitCode::FAILURE;
                };
                match aql_sim::time::parse_dur(&v) {
                    Some(ns) => opts.max_cell_wall = Some(std::time::Duration::from_nanos(ns)),
                    None => {
                        eprintln!("error: --max-cell-wall: bad duration '{v}'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--retries" => {
                let Some(v) = take_value(&mut args, i, "--retries") else {
                    return ExitCode::FAILURE;
                };
                match v.parse() {
                    Ok(n) => opts.retries = n,
                    Err(_) => {
                        eprintln!("error: --retries needs a number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--journal" => {
                let Some(v) = take_value(&mut args, i, "--journal") else {
                    return ExitCode::FAILURE;
                };
                opts.journal = Some(v.into());
            }
            "--resume" => {
                opts.resume = true;
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    if opts.resume && opts.journal.is_none() {
        eprintln!("error: --resume requires --journal");
        return ExitCode::FAILURE;
    }
    // A figure fold needs every applicable cell's report — there is no
    // `FAIL` rendering here like the sweep table has — so a failed
    // cell (blown wall budget, livelock, panic) aborts the artifact
    // with its classification instead of panicking mid-fold.
    opts.fail_fast = true;
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let cmds: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let t0 = std::time::Instant::now();
    for c in &cmds {
        eprintln!(">> {c}{}", if quick { " (quick)" } else { "" });
        // `fail_fast` surfaces a failed cell by re-raising it out of
        // the plan executor; catch it here and report the classified
        // failure (`resume_unwind` payloads bypass the panic hook, so
        // without this the process would die silently).
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(c, quick, &opts)));
        match ran {
            Ok(Ok(tables)) => save_and_print(&tables),
            Ok(Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("cell panicked");
                eprintln!("error: {c}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = bench_json {
        // One key per (quick, threads, time-mode) shape so the CI
        // smoke can record the 1-thread and N-thread runs side by
        // side, and a dense-oracle run cannot overwrite an adaptive
        // timing.
        let key = format!(
            "repro_{}threads{}{}",
            if quick { "quick_" } else { "" },
            if opts.threads == 0 {
                "auto".to_string()
            } else {
                opts.threads.to_string()
            },
            if opts.time_mode == TimeMode::Dense {
                "_dense"
            } else {
                ""
            }
        );
        let value = format!(
            "{{\"commands\": {}, \"wall_ms\": {:.3}}}",
            cmds.len(),
            t0.elapsed().as_secs_f64() * 1e3
        );
        if let Err(e) = update_bench_json(std::path::Path::new(&path), &key, &value) {
            eprintln!("warning: could not update {path}: {e}");
        } else {
            eprintln!("(recorded {key} in {path})");
        }
    }
    ExitCode::SUCCESS
}
