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
//! The whole command line is checked before the first artifact runs:
//! an unknown flag or command exits 1 with nothing printed or saved.

use std::process::ExitCode;

use aql_experiments::emit::{save_and_print, update_bench_json};
use aql_experiments::json::Json;
use aql_experiments::plan::flag_value;
use aql_experiments::{ablations, fig2, fig4, fig5, fig6, fig7, fig8, tables, ExecOpts, Table};
use aql_scenarios::TimeMode;

/// Regenerates one artifact from the `--quick` flag and the execution
/// options.
type Artifact = fn(bool, &ExecOpts) -> Vec<Table>;

fn artifact(cmd: &str) -> Option<Artifact> {
    Some(match cmd {
        "fig2" => |quick, opts| fig2::run_all(quick, opts),
        "fig2a" => |quick, opts| vec![fig2::run_panel(fig2::Panel::ExclusiveIo, quick, opts)],
        "fig2b" => |quick, opts| vec![fig2::run_panel(fig2::Panel::HeterogeneousIo, quick, opts)],
        "fig2c" => |quick, opts| vec![fig2::run_panel(fig2::Panel::ConSpin, quick, opts)],
        "fig2d" => |quick, opts| vec![fig2::run_panel(fig2::Panel::Llcf, quick, opts)],
        "fig2e" => |quick, opts| vec![fig2::run_panel(fig2::Panel::Lolcf, quick, opts)],
        "fig2f" => |quick, opts| vec![fig2::run_panel(fig2::Panel::Llco, quick, opts)],
        "fig2lock" => |quick, opts| vec![fig2::run_lock_inset(quick, opts)],
        "fig4" => |quick, opts| fig4::run(quick, opts),
        "fig5" => |quick, opts| vec![fig5::run(&[], quick, opts)],
        "fig6left" => |quick, opts| vec![fig6::run_left(quick, opts)],
        "fig6right" => |quick, opts| {
            let (norm, clusters) = fig6::run_right(quick, opts);
            vec![norm, clusters]
        },
        "fig7" => |quick, opts| vec![fig7::run(quick, opts)],
        "fig8" => |quick, opts| vec![fig8::run(quick, opts)],
        "table3" => |quick, opts| vec![tables::table3(quick, opts)],
        "table5" => |quick, opts| vec![tables::table5(quick, opts)],
        "table6" => |_, _| vec![tables::table6()],
        "overhead" => |_, _| vec![tables::overhead()],
        "fairness" => |quick, opts| vec![tables::fairness(quick, opts)],
        "ablations" => |quick, opts| ablations::run_all(quick, opts),
        "scalability" => |_, _| vec![ablations::scalability()],
        _ => return None,
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

/// The parsed command line.
struct Cli<'a> {
    quick: bool,
    opts: ExecOpts,
    bench_json: Option<&'a str>,
    /// The artifacts to run, in order.
    cmds: Vec<(&'a str, Artifact)>,
}

/// Reads the whole command line — flags, command names and `all` —
/// before anything runs, so a bad argument cannot follow a finished
/// artifact. `all` stands for every command in [`ALL`], replacing the
/// other names.
fn parse_args(args: &[String]) -> Result<Cli<'_>, String> {
    let mut quick = false;
    let mut opts = ExecOpts::default();
    let mut bench_json = None;
    let mut all = false;
    let mut cmds = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--bench-json" => bench_json = Some(flag_value(&mut args, arg)?),
            "all" => all = true,
            flag if opts.parse_flag(flag, &mut args)? => {}
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            cmd => cmds.push((
                cmd,
                artifact(cmd).ok_or_else(|| format!("unknown command '{cmd}'"))?,
            )),
        }
    }
    opts.check_flags()?;
    if all {
        cmds = ALL
            .iter()
            .map(|&cmd| (cmd, artifact(cmd).expect("ALL lists known commands")))
            .collect();
    }
    Ok(Cli {
        quick,
        opts,
        bench_json,
        cmds,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if cli.cmds.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    // A figure fold needs every applicable cell's report — there is no
    // `FAIL` rendering here like the sweep table has — so a failed
    // cell (blown wall budget, livelock, panic) aborts the artifact
    // with its classification instead of panicking mid-fold.
    cli.opts.fail_fast = true;
    let (quick, opts) = (cli.quick, &cli.opts);
    let t0 = std::time::Instant::now();
    for &(c, run) in &cli.cmds {
        eprintln!(">> {c}{}", if quick { " (quick)" } else { "" });
        // `fail_fast` surfaces a failed cell by re-raising it out of
        // the plan executor; catch it here and report the classified
        // failure (`resume_unwind` payloads bypass the panic hook, so
        // without this the process would die silently).
        match std::panic::catch_unwind(|| run(quick, opts)) {
            Ok(tables) => save_and_print(&tables),
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
    if let Some(path) = cli.bench_json {
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
        let value = Json::obj([
            ("commands", Json::uint(cli.cmds.len() as u64)),
            (
                "wall_ms",
                Json::decimal(t0.elapsed().as_secs_f64() * 1e3, 3),
            ),
        ]);
        if let Err(e) = update_bench_json(std::path::Path::new(path), &key, value) {
            eprintln!("warning: could not update {path}: {e}");
        } else {
            eprintln!("(recorded {key} in {path})");
        }
    }
    ExitCode::SUCCESS
}
