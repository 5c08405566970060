//! The experiment-plan layer: every paper artifact as a declarative
//! cell matrix over one shared parallel executor.
//!
//! A figure is a set of [`PlanCell`]s — each names a [`ScenarioSpec`]
//! (usually a catalog entry plus overlays), a policy token (see
//! [`aql_scenarios::parse_policy`]), a base seed and an optional
//! in-worker [`Probe`] — plus a fold that reduces the executed
//! [`CellResult`]s into [`Table`](crate::Table)s with the shared
//! normalisation reducers below. [`execute`] fans the cells across OS threads
//! through the same atomic-job-cursor pool the sweep runner uses, so
//! `repro` and `sweep` share one execution path.
//!
//! # Determinism
//!
//! Cell results land at their *matrix index* regardless of which
//! worker claims them, every simulation is a pure function of
//! `(spec, policy, base_seed, time_mode)`, and folds read results in
//! matrix order — so every emitted table is byte-identical across
//! repeated runs, `--threads` values and time modes.
//!
//! # Probes
//!
//! Policy-internal state (vTRS cursor histories, cluster plans) is
//! only reachable while the simulation is alive, inside the worker.
//! A [`Probe`] names what to extract; the executor downcasts the
//! policy there and ships plain data ([`ProbeOut`]) back, keeping
//! [`CellResult`] `Send` without making simulations so.
//!
//! # Fault isolation
//!
//! Each cell is a failure domain. A worker wraps the cell's whole
//! build-run-probe body in `catch_unwind` and runs it through
//! [`Simulation::run_measured_budgeted`] with the livelock and
//! invariant sentinels armed, so a panicking, hanging or
//! account-corrupting cell becomes a classified [`CellFailure`] in its
//! own slot while every sibling cell's report stays bit-identical to a
//! fault-free run (the simulation is already a pure function of its
//! cell, so containment costs nothing). Environmental failures
//! (wall-budget trips) retry
//! with exponential backoff up to [`ExecOpts::retries`]; determinis-
//! tic failures (panic, livelock, invariant violation) never retry —
//! rerunning a pure function cannot change its answer. Setting
//! [`ExecOpts::fail_fast`] restores the old re-raise behaviour for
//! CI gates that prefer an abort to a partial table. With a journal
//! path configured, finished probe-less cells append to a crash-safe
//! JSONL journal ([`crate::journal`]) and `resume` prefills matching
//! slots from it, byte-identical to a clean run.

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use aql_core::AqlSched;
use aql_hv::apptype::VcpuType;
use aql_hv::{EngineError, RunReport, Simulation, TimeMode};
use aql_scenarios::{build_sim_seeded_tuned, parse_policy, ScenarioSpec};

use crate::journal::{self, JournalEntry};

/// Policy-internal state to extract from a cell's simulation before
/// it is dropped (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probe {
    /// Nothing beyond the [`RunReport`].
    None,
    /// The recorded vTRS cursor history of one vCPU (Fig. 4); the
    /// policy token must enable recording (`aql-sched/history=<n>`).
    CursorHistory {
        /// Engine vCPU index to read.
        vcpu: usize,
    },
    /// The cluster plan AQL_Sched last applied (Fig. 6 right, Table 5).
    ClusterPlan,
    /// Majority vTRS-detected type over one VM's vCPUs (Table 3).
    VtrsMajority {
        /// VM index (placement order).
        vm: usize,
    },
    /// How many times AQL_Sched re-clustered (vTRS-window ablation).
    Reclusterings,
}

/// One cluster of an extracted plan, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRow {
    /// Cluster label.
    pub label: String,
    /// Socket, rendered (`socket1`).
    pub socket: String,
    /// Pool quantum (ns).
    pub quantum_ns: u64,
    /// Engine indices of the member vCPUs.
    pub vcpus: Vec<usize>,
    /// Number of pCPUs backing the cluster.
    pub pcpus: usize,
    /// Whether this is the default (fairness leftover) cluster.
    pub is_default: bool,
}

/// Extracted probe data (see [`Probe`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOut {
    /// Cursor history rows: `[IOInt, ConSpin, LLCF, LoLCF, LLCO]` per
    /// monitoring period.
    Cursors(Vec<[f64; 5]>),
    /// The applied cluster plan (empty when none was applied).
    Clusters(Vec<ClusterRow>),
    /// Majority detected type.
    Majority(VcpuType),
    /// Re-clustering count.
    Reclusterings(u64),
}

/// One cell of an experiment plan.
#[derive(Debug, Clone)]
pub struct PlanCell {
    /// The scenario to run (already carrying any overlays).
    pub spec: ScenarioSpec,
    /// Policy token (see [`aql_scenarios::parse_policy`]).
    pub policy: String,
    /// Base seed; defaults to the spec's own.
    pub base_seed: u64,
    /// What to extract beyond the report.
    pub probe: Probe,
}

impl PlanCell {
    /// A cell at the spec's own seed with no probe.
    pub fn new(spec: ScenarioSpec, policy: &str) -> Self {
        PlanCell {
            base_seed: spec.seed,
            spec,
            policy: policy.to_string(),
            probe: Probe::None,
        }
    }

    /// Attaches a probe.
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Overrides the base seed.
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }
}

/// How to execute a plan. None of the choices affect what a healthy
/// cell emits — only wall time and what happens to *unhealthy* cells.
/// The default is every core in the default ([`TimeMode::Adaptive`])
/// time mode, failures contained, no wall budget, no retries, no
/// journal.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker threads; `0` uses the host's available parallelism.
    pub threads: usize,
    /// Time-advance mode every cell runs under.
    pub time_mode: TimeMode,
    /// Whether the adaptive mode may coalesce quiescent-span chunks
    /// (default on). Off pins the grid-replaying fast path that is
    /// bit-identical to `Dense` — the CI bench's perf baseline.
    pub coalesce: bool,
    /// Re-raise the first cell failure instead of recording it —
    /// the pre-containment behaviour, for CI gates that prefer an
    /// abort to a partial table. A contained panic's original payload
    /// is re-thrown verbatim.
    pub fail_fast: bool,
    /// Wall-clock budget for one cell attempt; `None` (default) means
    /// a cell may take as long as it likes. Trips as
    /// [`FailureKind::WallBudget`], the only *environmental* —
    /// retryable — failure class.
    pub max_cell_wall: Option<Duration>,
    /// How many times to retry a cell after an environmental failure
    /// (exponential backoff between attempts). Deterministic failures
    /// never retry regardless.
    pub retries: u32,
    /// Append finished probe-less cells to this JSONL journal
    /// ([`crate::journal`]); flushed per cell, so a crash loses at
    /// most the line being written.
    pub journal: Option<PathBuf>,
    /// Prefill cells already present in the journal (matched by
    /// identity *and* config fingerprint) instead of re-running them.
    /// Requires `journal`. The resumed table is byte-identical to a
    /// clean run because reports round-trip bit-exactly.
    pub resume: bool,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            threads: 0,
            time_mode: TimeMode::default(),
            coalesce: true,
            fail_fast: false,
            max_cell_wall: None,
            retries: 0,
            journal: None,
            resume: false,
        }
    }
}

impl ExecOpts {
    /// Single-threaded execution (unit tests, timing baselines).
    pub fn serial() -> Self {
        ExecOpts {
            threads: 1,
            ..ExecOpts::default()
        }
    }

    /// Applies `flag` when it is one of the execution flags `sweep` and
    /// `repro` share — `--threads N`, `--time-mode adaptive|dense`,
    /// `--max-cell-wall DUR`, `--retries N`, `--journal PATH` and
    /// `--resume` — taking its value from `args`. Returns `Ok(false)`
    /// and consumes nothing for any other argument; an error names the
    /// flag. Call [`ExecOpts::check_flags`] once every argument is read.
    pub fn parse_flag(&mut self, flag: &str, args: &mut Args<'_>) -> Result<bool, String> {
        match flag {
            "--threads" => self.threads = number_value(args, flag)?,
            "--time-mode" => {
                let v = flag_value(args, flag)?;
                self.time_mode = TIME_MODE_NAMES
                    .iter()
                    .find(|(_, name)| *name == v)
                    .map(|&(mode, _)| mode)
                    .ok_or_else(|| format!("--time-mode must be adaptive or dense, got '{v}'"))?;
            }
            "--max-cell-wall" => {
                let v = flag_value(args, flag)?;
                let ns = aql_sim::time::parse_dur(v)
                    .ok_or_else(|| format!("--max-cell-wall: bad duration '{v}'"))?;
                self.max_cell_wall = Some(Duration::from_nanos(ns));
            }
            "--retries" => self.retries = number_value(args, flag)?,
            "--journal" => self.journal = Some(flag_value(args, flag)?.into()),
            "--resume" => self.resume = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Rejects settings that cannot run together: `resume` without a
    /// `journal`.
    pub fn check_flags(&self) -> Result<(), String> {
        if self.resume && self.journal.is_none() {
            return Err("--resume requires --journal".to_string());
        }
        Ok(())
    }
}

/// The unread rest of a command line.
pub type Args<'a> = std::slice::Iter<'a, String>;

/// Takes the value that follows `flag`, or errs naming the flag.
pub fn flag_value<'a>(args: &mut Args<'a>, flag: &str) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Takes the number that follows `flag`, or errs naming the flag.
pub fn number_value<T: std::str::FromStr>(args: &mut Args<'_>, flag: &str) -> Result<T, String> {
    let v = flag_value(args, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} needs a number, got '{v}'"))
}

/// How each [`TimeMode`] is spelled on the command line and in the
/// journal fingerprint.
const TIME_MODE_NAMES: [(TimeMode, &str); 2] =
    [(TimeMode::Adaptive, "adaptive"), (TimeMode::Dense, "dense")];

/// Why a cell failed, coarsely — the axis the retry policy pivots on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The cell's thread panicked (workload bug, policy bug).
    Panic,
    /// The livelock sentinel tripped: a vCPU kept demanding CPU
    /// without ever advancing ([`EngineError::Livelock`]).
    Livelock,
    /// The wall-clock budget expired ([`ExecOpts::max_cell_wall`]).
    WallBudget,
    /// The finished report violated an accounting invariant
    /// (drifted sums, non-finite metrics).
    Invariant,
}

impl FailureKind {
    /// Short lower-case label (`panic`, `livelock`, `wall-budget`,
    /// `invariant`) for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Livelock => "livelock",
            FailureKind::WallBudget => "wall-budget",
            FailureKind::Invariant => "invariant",
        }
    }

    /// Whether retrying could plausibly change the outcome. Only the
    /// wall budget depends on the host rather than the (pure,
    /// deterministic) simulation, so only it is environmental.
    pub fn is_environmental(self) -> bool {
        matches!(self, FailureKind::WallBudget)
    }
}

/// One contained cell failure: what went wrong, where, after how many
/// attempts.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Coarse classification.
    pub kind: FailureKind,
    /// Human-readable detail — the panic payload or engine error.
    pub message: String,
    /// Scenario name of the failed cell.
    pub scenario: String,
    /// Policy token of the failed cell.
    pub policy: String,
    /// Base seed of the failed cell.
    pub seed: u64,
    /// Attempts made (> 1 only after environmental retries).
    pub attempts: u32,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} × {} @ seed {}: {}",
            self.kind.label(),
            self.scenario,
            self.policy,
            self.seed,
            self.message
        )?;
        if self.attempts > 1 {
            write!(f, " (after {} attempts)", self.attempts)?;
        }
        Ok(())
    }
}

/// A completed cell.
#[derive(Debug)]
pub struct CellResult {
    /// The steady-state report; `None` when the policy cannot run on
    /// the scenario's machine (e.g. vTurbo on a single-core host) or
    /// when the cell failed (see `failure`).
    pub report: Option<RunReport>,
    /// Extracted probe data (when the cell asked for one and ran).
    pub probe: Option<ProbeOut>,
    /// Wall-clock time this cell took to simulate (ns; zero for
    /// inapplicable cells). Never enters any table.
    pub wall_ns: u64,
    /// The contained failure, when the cell ran and did not finish.
    /// `None` with `report: None` means the cell was inapplicable.
    pub failure: Option<CellFailure>,
}

fn extract_probe(sim: &Simulation, probe: &Probe) -> Option<ProbeOut> {
    match probe {
        Probe::None => None,
        Probe::CursorHistory { vcpu } => {
            let policy = sim.policy().as_any().downcast_ref::<AqlSched>()?;
            Some(ProbeOut::Cursors(
                policy
                    .cursor_history(*vcpu)
                    .iter()
                    .map(|c| [c.ioint, c.conspin, c.llcf, c.lolcf, c.llco])
                    .collect(),
            ))
        }
        Probe::ClusterPlan => {
            let policy = sim.policy().as_any().downcast_ref::<AqlSched>()?;
            let rows = policy
                .last_plan()
                .map(|plan| {
                    plan.clusters
                        .iter()
                        .map(|c| ClusterRow {
                            label: c.label.clone(),
                            socket: c.socket.to_string(),
                            quantum_ns: c.quantum_ns,
                            vcpus: c.vcpus.iter().map(|v| v.index()).collect(),
                            pcpus: c.pcpus.len(),
                            is_default: c.is_default,
                        })
                        .collect()
                })
                .unwrap_or_default();
            Some(ProbeOut::Clusters(rows))
        }
        Probe::VtrsMajority { vm } => {
            let policy = sim.policy().as_any().downcast_ref::<AqlSched>()?;
            let vtrs = policy.vtrs()?;
            let mut counts = [0usize; 5];
            for v in &sim.hv.vms[*vm].vcpus {
                let t = vtrs.type_of(v.index());
                let idx = VcpuType::ALL.iter().position(|&x| x == t)?;
                counts[idx] += 1;
            }
            let best = (0..5).max_by_key(|&i| counts[i])?;
            Some(ProbeOut::Majority(VcpuType::ALL[best]))
        }
        Probe::Reclusterings => {
            let policy = sim.policy().as_any().downcast_ref::<AqlSched>()?;
            Some(ProbeOut::Reclusterings(policy.reclusterings()))
        }
    }
}

/// A worker-side slot value: either a finished cell or its contained
/// failure. Absent (`None` in the slot) means inapplicable or
/// unvisited.
#[derive(Debug)]
enum SlotState {
    Done {
        report: RunReport,
        probe: Option<ProbeOut>,
        wall_ns: u64,
    },
    Failed {
        failure: CellFailure,
        wall_ns: u64,
    },
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn classify(cell: &PlanCell, err: &EngineError, attempts: u32) -> CellFailure {
    let kind = match err {
        EngineError::Livelock { .. } => FailureKind::Livelock,
        EngineError::WallBudgetExceeded { .. } => FailureKind::WallBudget,
        EngineError::InvariantViolation { .. } => FailureKind::Invariant,
    };
    CellFailure {
        kind,
        message: err.to_string(),
        scenario: cell.spec.name.clone(),
        policy: cell.policy.clone(),
        seed: cell.base_seed,
        attempts,
    }
}

fn time_mode_label(mode: TimeMode) -> &'static str {
    TIME_MODE_NAMES
        .iter()
        .find(|&&(m, _)| m == mode)
        .map(|&(_, name)| name)
        .expect("every time mode has a name")
}

/// Runs every cell across the worker pool; results are returned in
/// cell order. Fails fast (before spawning any thread) on a malformed
/// policy token. Cell failures are contained per slot (see the module
/// docs) unless [`ExecOpts::fail_fast`] re-raises them.
pub fn execute(cells: &[PlanCell], opts: &ExecOpts) -> Result<Vec<CellResult>, String> {
    // Validate the whole matrix up front so a typo cannot surface as
    // a mid-plan panic on a worker thread — both token syntax and
    // per-cell fit (e.g. a sockets= list naming a socket the cell's
    // machine does not have).
    let policies = cells
        .iter()
        .map(|c| {
            let p = parse_policy(&c.policy)?;
            p.validate_for(&c.spec)
                .map_err(|e| format!("policy '{}': {e}", c.policy))?;
            Ok::<_, String>(p)
        })
        .collect::<Result<Vec<_>, _>>()?;
    if cells.is_empty() {
        return Err("empty plan".to_string());
    }
    opts.check_flags()?;
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    }
    .min(cells.len());

    // Fingerprints tie journal lines to the exact cell + executor
    // config that produced them; only computed when a journal is in
    // play (spec.to_text() is not free).
    let fingerprints: Vec<u64> = if opts.journal.is_some() {
        cells
            .iter()
            .map(|c| {
                journal::fingerprint(
                    &c.spec.to_text(),
                    &c.policy,
                    c.base_seed,
                    time_mode_label(opts.time_mode),
                    opts.coalesce,
                )
            })
            .collect()
    } else {
        vec![0; cells.len()]
    };

    // Workers claim cells through an atomic cursor and park each
    // result in the cell's matrix slot: claiming order is racy,
    // result placement is not.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SlotState>>> = cells.iter().map(|_| Mutex::new(None)).collect();

    // Resume: prefill slots whose identity and fingerprint match a
    // journal line. Probe cells never match — probes are not
    // journaled, so they always re-run.
    if opts.resume {
        let path = opts.journal.as_ref().expect("checked above");
        let entries = journal::load(path)?;
        let by_key: HashMap<(&str, &str, u64), &JournalEntry> = entries
            .iter()
            .map(|e| ((e.scenario.as_str(), e.policy.as_str(), e.seed), e))
            .collect();
        for (i, cell) in cells.iter().enumerate() {
            if cell.probe != Probe::None {
                continue;
            }
            let key = (
                cell.spec.name.as_str(),
                cell.policy.as_str(),
                cell.base_seed,
            );
            if let Some(e) = by_key.get(&key) {
                if e.fp == fingerprints[i] {
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) =
                        Some(SlotState::Done {
                            report: e.report.clone(),
                            probe: None,
                            wall_ns: e.wall_ns,
                        });
                }
            }
        }
    }

    let journal_file = match opts.journal.as_ref() {
        Some(path) => Some(Mutex::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?,
        )),
        None => None,
    };

    // Fail-fast aborts ride out of the scope in this slot and are
    // re-raised on the caller: `thread::scope` would otherwise replace
    // a worker's panic payload with its own "a scoped thread panicked".
    let abort: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| 'work: loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                if abort
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some()
                {
                    break; // another worker hit a fail-fast abort
                }
                if slots[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some()
                {
                    continue; // prefilled from the journal
                }
                let policy = &policies[i];
                if !policy.applicable(&cell.spec) {
                    continue;
                }
                let mut attempts = 0u32;
                let outcome = loop {
                    attempts += 1;
                    let t0 = std::time::Instant::now();
                    // The unwind boundary IS the isolation boundary:
                    // everything cell-local (build, run, probe) is
                    // inside; the shared slots and journal are not.
                    // AssertUnwindSafe is sound because a panicking
                    // attempt's simulation is dropped wholesale —
                    // no torn state outlives the catch.
                    let ran = catch_unwind(AssertUnwindSafe(|| {
                        let boxed = policy.build(&cell.spec);
                        let mut sim = build_sim_seeded_tuned(
                            &cell.spec,
                            boxed,
                            cell.base_seed,
                            opts.time_mode,
                            opts.coalesce,
                        );
                        sim.run_measured_budgeted(
                            cell.spec.warmup_ns,
                            cell.spec.measure_ns,
                            opts.max_cell_wall,
                        )
                        .map(|report| {
                            let probe = extract_probe(&sim, &cell.probe);
                            (report, probe)
                        })
                    }));
                    let wall_ns = t0.elapsed().as_nanos() as u64;
                    match ran {
                        Ok(Ok((report, probe))) => {
                            break SlotState::Done {
                                report,
                                probe,
                                wall_ns,
                            }
                        }
                        Ok(Err(err)) => {
                            if err.is_environmental() && attempts <= opts.retries {
                                // Transient host pressure: back off
                                // 5, 10, 20, … ms and try again.
                                std::thread::sleep(Duration::from_millis(
                                    5u64 << (attempts - 1).min(6),
                                ));
                                continue;
                            }
                            break SlotState::Failed {
                                failure: classify(cell, &err, attempts),
                                wall_ns,
                            };
                        }
                        Err(payload) => {
                            if opts.fail_fast {
                                *abort.lock().unwrap_or_else(PoisonError::into_inner) =
                                    Some(payload);
                                break 'work;
                            }
                            break SlotState::Failed {
                                failure: CellFailure {
                                    kind: FailureKind::Panic,
                                    message: panic_message(payload.as_ref()),
                                    scenario: cell.spec.name.clone(),
                                    policy: cell.policy.clone(),
                                    seed: cell.base_seed,
                                    attempts,
                                },
                                wall_ns,
                            };
                        }
                    }
                };
                if opts.fail_fast {
                    if let SlotState::Failed { failure, .. } = &outcome {
                        *abort.lock().unwrap_or_else(PoisonError::into_inner) =
                            Some(Box::new(format!("cell failed: {failure}")));
                        break 'work;
                    }
                }
                if let (
                    Some(file),
                    SlotState::Done {
                        report, wall_ns, ..
                    },
                ) = (journal_file.as_ref(), &outcome)
                {
                    if cell.probe == Probe::None {
                        let entry = JournalEntry {
                            fp: fingerprints[i],
                            scenario: cell.spec.name.clone(),
                            policy: cell.policy.clone(),
                            seed: cell.base_seed,
                            wall_ns: *wall_ns,
                            report: report.clone(),
                        };
                        let mut f = file.lock().unwrap_or_else(PoisonError::into_inner);
                        // Journal I/O is best-effort: a full disk must
                        // not take the in-memory results down with it.
                        let _ = writeln!(f, "{}", journal::encode(&entry));
                        let _ = f.flush();
                    }
                }
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
            });
        }
    });
    if let Some(payload) = abort.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }

    Ok(slots
        .into_iter()
        .map(
            |slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(SlotState::Done {
                    report,
                    probe,
                    wall_ns,
                }) => CellResult {
                    report: Some(report),
                    probe,
                    wall_ns,
                    failure: None,
                },
                Some(SlotState::Failed { failure, wall_ns }) => CellResult {
                    report: None,
                    probe: None,
                    wall_ns,
                    failure: Some(failure),
                },
                None => CellResult {
                    report: None,
                    probe: None,
                    wall_ns: 0,
                    failure: None,
                },
            },
        )
        .collect())
}

// ---------------------------------------------------------------------
// Shared reducers: the named normalisation folds every figure uses.
// ---------------------------------------------------------------------

/// The time-like cost of one VM in a report (lower is better); `None`
/// when the workload produced no metric.
pub fn cost_of(report: &RunReport, vm_index: usize) -> Option<f64> {
    report.vms.get(vm_index)?.metrics.time_cost()
}

/// `cost / baseline_cost` — the paper's normalisation: 1.0 matches
/// the baseline cell (usually the default Xen scheduler), lower is
/// better.
pub fn normalized(cost: Option<f64>, baseline: Option<f64>) -> Option<f64> {
    match (cost, baseline) {
        (Some(c), Some(b)) if b > 0.0 => Some(c / b),
        _ => None,
    }
}

/// Mean of the per-VM normalised costs for VMs of `class` (`None` =
/// all classes). `vm_classes` is the spec's per-VM ground truth
/// ([`aql_scenarios::classes`]); VMs with missing metrics (idle
/// padding) are skipped on both sides.
pub fn class_mean_norm(
    report: &RunReport,
    baseline: &RunReport,
    vm_classes: &[VcpuType],
    class: Option<VcpuType>,
) -> Option<f64> {
    let mut acc = 0.0;
    let mut n = 0usize;
    for (i, vm) in report.vms.iter().enumerate() {
        if class.is_some_and(|c| vm_classes[i] != c) {
            continue;
        }
        let cost = vm.metrics.time_cost();
        let base = baseline.vms[i].metrics.time_cost();
        if let Some(v) = normalized(cost, base) {
            acc += v;
            n += 1;
        }
    }
    (n > 0).then(|| acc / n as f64)
}

/// Averages an optional statistic over replicates; `None` unless
/// every replicate produced a value.
pub fn seed_mean(values: &[Option<f64>]) -> Option<f64> {
    let mut acc = 0.0;
    for v in values {
        acc += (*v)?;
    }
    Some(acc / values.len() as f64)
}

/// The classes a spec populates, deduplicated in [`VcpuType::ALL`]
/// order — the row order of every per-class figure.
pub fn classes_present(spec: &ScenarioSpec) -> Vec<VcpuType> {
    let classes = aql_scenarios::classes(spec);
    VcpuType::ALL
        .into_iter()
        .filter(|c| classes.contains(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny(name: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!(
            "scenario = {name}\n\
             machine = sockets=1 cores=2 cache=i7-3770\n\
             warmup_ms = 100\n\
             measure_ms = 250\n\
             vm web workload=io/heterogeneous/150 seed=42\n\
             vm walk-%i count=2 workload=walk/llcf|walk/llco\n"
        ))
        .unwrap()
    }

    #[test]
    fn results_land_in_cell_order() {
        let cells = vec![
            PlanCell::new(tiny("a"), "xen-credit"),
            PlanCell::new(tiny("b"), "fixed/10ms"),
        ];
        let out = execute(&cells, &ExecOpts::serial()).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.report.is_some()));
        assert!(out.iter().all(|r| r.wall_ns > 0));
    }

    #[test]
    fn execution_is_thread_count_invariant() {
        let cells: Vec<PlanCell> = (0..6)
            .map(|i| {
                PlanCell::new(
                    tiny(&format!("t{i}")),
                    if i % 2 == 0 {
                        "xen-credit"
                    } else {
                        "fixed/5ms"
                    },
                )
            })
            .collect();
        let serial = execute(&cells, &ExecOpts::serial()).unwrap();
        let parallel = execute(
            &cells,
            &ExecOpts {
                threads: 4,
                ..ExecOpts::default()
            },
        )
        .unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.report.as_ref().unwrap(), p.report.as_ref().unwrap());
            assert_eq!(s.total_cpu_ns(), p.total_cpu_ns());
            assert_eq!(s.vms[0].metrics.time_cost(), p.vms[0].metrics.time_cost());
        }
    }

    #[test]
    fn inapplicable_cells_yield_no_report() {
        let spec = ScenarioSpec::parse(
            "scenario = solo\n\
             machine = sockets=1 cores=1 cache=i7-3770\n\
             warmup_ms = 50\nmeasure_ms = 100\n\
             vm a workload=walk/lolcf\n",
        )
        .unwrap();
        let out = execute(
            &[
                PlanCell::new(spec.clone(), "vturbo"),
                PlanCell::new(spec, "xen-credit"),
            ],
            &ExecOpts::serial(),
        )
        .unwrap();
        assert!(out[0].report.is_none());
        assert_eq!(out[0].wall_ns, 0);
        assert!(out[1].report.is_some());
    }

    #[test]
    fn malformed_tokens_fail_before_running() {
        let err = execute(
            &[PlanCell::new(tiny("x"), "fixed/oops")],
            &ExecOpts::serial(),
        );
        assert!(err.is_err());
        assert!(execute(&[], &ExecOpts::serial()).is_err());
        // A socket list naming a socket the cell's machine lacks is a
        // fail-fast configuration error, not a worker-thread panic.
        let err = execute(
            &[PlanCell::new(tiny("x"), "xen-credit/sockets=1-3")],
            &ExecOpts::serial(),
        );
        assert!(
            err.as_ref().is_err_and(|e| e.contains("does not exist")),
            "{err:?}"
        );
    }

    #[test]
    fn probes_extract_policy_state() {
        let out = execute(
            &[
                PlanCell::new(tiny("p"), "aql-sched/history=8")
                    .with_probe(Probe::CursorHistory { vcpu: 0 }),
                PlanCell::new(tiny("p"), "aql-sched").with_probe(Probe::Reclusterings),
                PlanCell::new(tiny("p"), "aql-sched").with_probe(Probe::VtrsMajority { vm: 0 }),
                PlanCell::new(tiny("p"), "xen-credit").with_probe(Probe::Reclusterings),
            ],
            &ExecOpts::serial(),
        )
        .unwrap();
        assert!(matches!(&out[0].probe, Some(ProbeOut::Cursors(rows)) if !rows.is_empty()));
        assert!(matches!(out[1].probe, Some(ProbeOut::Reclusterings(_))));
        assert!(matches!(out[2].probe, Some(ProbeOut::Majority(_))));
        // A probe that needs AqlSched yields nothing under Xen.
        assert!(out[3].probe.is_none());
    }

    /// `tiny()` with a fault token on the `web` VM.
    fn faulty(name: &str, token: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!(
            "scenario = {name}\n\
             machine = sockets=1 cores=2 cache=i7-3770\n\
             warmup_ms = 100\n\
             measure_ms = 250\n\
             vm web workload=io/heterogeneous/150 seed=42 fault={token}\n\
             vm walk-%i count=2 workload=walk/llcf|walk/llco\n"
        ))
        .unwrap()
    }

    #[test]
    fn panicking_cell_is_contained_and_siblings_unaffected() {
        let cells = vec![
            PlanCell::new(tiny("a"), "xen-credit"),
            PlanCell::new(faulty("boom", "panic@30ms"), "xen-credit"),
            PlanCell::new(tiny("b"), "fixed/10ms"),
        ];
        let opts = ExecOpts {
            threads: 2,
            ..ExecOpts::default()
        };
        let out = execute(&cells, &opts).unwrap();
        let failure = out[1].failure.as_ref().expect("faulty cell must fail");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.message.contains("injected fault"), "{failure}");
        assert_eq!(failure.scenario, "boom");
        assert!(out[1].report.is_none());
        // Siblings are bitwise identical to a run with no faulty cell
        // in the matrix at all.
        let clean = execute(
            &[
                PlanCell::new(tiny("a"), "xen-credit"),
                PlanCell::new(tiny("b"), "fixed/10ms"),
            ],
            &ExecOpts::serial(),
        )
        .unwrap();
        assert_eq!(out[0].report, clean[0].report);
        assert_eq!(out[2].report, clean[1].report);
    }

    #[test]
    fn hanging_cell_trips_the_livelock_sentinel() {
        let out = execute(
            &[PlanCell::new(faulty("stuck", "hang"), "xen-credit")],
            &ExecOpts::serial(),
        )
        .unwrap();
        let failure = out[0].failure.as_ref().expect("hung cell must fail");
        assert_eq!(failure.kind, FailureKind::Livelock);
        assert_eq!(failure.attempts, 1, "deterministic failures never retry");
    }

    #[test]
    fn nan_rate_trips_the_invariant_sentinel() {
        let out = execute(
            &[PlanCell::new(faulty("poison", "nan-rate"), "xen-credit")],
            &ExecOpts::serial(),
        )
        .unwrap();
        let failure = out[0].failure.as_ref().expect("poisoned cell must fail");
        assert_eq!(failure.kind, FailureKind::Invariant);
    }

    #[test]
    fn wall_budget_is_environmental_and_retries() {
        let opts = ExecOpts {
            max_cell_wall: Some(Duration::ZERO),
            retries: 2,
            ..ExecOpts::serial()
        };
        let out = execute(&[PlanCell::new(tiny("slow"), "xen-credit")], &opts).unwrap();
        let failure = out[0].failure.as_ref().expect("zero budget must trip");
        assert_eq!(failure.kind, FailureKind::WallBudget);
        assert!(failure.kind.is_environmental());
        assert_eq!(failure.attempts, 3, "initial attempt + 2 retries");
    }

    #[test]
    fn fail_fast_reraises_the_original_panic() {
        let cells = vec![PlanCell::new(faulty("boom", "panic@30ms"), "xen-credit")];
        let opts = ExecOpts {
            fail_fast: true,
            ..ExecOpts::serial()
        };
        let err = catch_unwind(AssertUnwindSafe(|| execute(&cells, &opts)))
            .expect_err("fail-fast must re-raise");
        assert!(panic_message(err.as_ref()).contains("injected fault"));
    }

    #[test]
    fn journal_resume_is_byte_identical_to_a_clean_run() {
        let dir = std::env::temp_dir().join("aql_plan_resume_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cells.jsonl");
        let _ = std::fs::remove_file(&path);

        let partial = vec![PlanCell::new(tiny("a"), "xen-credit")];
        let full = vec![
            PlanCell::new(tiny("a"), "xen-credit"),
            PlanCell::new(tiny("b"), "fixed/10ms"),
        ];
        let journaled = ExecOpts {
            journal: Some(path.clone()),
            ..ExecOpts::serial()
        };
        // Simulate an interrupted sweep: only the first cell is in the
        // journal.
        let first = execute(&partial, &journaled).unwrap();
        assert_eq!(journal::load(&path).unwrap().len(), 1);

        // Resume the full plan: cell a prefills, cell b runs fresh.
        let resumed = execute(
            &full,
            &ExecOpts {
                resume: true,
                ..journaled.clone()
            },
        )
        .unwrap();
        let clean = execute(&full, &ExecOpts::serial()).unwrap();
        assert_eq!(resumed[0].report, first[0].report);
        assert_eq!(resumed[0].report, clean[0].report);
        assert_eq!(resumed[1].report, clean[1].report);
        // The prefilled cell reports the journaled wall time — proof it
        // was not re-simulated is that the journal gained exactly one
        // line (cell b), not two.
        assert_eq!(journal::load(&path).unwrap().len(), 2);

        // A journal written under a different executor config is
        // ignored: the fingerprint mismatches and every cell re-runs.
        let other_mode = ExecOpts {
            resume: true,
            coalesce: false,
            journal: Some(path.clone()),
            ..ExecOpts::serial()
        };
        let rerun = execute(&partial, &other_mode).unwrap();
        assert!(rerun[0].report.is_some());
        assert!(
            journal::load(&path).unwrap().len() > 2,
            "mismatched fingerprint must re-run and re-journal"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_without_journal_is_rejected() {
        let opts = ExecOpts {
            resume: true,
            ..ExecOpts::serial()
        };
        let err = execute(&[PlanCell::new(tiny("x"), "xen-credit")], &opts);
        assert!(err.is_err_and(|e| e.contains("journal")));
    }

    /// Drives [`ExecOpts::parse_flag`] the way the binaries do,
    /// skipping the arguments a binary would handle itself.
    fn parse_exec(argv: &[&str]) -> Result<ExecOpts, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        let mut opts = ExecOpts::default();
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            opts.parse_flag(arg, &mut args)?;
        }
        opts.check_flags().map(|()| opts)
    }

    const SHARED_FLAGS: [&str; 6] = [
        "--threads",
        "--time-mode",
        "--max-cell-wall",
        "--retries",
        "--journal",
        "--resume",
    ];

    #[test]
    fn shared_flags_parse_and_name_their_errors() {
        let opts = parse_exec(&[
            "--threads",
            "3",
            "fig7",
            "--time-mode",
            "dense",
            "--max-cell-wall",
            "250ms",
            "--retries",
            "2",
            "--resume",
            "--journal",
            "j.jsonl",
        ])
        .unwrap();
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.time_mode, TimeMode::Dense);
        assert_eq!(opts.max_cell_wall, Some(Duration::from_millis(250)));
        assert_eq!(opts.retries, 2);
        assert_eq!(opts.journal, Some(PathBuf::from("j.jsonl")));
        assert!(opts.resume);
        for (argv, err) in [
            (&["--threads"][..], "--threads needs a value"),
            (&["--threads", "two"], "--threads needs a number, got 'two'"),
            (
                &["--time-mode", "both"],
                "--time-mode must be adaptive or dense, got 'both'",
            ),
            (
                &["--max-cell-wall", "soon"],
                "--max-cell-wall: bad duration 'soon'",
            ),
            (&["--retries", "-1"], "--retries needs a number, got '-1'"),
            (&["--resume"], "--resume requires --journal"),
        ] {
            assert_eq!(parse_exec(argv).unwrap_err(), err);
        }
        assert_eq!(time_mode_label(TimeMode::Adaptive), "adaptive");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn random_argv_parses_or_names_the_offending_flag(
            picks in prop::collection::vec(0usize..23, 0..8),
        ) {
            const TOKENS: [&str; 23] = [
                "--threads", "--time-mode", "--max-cell-wall", "--retries", "--journal",
                "--resume", "4", "0", "adaptive", "dense", "250ms", "j.jsonl", "", "-1",
                "abc", "both", "1e3", "18446744073709551616", "ms", "--bogus", "fig7", "-",
                "--",
            ];
            let argv: Vec<&str> = picks.iter().map(|&i| TOKENS[i]).collect();
            match parse_exec(&argv) {
                Ok(opts) => prop_assert!(!opts.resume || opts.journal.is_some()),
                Err(e) => prop_assert!(SHARED_FLAGS.iter().any(|f| e.starts_with(f)), "{e}"),
            }
        }
    }

    #[test]
    fn reducer_behaviour() {
        assert_eq!(normalized(Some(2.0), Some(4.0)), Some(0.5));
        assert_eq!(normalized(None, Some(1.0)), None);
        assert_eq!(normalized(Some(1.0), Some(0.0)), None);
        assert_eq!(seed_mean(&[Some(1.0), Some(3.0)]), Some(2.0));
        assert_eq!(seed_mean(&[Some(1.0), None]), None);
        let spec = tiny("c");
        assert_eq!(
            classes_present(&spec),
            [VcpuType::IoInt, VcpuType::Llcf, VcpuType::Llco]
        );
    }
}
