//! From declarative spec to running simulation.
//!
//! The construction pipeline is: [`ScenarioSpec`] → [`expand`] (VM
//! instances with workloads and seeds) → [`aql_hv::SimulationBuilder`]
//! → [`aql_hv::Simulation`] → [`aql_hv::RunReport`].
//!
//! # The determinism contract
//!
//! A run is a pure function of `(spec, policy, base_seed)`, where a
//! plain [`run`] uses the spec's own `seed`. The engine draws no
//! random numbers; each stochastic workload carries its own
//! generator, seeded per VM:
//!
//! 1. A VM with an explicit `seed=` keeps exactly that value when the
//!    run uses the spec's declared base seed; running at a different
//!    base *rebases* it by the same delta, so intra-scenario
//!    de-correlation (distinct streams per VM) is preserved while
//!    every replicate gets fresh streams.
//! 2. A VM without `seed=` derives one from
//!    [`derive_seed`]`("scenario/vm-name", base_seed)` — stable
//!    across reordering of unrelated VM lines.
//!
//! Nothing depends on wall-clock time, thread scheduling or iteration
//! order of any map, so repeated runs are byte-identical.

use aql_baselines::{xen_credit, Microsliced, VSlicer, VTurbo};
use aql_core::{AqlSched, AqlSchedConfig, VtrsConfig};
use aql_hv::apptype::VcpuType;
use aql_hv::ids::SocketId;
use aql_hv::policy::{FixedQuantumPolicy, RestrictedCredit};
use aql_hv::workload::GuestWorkload;
use aql_hv::{
    MachineSpec, RunReport, SchedPolicy, Simulation, SimulationBuilder, TimeMode, VmSpec,
};
use aql_sim::rng::derive_seed;
use aql_sim::time::parse_dur;

use crate::spec::ScenarioSpec;

/// The five registry base names every sweep compares, in presentation
/// order. `xen-credit` first: it is the normalisation baseline.
pub const POLICY_NAMES: [&str; 5] = [
    "xen-credit",
    "microsliced",
    "vslicer",
    "vturbo",
    "aql-sched",
];

/// The concrete machine a spec describes.
pub fn machine(spec: &ScenarioSpec) -> MachineSpec {
    let name = spec.machine.name.as_deref().unwrap_or(&spec.name);
    MachineSpec::custom(
        name,
        spec.machine.sockets,
        spec.machine.cores_per_socket,
        spec.machine.cache.cache_spec(),
    )
}

/// Expands a spec into its VM instances (spec + workload, placement
/// order) at the spec's own base seed.
pub fn expand(spec: &ScenarioSpec) -> Vec<(VmSpec, Box<dyn GuestWorkload>)> {
    expand_seeded(spec, spec.seed)
}

/// Expands a spec at an arbitrary base seed (see the module docs for
/// the rebasing rule).
pub fn expand_seeded(spec: &ScenarioSpec, base_seed: u64) -> Vec<(VmSpec, Box<dyn GuestWorkload>)> {
    let delta = base_seed.wrapping_sub(spec.seed);
    let machine_cache = spec.machine.cache.cache_spec();
    let mut out = Vec::new();
    for vm in &spec.vms {
        // A per-VM cache= overlay sizes the workload model against
        // that preset instead of the host's.
        let cache = vm.cache.map_or(machine_cache, |c| c.cache_spec());
        for i in 0..vm.count {
            let name = vm.instance_name(i);
            let seed = match vm.seed {
                Some(s) => s.of_instance(i).wrapping_add(delta),
                None => derive_seed(&format!("{}/{}", spec.name, name), base_seed),
            };
            let (mut vspec, mut wl) = vm.workload_of(i).build(&name, &cache, seed);
            if let Some(fault) = vm.fault {
                // Fault injection: misbehave on purpose, so the
                // harness's degradation paths are provable end to end.
                wl = Box::new(aql_workloads::FaultyWorkload::new(wl, fault));
            }
            if let Some(w) = vm.weight {
                vspec.weight = w;
            }
            vspec.pin = vm.pin;
            out.push((vspec, wl));
        }
    }
    out
}

/// The ground-truth class of every VM instance, in placement order
/// (parallel to [`expand`]'s output and to `RunReport::vms`).
pub fn classes(spec: &ScenarioSpec) -> Vec<VcpuType> {
    spec.vms
        .iter()
        .flat_map(|vm| (0..vm.count).map(|i| vm.class_of(i)))
        .collect()
}

/// The ground-truth class of every *vCPU*, in engine id order (an SMP
/// VM contributes one entry per vCPU). Parallel to
/// `Hypervisor::vcpus`; cluster-composition reports index into this.
pub fn vcpu_classes(spec: &ScenarioSpec) -> Vec<VcpuType> {
    spec.vms
        .iter()
        .flat_map(|vm| {
            (0..vm.count)
                .flat_map(|i| std::iter::repeat_n(vm.class_of(i), vm.workload_of(i).vcpus()))
        })
        .collect()
}

/// Builds the simulation (without running it) at the spec's own seed,
/// in the default time mode with coalescing on.
pub fn build_sim(spec: &ScenarioSpec, policy: Box<dyn SchedPolicy>) -> Simulation {
    build_sim_seeded_tuned(spec, policy, spec.seed, TimeMode::default(), true)
}

/// Builds the simulation at an arbitrary base seed under an explicit
/// [`TimeMode`]. `Dense` is the conformance oracle; `Adaptive` (the
/// fast default) reproduces it within the documented tolerance
/// (bit-identical u64 accounting and events, ≤1e-6 relative drift on
/// f64 metrics from chunk coalescing). `coalesce = false` pins
/// `TimeMode::Adaptive` to the grid-replaying fast path that is
/// bit-identical to `Dense`, which perfbench's `--trace 1` times as
/// `horizon.flat_s` next to the coalesced default.
pub fn build_sim_seeded_tuned(
    spec: &ScenarioSpec,
    policy: Box<dyn SchedPolicy>,
    base_seed: u64,
    mode: TimeMode,
    coalesce: bool,
) -> Simulation {
    SimulationBuilder::new(machine(spec))
        .substep_ns(spec.substep_ns)
        .time_mode(mode)
        .coalesce(coalesce)
        .policy(policy)
        .vms(expand_seeded(spec, base_seed))
        .build()
}

/// Runs warm-up + measurement at the spec's own seed; returns the
/// steady-state report.
pub fn run(spec: &ScenarioSpec, policy: Box<dyn SchedPolicy>) -> RunReport {
    run_seeded_in(spec, policy, spec.seed, TimeMode::default())
}

/// Runs warm-up + measurement at an arbitrary base seed under an
/// explicit [`TimeMode`].
pub fn run_seeded_in(
    spec: &ScenarioSpec,
    policy: Box<dyn SchedPolicy>,
    base_seed: u64,
    mode: TimeMode,
) -> RunReport {
    build_sim_seeded_tuned(spec, policy, base_seed, mode, true)
        .run_measured(spec.warmup_ns, spec.measure_ns)
}

/// [`run_seeded_in`] with explicit control over chunk coalescing (see
/// [`build_sim_seeded_tuned`]).
pub fn run_seeded_tuned(
    spec: &ScenarioSpec,
    policy: Box<dyn SchedPolicy>,
    base_seed: u64,
    mode: TimeMode,
    coalesce: bool,
) -> RunReport {
    build_sim_seeded_tuned(spec, policy, base_seed, mode, coalesce)
        .run_measured(spec.warmup_ns, spec.measure_ns)
}

/// The names of the spec's latency-sensitive VM instances (ground
/// truth class `IOInt`) — what vSlicer/vTurbo's manual tagging step
/// would mark.
pub fn tagged_io_vms(spec: &ScenarioSpec) -> Vec<String> {
    let mut names = Vec::new();
    for vm in &spec.vms {
        for i in 0..vm.count {
            if vm.class_of(i) == VcpuType::IoInt {
                names.push(vm.instance_name(i));
            }
        }
    }
    names
}

/// A parsed policy token.
///
/// Besides the five bare registry names ([`POLICY_NAMES`]), tokens
/// may carry parameters after a `/`:
///
/// | Token | Policy |
/// |---|---|
/// | `fixed/<dur>` | [`FixedQuantumPolicy`] with that machine-wide quantum (`fixed/10ms`) |
/// | `xen-credit/sockets=<list>` | [`RestrictedCredit`]: native Xen confined to those sockets |
/// | `aql-sched/<k=v,…>` | [`AqlSched`] with config overrides: `sockets=<list>` (usable sockets), `uniform=<dur>` (disable quantum customisation), `window=<n>` (vTRS window), `history=<n>` (cursor periods recorded) |
///
/// A socket `<list>` is `+`-separated indices and `a-b` ranges
/// (`sockets=1-3`, `sockets=0+2`; `,` separates whole arguments).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Native Xen Credit, optionally confined to a socket subset.
    XenCredit {
        /// Guest-usable sockets; `None` = the whole machine.
        sockets: Option<Vec<SocketId>>,
    },
    /// Microsliced: a small uniform quantum.
    Microsliced,
    /// vSlicer with the spec's IOInt VMs manually tagged.
    VSlicer,
    /// vTurbo with the spec's IOInt VMs manually tagged.
    VTurbo,
    /// The paper's AQL_Sched, with optional config overrides.
    AqlSched {
        /// Usable sockets (`None` = all).
        sockets: Option<Vec<SocketId>>,
        /// Uniform quantum disabling the customisation step (Fig. 7).
        uniform_quantum: Option<u64>,
        /// vTRS window override.
        window: Option<usize>,
        /// Cursor-history periods to record (Fig. 4).
        history: Option<usize>,
    },
    /// A fixed machine-wide quantum (the Fig. 2/Fig. 5 sweeps).
    Fixed {
        /// Quantum in ns.
        quantum_ns: u64,
    },
}

fn parse_sockets(list: &str) -> Result<Vec<SocketId>, String> {
    let mut out = Vec::new();
    for item in list.split('+') {
        if let Some((a, b)) = item.split_once('-') {
            let (a, b) = (
                a.parse::<usize>().map_err(|_| bad_sockets(list))?,
                b.parse::<usize>().map_err(|_| bad_sockets(list))?,
            );
            if a > b {
                return Err(bad_sockets(list));
            }
            out.extend((a..=b).map(SocketId));
        } else {
            out.push(SocketId(item.parse().map_err(|_| bad_sockets(list))?));
        }
    }
    if out.is_empty() {
        return Err(bad_sockets(list));
    }
    Ok(out)
}

fn bad_sockets(list: &str) -> String {
    format!("bad socket list '{list}' (want e.g. '1-3' or '0+2')")
}

/// Parses a policy token. Errors are human-readable and name the
/// offending part.
pub fn parse_policy(token: &str) -> Result<PolicySpec, String> {
    let (base, args) = match token.split_once('/') {
        Some((b, a)) => (b, Some(a)),
        None => (token, None),
    };
    let kv_args = |args: Option<&str>| -> Result<Vec<(String, String)>, String> {
        let Some(args) = args else {
            return Ok(Vec::new());
        };
        args.split(',')
            .map(|kv| {
                kv.split_once('=')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .ok_or_else(|| format!("malformed policy argument '{kv}' in '{token}'"))
            })
            .collect()
    };
    match base {
        "fixed" => {
            let Some(args) = args else {
                return Err("fixed needs a quantum, e.g. 'fixed/10ms'".to_string());
            };
            let quantum_ns =
                parse_dur(args).ok_or_else(|| format!("bad quantum '{args}' in '{token}'"))?;
            Ok(PolicySpec::Fixed { quantum_ns })
        }
        "xen-credit" => {
            let mut sockets = None;
            for (k, v) in kv_args(args)? {
                match k.as_str() {
                    "sockets" => sockets = Some(parse_sockets(&v)?),
                    _ => return Err(format!("unknown xen-credit argument '{k}' in '{token}'")),
                }
            }
            Ok(PolicySpec::XenCredit { sockets })
        }
        "microsliced" if args.is_none() => Ok(PolicySpec::Microsliced),
        "vslicer" if args.is_none() => Ok(PolicySpec::VSlicer),
        "vturbo" if args.is_none() => Ok(PolicySpec::VTurbo),
        "aql-sched" => {
            let (mut sockets, mut uniform_quantum, mut window, mut history) =
                (None, None, None, None);
            for (k, v) in kv_args(args)? {
                match k.as_str() {
                    "sockets" => sockets = Some(parse_sockets(&v)?),
                    "uniform" => {
                        uniform_quantum = Some(
                            parse_dur(&v)
                                .ok_or_else(|| format!("bad quantum '{v}' in '{token}'"))?,
                        )
                    }
                    "window" => {
                        window = Some(
                            v.parse::<usize>()
                                .ok()
                                .filter(|&n| n > 0)
                                .ok_or_else(|| format!("bad window '{v}' in '{token}'"))?,
                        )
                    }
                    "history" => {
                        history = Some(
                            v.parse::<usize>()
                                .map_err(|_| format!("bad history '{v}' in '{token}'"))?,
                        )
                    }
                    _ => return Err(format!("unknown aql-sched argument '{k}' in '{token}'")),
                }
            }
            Ok(PolicySpec::AqlSched {
                sockets,
                uniform_quantum,
                window,
                history,
            })
        }
        _ => Err(format!(
            "unknown policy '{token}' (known: {}, fixed/<dur>)",
            POLICY_NAMES.join(", ")
        )),
    }
}

impl PolicySpec {
    /// The socket-restriction argument, if the token carries one.
    fn socket_args(&self) -> Option<&[SocketId]> {
        match self {
            PolicySpec::XenCredit { sockets } | PolicySpec::AqlSched { sockets, .. } => {
                sockets.as_deref()
            }
            _ => None,
        }
    }

    /// Checks the token against a concrete scenario: every named
    /// socket must exist on the spec's machine. A mismatch is a
    /// *configuration error* (fail fast), not inapplicability — a
    /// typoed socket list must not silently render as `-` cells.
    pub fn validate_for(&self, spec: &ScenarioSpec) -> Result<(), String> {
        let Some(sockets) = self.socket_args() else {
            return Ok(());
        };
        let machine_sockets = spec.machine.sockets;
        for s in sockets {
            if s.index() >= machine_sockets {
                return Err(format!(
                    "socket {} does not exist on '{}' ({machine_sockets} sockets)",
                    s.index(),
                    spec.name
                ));
            }
        }
        Ok(())
    }

    /// Whether the policy can run on the spec's machine at all.
    /// vTurbo dedicates one turbo core per socket and must leave
    /// regular cores, so it needs at least two cores per socket;
    /// everything else runs on any machine.
    pub fn applicable(&self, spec: &ScenarioSpec) -> bool {
        match self {
            PolicySpec::VTurbo => spec.machine.cores_per_socket >= 2,
            _ => true,
        }
    }

    /// Instantiates the policy for a scenario. The comparators that
    /// need manual VM tagging (vSlicer, vTurbo) are given the spec's
    /// IOInt VMs, mirroring the paper's "manually configured for best
    /// performance".
    pub fn build(&self, spec: &ScenarioSpec) -> Box<dyn SchedPolicy> {
        match self {
            PolicySpec::XenCredit { sockets: None } => Box::new(xen_credit()),
            PolicySpec::XenCredit {
                sockets: Some(sockets),
            } => Box::new(RestrictedCredit::new(sockets.clone())),
            PolicySpec::Microsliced => Box::new(Microsliced::default()),
            PolicySpec::VSlicer => {
                let tagged = tagged_io_vms(spec);
                let refs: Vec<&str> = tagged.iter().map(String::as_str).collect();
                Box::new(VSlicer::new(&refs))
            }
            PolicySpec::VTurbo => {
                let tagged = tagged_io_vms(spec);
                let refs: Vec<&str> = tagged.iter().map(String::as_str).collect();
                Box::new(VTurbo::new(&refs))
            }
            PolicySpec::AqlSched {
                sockets,
                uniform_quantum,
                window,
                history,
            } => {
                let mut cfg = AqlSchedConfig {
                    usable_sockets: sockets.clone(),
                    uniform_quantum: *uniform_quantum,
                    record_history: history.unwrap_or(0),
                    ..AqlSchedConfig::default()
                };
                if let Some(n) = window {
                    cfg.vtrs = VtrsConfig {
                        window: *n,
                        ..VtrsConfig::default()
                    };
                }
                Box::new(AqlSched::new(cfg))
            }
            PolicySpec::Fixed { quantum_ns } => Box::new(FixedQuantumPolicy::new(*quantum_ns)),
        }
    }
}

/// Whether a policy token can run on the spec's machine at all (see
/// [`PolicySpec::applicable`]). Unknown tokens are "applicable" so the
/// caller's parse error surfaces instead of a silent skip.
pub fn policy_applicable(spec: &ScenarioSpec, name: &str) -> bool {
    parse_policy(name).map_or(true, |p| p.applicable(spec))
}

/// Instantiates a policy by token (see [`parse_policy`]); `None` for
/// unknown or malformed tokens.
pub fn policy_for(spec: &ScenarioSpec, name: &str) -> Option<Box<dyn SchedPolicy>> {
    parse_policy(name).ok().map(|p| p.build(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::VmSeed;

    fn tiny() -> ScenarioSpec {
        ScenarioSpec::parse(
            "scenario = tiny\n\
             machine = sockets=1 cores=2 cache=i7-3770\n\
             seed = 5\n\
             warmup_ms = 100\n\
             measure_ms = 300\n\
             vm web workload=io/heterogeneous/120 seed=9\n\
             vm walk-%i count=2 workload=walk/llcf|walk/llco\n",
        )
        .unwrap()
    }

    #[test]
    fn expansion_matches_declaration_order() {
        let s = tiny();
        let vms = expand(&s);
        let names: Vec<&str> = vms.iter().map(|(v, _)| v.name.as_str()).collect();
        assert_eq!(names, ["web", "walk-0", "walk-1"]);
        assert_eq!(
            classes(&s),
            [VcpuType::IoInt, VcpuType::Llcf, VcpuType::Llco]
        );
        assert_eq!(tagged_io_vms(&s), ["web"]);
    }

    #[test]
    fn run_is_deterministic_and_seed_sensitive() {
        let s = tiny();
        let a = run(&s, Box::new(xen_credit()));
        let b = run(&s, Box::new(xen_credit()));
        assert_eq!(a.vms[0].metrics.time_cost(), b.vms[0].metrics.time_cost());
        assert_eq!(a.total_cpu_ns(), b.total_cpu_ns());
        let c = run_seeded_in(&s, Box::new(xen_credit()), 999, TimeMode::default());
        assert_ne!(
            a.vms[0].metrics.time_cost(),
            c.vms[0].metrics.time_cost(),
            "a different base seed must change the IO trace"
        );
    }

    #[test]
    fn rebasing_shifts_explicit_seeds_by_the_delta() {
        let mut s = tiny();
        s.vms[0].seed = Some(VmSeed::Indexed(9));
        // At the declared base seed the explicit values hold; at
        // base+delta every explicit seed shifts by delta. Verify via
        // the pure seed arithmetic (streams are opaque).
        let delta = 100u64;
        let base = s.seed.wrapping_add(delta);
        let rebased = s.vms[0]
            .seed
            .unwrap()
            .of_instance(0)
            .wrapping_add(base.wrapping_sub(s.seed));
        assert_eq!(rebased, 9 + delta);
    }

    #[test]
    fn every_policy_name_instantiates() {
        let s = tiny();
        for name in POLICY_NAMES {
            let p = policy_for(&s, name).unwrap_or_else(|| panic!("{name} must build"));
            drop(p);
        }
        assert!(policy_for(&s, "cfs").is_none());
    }

    #[test]
    fn parameterised_tokens_parse() {
        use aql_sim::time::MS;
        assert_eq!(
            parse_policy("fixed/10ms"),
            Ok(PolicySpec::Fixed {
                quantum_ns: 10 * MS
            })
        );
        assert_eq!(
            parse_policy("xen-credit/sockets=1-3"),
            Ok(PolicySpec::XenCredit {
                sockets: Some(vec![SocketId(1), SocketId(2), SocketId(3)])
            })
        );
        assert_eq!(
            parse_policy("aql-sched/sockets=0+2+3,uniform=90ms,window=8,history=50"),
            Ok(PolicySpec::AqlSched {
                sockets: Some(vec![SocketId(0), SocketId(2), SocketId(3)]),
                uniform_quantum: Some(90 * MS),
                window: Some(8),
                history: Some(50),
            })
        );
        assert_eq!(parse_policy("aql-sched"), parse_policy("aql-sched"));
    }

    #[test]
    fn malformed_tokens_are_rejected() {
        for bad in [
            "fixed",
            "fixed/oops",
            "fixed/0ms",
            "xen-credit/sockets=3-1",
            "xen-credit/quantum=10ms",
            "aql-sched/window=0",
            "aql-sched/uniform=never",
            "aql-sched/sockets=",
            "vturbo/fast",
            "microsliced/1ms",
            "cfs",
        ] {
            assert!(parse_policy(bad).is_err(), "'{bad}' must fail");
        }
    }

    #[test]
    fn socket_lists_must_name_existing_sockets() {
        let s = tiny(); // 1-socket machine
        let ok = parse_policy("xen-credit/sockets=0").unwrap();
        assert!(ok.validate_for(&s).is_ok());
        for token in ["xen-credit/sockets=1-3", "aql-sched/sockets=2"] {
            let p = parse_policy(token).unwrap();
            let e = p.validate_for(&s).unwrap_err();
            assert!(e.contains("does not exist"), "{token}: {e}");
        }
        // Tokens without a sockets argument always validate.
        assert!(parse_policy("fixed/10ms").unwrap().validate_for(&s).is_ok());
    }

    #[test]
    fn parameterised_tokens_build_policies() {
        let s = tiny();
        let fixed = policy_for(&s, "fixed/10ms").unwrap();
        assert_eq!(fixed.name(), "fixed-10ms");
        let restricted = policy_for(&s, "xen-credit/sockets=0").unwrap();
        assert_eq!(restricted.name(), "xen-credit-restricted");
        let aql = policy_for(&s, "aql-sched/window=2,uniform=1ms").unwrap();
        assert_eq!(aql.name(), "aql-sched");
    }

    #[test]
    fn vcpu_classes_expand_smp_vms() {
        let s = ScenarioSpec::parse(
            "scenario = smp\n\
             machine = sockets=1 cores=2 cache=i7-3770\n\
             vm spin workload=spin/kernbench/3\n\
             vm web workload=io/exclusive/100\n",
        )
        .unwrap();
        assert_eq!(
            vcpu_classes(&s),
            [
                VcpuType::ConSpin,
                VcpuType::ConSpin,
                VcpuType::ConSpin,
                VcpuType::IoInt
            ]
        );
        assert_eq!(classes(&s), [VcpuType::ConSpin, VcpuType::IoInt]);
    }

    #[test]
    fn cache_overlay_changes_the_built_working_set() {
        // The same walk/llcf line sized against the two presets must
        // produce different working sets (the LLCs differ), which is
        // what keeps the Fig. 3 walkers byte-faithful on the Xeon.
        let text = |cache: &str| {
            format!(
                "scenario = c\nmachine = sockets=1 cores=1 cache=xeon-e5-4603\n\
                 vm a workload=walk/llcf{cache}\n"
            )
        };
        let host = ScenarioSpec::parse(&text("")).unwrap();
        let overlay = ScenarioSpec::parse(&text(" cache=i7-3770")).unwrap();
        // A short run exposes the different working sets as different
        // measured costs (everything else about the runs is equal).
        let cost = |spec: &ScenarioSpec| {
            let spec = spec.clone().with_warmup_ns(0).with_measure_ns(100_000_000);
            run(&spec, policy_for(&spec, "xen-credit").unwrap()).vms[0]
                .metrics
                .time_cost()
        };
        assert_ne!(cost(&host), cost(&overlay));
    }

    #[test]
    fn all_five_policies_complete_a_quick_run() {
        let s = tiny();
        for name in POLICY_NAMES {
            let r = run(&s, policy_for(&s, name).unwrap());
            assert_eq!(r.vms.len(), 3, "{name}");
            assert!(r.total_cpu_ns() > 0, "{name}");
        }
    }
}
