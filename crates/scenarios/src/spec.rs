//! The declarative scenario format.
//!
//! A scenario file is a small line-oriented text document (hand-rolled
//! parser — this environment is offline, so no external parser crates)
//! describing everything a reproducible colocation experiment needs:
//! machine topology, cache preset, VM population with workload mix,
//! seeds and run durations. Example:
//!
//! ```text
//! # Sixteen vCPUs on four cores, one group per application type.
//! scenario   = quickstart
//! machine    = sockets=1 cores=4 cache=i7-3770
//! seed       = 1
//! warmup_ms  = 1000
//! measure_ms = 6000
//! substep_us = 100
//! vm web-%i   count=4 workload=io/heterogeneous/120 seed=10+
//! vm parsec   workload=spin/kernbench/4 seed=20
//! vm llcf-%i  count=4 workload=walk/llcf
//! vm llco-%i  count=2 workload=walk/llco
//! vm lolcf-%i count=2 workload=walk/lolcf
//! ```
//!
//! Grammar, line by line:
//!
//! * `#`-prefixed lines and blank lines are ignored.
//! * `key = value` header lines: `scenario` (required, first),
//!   `machine` (required; `sockets=<n> cores=<n> cache=<preset>` with
//!   optional `name=<s>`), `seed`, `warmup_ms`, `measure_ms`,
//!   `substep_us` (all optional, with the defaults shown above).
//! * `vm <name> [attr=value]…` lines declare a VM group, in placement
//!   order. Attributes:
//!   * `count=<n>` — instances (default 1, at most [`MAX_VM_COUNT`]).
//!     The name must contain `%i` (replaced by the instance index) iff
//!     `count > 1`.
//!   * `workload=<token>[|<token>…]` — required; each token is a
//!     [`WorkloadSpec`]. With alternation, instance `i` uses token
//!     `i mod k`, which expresses interleaved mixes compactly.
//!   * `seed=<n>` or `seed=<n>+` — the workload's private seed;
//!     with `+`, instance `i` gets `n + i`. Omitted seeds are derived
//!     from the VM name (see [`crate::build`]).
//!   * `weight=<n>` — Credit weight override (default: 256 per vCPU).
//!   * `class=<label>` — ground-truth type override (default: derived
//!     from the workload token).
//!   * `pin=<pcpu>` — hard pCPU pin for every instance's vCPUs (the
//!     single-pCPU calibration panels); must name a pCPU that exists.
//!   * `cache=<preset>` — size the workload model against this cache
//!     preset instead of the host machine's (benchmark binaries keep
//!     their working sets wherever they run).
//!   * `fault=<token>` — wrap every instance's workload in a
//!     [`FaultyWorkload`](aql_workloads::FaultyWorkload) injecting one
//!     deterministic failure mode (`panic@<dur>`, `hang`,
//!     `hang@<dur>`, `nan-rate`, `horizon-lie`, `coalesce-break`).
//!     Fault-injection scenarios exist to prove the harness's
//!     degradation paths; the catalog never uses them.
//!
//! A machine has at most [`MAX_PCPUS`] pCPUs and a scenario places at
//! most [`MAX_VCPUS`] vCPUs; larger documents are rejected at the line
//! that crosses the limit.
//!
//! Every spec round-trips: [`ScenarioSpec::to_text`] serialises the
//! canonical form and [`ScenarioSpec::parse`] reproduces the value
//! exactly ([`PartialEq`]).

use core::fmt;

use aql_hv::apptype::VcpuType;
use aql_mem::CacheSpec;
use aql_sim::time::{MS, US};
use aql_workloads::{FaultSpec, WorkloadSpec};

/// Default base seed when a scenario file omits `seed`.
pub const DEFAULT_SEED: u64 = 42;
/// Default warm-up (ns) when a scenario file omits `warmup_ms`.
pub const DEFAULT_WARMUP_NS: u64 = 1000 * MS;
/// Default measured time (ns) when a scenario file omits `measure_ms`.
pub const DEFAULT_MEASURE_NS: u64 = 6000 * MS;
/// Default engine sub-step (ns) when a scenario file omits
/// `substep_us`.
pub const DEFAULT_SUBSTEP_NS: u64 = 100 * US;

/// Most pCPUs (`sockets × cores`) a `machine` line may declare. This
/// and the two limits below keep a malformed file from asking the
/// simulator for billions of objects; they sit far above the catalog's
/// largest scenarios (16 pCPUs, 48 vCPUs).
pub const MAX_PCPUS: usize = 1024;
/// Most instances one `vm` line may declare (`count=`).
pub const MAX_VM_COUNT: usize = 1024;
/// Most vCPUs a scenario may place over all VM instances; an SMP
/// instance (`spin/kernbench/<threads>`, `app/…`) counts each vCPU.
pub const MAX_VCPUS: usize = 4096;

/// A named cache-hierarchy preset (the paper's two hosts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePreset {
    /// Intel Core i7-3770 (Table 2): 8 MB LLC.
    I7_3770,
    /// Intel Xeon E5-4603 (§4.2): 10 MB LLC per socket.
    XeonE5_4603,
}

impl CachePreset {
    /// The preset's token in scenario files.
    pub fn token(self) -> &'static str {
        match self {
            CachePreset::I7_3770 => "i7-3770",
            CachePreset::XeonE5_4603 => "xeon-e5-4603",
        }
    }

    /// Parses a preset token.
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "i7-3770" => Some(CachePreset::I7_3770),
            "xeon-e5-4603" => Some(CachePreset::XeonE5_4603),
            _ => None,
        }
    }

    /// The concrete cache geometry.
    pub fn cache_spec(self) -> CacheSpec {
        match self {
            CachePreset::I7_3770 => CacheSpec::i7_3770(),
            CachePreset::XeonE5_4603 => CacheSpec::xeon_e5_4603(),
        }
    }
}

/// The machine shape a scenario runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineDecl {
    /// Machine name; `None` defaults to the scenario name.
    pub name: Option<String>,
    /// Socket count.
    pub sockets: usize,
    /// Cores (pCPUs) per socket.
    pub cores_per_socket: usize,
    /// Cache preset.
    pub cache: CachePreset,
}

/// How a VM group's workload seeds are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmSeed {
    /// Every instance uses exactly this seed.
    Fixed(u64),
    /// Instance `i` uses `base + i` (the `<n>+` form).
    Indexed(u64),
}

impl VmSeed {
    /// The seed of instance `i`, before rebasing (see
    /// [`crate::build::expand_seeded`]).
    pub fn of_instance(self, i: usize) -> u64 {
        match self {
            VmSeed::Fixed(s) => s,
            VmSeed::Indexed(base) => base.wrapping_add(i as u64),
        }
    }
}

/// One `vm` line: a group of `count` VM instances.
#[derive(Debug, Clone, PartialEq)]
pub struct VmDecl {
    /// Name pattern; `%i` expands to the instance index.
    pub name: String,
    /// Number of instances.
    pub count: usize,
    /// Workload alternation ring; instance `i` uses entry
    /// `i mod len`.
    pub workloads: Vec<WorkloadSpec>,
    /// Explicit seed assignment; `None` derives from the VM name.
    pub seed: Option<VmSeed>,
    /// Credit-weight override; `None` uses 256 per vCPU.
    pub weight: Option<u32>,
    /// Ground-truth class override; `None` derives from the workload.
    pub class: Option<VcpuType>,
    /// Hard pCPU pin: every instance's vCPUs run only on this pCPU
    /// (the single-pCPU calibration panels); `None` = free placement.
    pub pin: Option<usize>,
    /// Cache overlay: size the workload model against this preset
    /// instead of the host machine's (a benchmark binary keeps its
    /// working set wherever it runs). `None` = the machine's cache.
    pub cache: Option<CachePreset>,
    /// Injected fault: every instance's workload is wrapped in a
    /// [`FaultyWorkload`](aql_workloads::FaultyWorkload) with this
    /// spec. `None` (always, outside directed fault tests) runs the
    /// workload unwrapped.
    pub fault: Option<FaultSpec>,
}

impl VmDecl {
    /// The concrete name of instance `i`.
    pub fn instance_name(&self, i: usize) -> String {
        self.name.replace("%i", &i.to_string())
    }

    /// The workload spec instance `i` uses.
    pub fn workload_of(&self, i: usize) -> &WorkloadSpec {
        &self.workloads[i % self.workloads.len()]
    }

    /// The ground-truth class of instance `i`.
    pub fn class_of(&self, i: usize) -> VcpuType {
        self.class.unwrap_or_else(|| self.workload_of(i).class())
    }

    /// vCPUs over all instances (saturating, so an oversized
    /// declaration reads as huge rather than wrapping).
    pub(crate) fn vcpus(&self) -> usize {
        (0..self.count)
            .map(|i| self.workload_of(i).vcpus())
            .fold(0, usize::saturating_add)
    }
}

/// A parsed declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name; seeds of a sweep derive from it.
    pub name: String,
    /// Machine shape.
    pub machine: MachineDecl,
    /// Base seed: the engine seed, and the anchor explicit VM seeds
    /// are declared relative to.
    pub seed: u64,
    /// Warm-up before measurement (ns).
    pub warmup_ns: u64,
    /// Measured time (ns).
    pub measure_ns: u64,
    /// Engine execution sub-step (ns).
    pub substep_ns: u64,
    /// VM groups in placement order.
    pub vms: Vec<VmDecl>,
}

/// A scenario-file syntax or validation error, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number in the input (0 for document-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        line,
        message: message.into(),
    })
}

/// Splits `key=value` (exactly one `=`).
fn split_kv(tok: &str) -> Option<(&str, &str)> {
    let (k, v) = tok.split_once('=')?;
    (!k.is_empty() && !v.is_empty() && !v.contains('=')).then_some((k, v))
}

fn parse_machine(value: &str, line: usize) -> Result<MachineDecl, SpecError> {
    let mut name = None;
    let mut sockets = None;
    let mut cores = None;
    let mut cache = None;
    for tok in value.split_whitespace() {
        let Some((k, v)) = split_kv(tok) else {
            return err(line, format!("malformed machine attribute '{tok}'"));
        };
        match k {
            "name" => name = Some(v.to_string()),
            "sockets" => {
                sockets = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(SpecError {
                            line,
                            message: format!("bad socket count '{v}'"),
                        })?,
                )
            }
            "cores" => {
                cores = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(SpecError {
                            line,
                            message: format!("bad core count '{v}'"),
                        })?,
                )
            }
            "cache" => {
                cache = Some(CachePreset::parse(v).ok_or(SpecError {
                    line,
                    message: format!("unknown cache preset '{v}'"),
                })?)
            }
            _ => return err(line, format!("unknown machine attribute '{k}'")),
        }
    }
    let (Some(sockets), Some(cores), Some(cache)) = (sockets, cores, cache) else {
        return err(line, "machine needs sockets=, cores= and cache=");
    };
    if sockets.checked_mul(cores).is_none_or(|p| p > MAX_PCPUS) {
        return err(
            line,
            format!("machine of {sockets} x {cores} pCPUs exceeds the {MAX_PCPUS}-pCPU limit"),
        );
    }
    Ok(MachineDecl {
        name,
        sockets,
        cores_per_socket: cores,
        cache,
    })
}

fn parse_vm(rest: &str, line: usize) -> Result<VmDecl, SpecError> {
    let mut toks = rest.split_whitespace();
    let Some(name) = toks.next() else {
        return err(line, "vm line needs a name");
    };
    let mut decl = VmDecl {
        name: name.to_string(),
        count: 1,
        workloads: Vec::new(),
        seed: None,
        weight: None,
        class: None,
        pin: None,
        cache: None,
        fault: None,
    };
    for tok in toks {
        let Some((k, v)) = split_kv(tok) else {
            return err(line, format!("malformed vm attribute '{tok}'"));
        };
        match k {
            "count" => match v.parse::<usize>() {
                Ok(n) if n > MAX_VM_COUNT => {
                    return err(
                        line,
                        format!("count {n} exceeds the limit of {MAX_VM_COUNT}"),
                    )
                }
                Ok(n) if n > 0 => decl.count = n,
                _ => return err(line, format!("bad count '{v}'")),
            },
            "workload" => {
                for w in v.split('|') {
                    match WorkloadSpec::parse(w) {
                        Ok(spec) => decl.workloads.push(spec),
                        Err(e) => return err(line, e),
                    }
                }
            }
            "seed" => {
                let (num, indexed) = match v.strip_suffix('+') {
                    Some(base) => (base, true),
                    None => (v, false),
                };
                match num.parse::<u64>() {
                    Ok(n) if indexed => decl.seed = Some(VmSeed::Indexed(n)),
                    Ok(n) => decl.seed = Some(VmSeed::Fixed(n)),
                    Err(_) => return err(line, format!("bad seed '{v}'")),
                }
            }
            "weight" => match v.parse::<u32>() {
                Ok(n) if n > 0 => decl.weight = Some(n),
                _ => return err(line, format!("bad weight '{v}'")),
            },
            "class" => match VcpuType::from_label(v) {
                Some(c) => decl.class = Some(c),
                None => return err(line, format!("unknown class '{v}'")),
            },
            "pin" => match v.parse::<usize>() {
                Ok(p) => decl.pin = Some(p),
                Err(_) => return err(line, format!("bad pin '{v}'")),
            },
            "cache" => match CachePreset::parse(v) {
                Some(c) => decl.cache = Some(c),
                None => return err(line, format!("unknown cache preset '{v}'")),
            },
            "fault" => match FaultSpec::parse(v) {
                Ok(fs) => decl.fault = Some(fs),
                Err(e) => return err(line, e),
            },
            _ => return err(line, format!("unknown vm attribute '{k}'")),
        }
    }
    if decl.workloads.is_empty() {
        return err(line, format!("vm '{name}' needs workload="));
    }
    if (decl.count > 1) != decl.name.contains("%i") {
        return err(
            line,
            format!("vm '{name}': name must contain %i iff count > 1"),
        );
    }
    Ok(decl)
}

impl ScenarioSpec {
    /// Parses a scenario document. Errors carry the offending line.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut name: Option<String> = None;
        let mut machine: Option<MachineDecl> = None;
        let mut seed = DEFAULT_SEED;
        let mut warmup_ns = DEFAULT_WARMUP_NS;
        let mut measure_ns = DEFAULT_MEASURE_NS;
        let mut substep_ns = DEFAULT_SUBSTEP_NS;
        let mut vms: Vec<VmDecl> = Vec::new();
        let mut vcpus = 0usize;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("vm ") {
                let vm = parse_vm(rest, lineno)?;
                vcpus = vcpus.saturating_add(vm.vcpus());
                if vcpus > MAX_VCPUS {
                    return err(
                        lineno,
                        format!("vm '{}' takes the scenario past {MAX_VCPUS} vCPUs", vm.name),
                    );
                }
                vms.push(vm);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(
                    lineno,
                    format!("expected 'key = value' or 'vm …': '{line}'"),
                );
            };
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return err(lineno, format!("empty value for '{key}'"));
            }
            let parse_u64 = |v: &str| -> Result<u64, SpecError> {
                v.parse::<u64>().map_err(|_| SpecError {
                    line: lineno,
                    message: format!("bad number '{v}' for '{key}'"),
                })
            };
            // Durations are declared in ms/µs but stored in ns; reject
            // values whose ns form overflows u64 instead of wrapping.
            let parse_dur = |v: &str, unit_ns: u64| -> Result<u64, SpecError> {
                parse_u64(v)?.checked_mul(unit_ns).ok_or(SpecError {
                    line: lineno,
                    message: format!("'{key}' value '{v}' overflows the ns clock"),
                })
            };
            match key {
                "scenario" => name = Some(value.to_string()),
                "machine" => machine = Some(parse_machine(value, lineno)?),
                "seed" => seed = parse_u64(value)?,
                "warmup_ms" => warmup_ns = parse_dur(value, MS)?,
                "measure_ms" => {
                    let v = parse_dur(value, MS)?;
                    if v == 0 {
                        return err(lineno, "measure_ms must be positive");
                    }
                    measure_ns = v;
                }
                "substep_us" => {
                    let v = parse_dur(value, US)?;
                    if v == 0 {
                        return err(lineno, "substep_us must be positive");
                    }
                    substep_ns = v;
                }
                _ => return err(lineno, format!("unknown header key '{key}'")),
            }
        }

        let Some(name) = name else {
            return err(0, "missing 'scenario =' header");
        };
        let Some(machine) = machine else {
            return err(0, "missing 'machine =' header");
        };
        if vms.is_empty() {
            return err(0, "a scenario needs at least one vm line");
        }
        // Instance names must be unique machine-wide (reports are
        // looked up by name).
        let mut names: Vec<String> = vms
            .iter()
            .flat_map(|vm| (0..vm.count).map(|i| vm.instance_name(i)))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        if names.len() != total {
            return err(0, "duplicate VM instance names");
        }
        let pcpus = machine.sockets * machine.cores_per_socket;
        if let Some(bad) = vms.iter().find_map(|vm| vm.pin.filter(|&p| p >= pcpus)) {
            return err(0, format!("pin={bad} outside the {pcpus}-pCPU machine"));
        }
        Ok(ScenarioSpec {
            name,
            machine,
            seed,
            warmup_ns,
            measure_ns,
            substep_ns,
            vms,
        })
    }

    /// Serialises the canonical text form;
    /// `parse(&spec.to_text())` reproduces `spec` exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario   = {}\n", self.name));
        let m = &self.machine;
        out.push_str("machine    = ");
        if let Some(n) = &m.name {
            out.push_str(&format!("name={n} "));
        }
        out.push_str(&format!(
            "sockets={} cores={} cache={}\n",
            m.sockets,
            m.cores_per_socket,
            m.cache.token()
        ));
        out.push_str(&format!("seed       = {}\n", self.seed));
        out.push_str(&format!("warmup_ms  = {}\n", self.warmup_ns / MS));
        out.push_str(&format!("measure_ms = {}\n", self.measure_ns / MS));
        out.push_str(&format!("substep_us = {}\n", self.substep_ns / US));
        for vm in &self.vms {
            out.push_str(&format!("vm {}", vm.name));
            if vm.count > 1 {
                out.push_str(&format!(" count={}", vm.count));
            }
            let ring = vm
                .workloads
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join("|");
            out.push_str(&format!(" workload={ring}"));
            match vm.seed {
                Some(VmSeed::Fixed(s)) => out.push_str(&format!(" seed={s}")),
                Some(VmSeed::Indexed(s)) => out.push_str(&format!(" seed={s}+")),
                None => {}
            }
            if let Some(w) = vm.weight {
                out.push_str(&format!(" weight={w}"));
            }
            if let Some(c) = vm.class {
                out.push_str(&format!(" class={}", c.label()));
            }
            if let Some(p) = vm.pin {
                out.push_str(&format!(" pin={p}"));
            }
            if let Some(c) = vm.cache {
                out.push_str(&format!(" cache={}", c.token()));
            }
            if let Some(fs) = vm.fault {
                out.push_str(&format!(" fault={fs}"));
            }
            out.push('\n');
        }
        out
    }

    /// Total vCPUs the scenario places.
    pub fn total_vcpus(&self) -> usize {
        self.vms.iter().map(VmDecl::vcpus).sum()
    }

    /// Consolidation ratio: vCPUs per pCPU.
    pub fn consolidation(&self) -> f64 {
        self.total_vcpus() as f64 / (self.machine.sockets * self.machine.cores_per_socket) as f64
    }

    /// Shortens warm-up and measurement (smoke tests, CI).
    pub fn quick(mut self) -> Self {
        self.warmup_ns = 300 * MS;
        self.measure_ns = 1000 * MS;
        self
    }

    // -----------------------------------------------------------------
    // Overlays: experiment plans derive axis variants of a base spec
    // (a machine swap, a different window, a finer engine sub-step)
    // without re-serialising scenario text.
    // -----------------------------------------------------------------

    /// Overlay: replaces the warm-up window (ns).
    pub fn with_warmup_ns(mut self, warmup_ns: u64) -> Self {
        self.warmup_ns = warmup_ns;
        self
    }

    /// Overlay: replaces the measured window (ns; must be positive).
    pub fn with_measure_ns(mut self, measure_ns: u64) -> Self {
        assert!(measure_ns > 0, "measure window must be positive");
        self.measure_ns = measure_ns;
        self
    }

    /// Overlay: replaces the engine sub-step (ns; must be positive).
    pub fn with_substep_ns(mut self, substep_ns: u64) -> Self {
        assert!(substep_ns > 0, "sub-step must be positive");
        self.substep_ns = substep_ns;
        self
    }

    /// Overlay: replaces the machine shape. Panics if a declared
    /// `pin=` no longer fits the new machine.
    pub fn with_machine(mut self, machine: MachineDecl) -> Self {
        let pcpus = machine.sockets * machine.cores_per_socket;
        assert!(
            self.vms.iter().all(|vm| vm.pin.is_none_or(|p| p < pcpus)),
            "a pinned VM does not fit the overlay machine"
        );
        self.machine = machine;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
# demo scenario
scenario   = demo
machine    = sockets=2 cores=4 cache=i7-3770
seed       = 7
warmup_ms  = 500
measure_ms = 2000
substep_us = 50
vm web-%i  count=3 workload=io/heterogeneous/120 seed=10+
vm batch-%i count=4 workload=walk/llcf|walk/llco
vm spin    workload=spin/kernbench/4 seed=20 weight=512
vm ghost   workload=idle class=IOInt
";

    #[test]
    fn parses_the_reference_document() {
        let s = ScenarioSpec::parse(DOC).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.machine.sockets, 2);
        assert_eq!(s.machine.cores_per_socket, 4);
        assert_eq!(s.machine.cache, CachePreset::I7_3770);
        assert_eq!(s.seed, 7);
        assert_eq!(s.warmup_ns, 500 * MS);
        assert_eq!(s.measure_ns, 2000 * MS);
        assert_eq!(s.substep_ns, 50 * US);
        assert_eq!(s.vms.len(), 4);
        assert_eq!(s.vms[0].count, 3);
        assert_eq!(s.vms[0].instance_name(2), "web-2");
        assert_eq!(s.vms[0].seed, Some(VmSeed::Indexed(10)));
        // Alternation ring: instance i uses workload i mod 2.
        assert_eq!(s.vms[1].class_of(0), VcpuType::Llcf);
        assert_eq!(s.vms[1].class_of(1), VcpuType::Llco);
        assert_eq!(s.vms[1].class_of(2), VcpuType::Llcf);
        assert_eq!(s.vms[2].weight, Some(512));
        // class= overrides the derived class.
        assert_eq!(s.vms[3].class_of(0), VcpuType::IoInt);
        assert_eq!(s.total_vcpus(), 3 + 4 + 4 + 1);
        assert!((s.consolidation() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn round_trips_exactly() {
        let s = ScenarioSpec::parse(DOC).unwrap();
        let text = s.to_text();
        let back = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(back, s);
        // And the canonical form is a fixed point.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn fault_attribute_parses_and_round_trips() {
        let doc = "\
scenario = faulty
machine  = sockets=1 cores=2 cache=i7-3770
vm good  workload=walk/llcf
vm bad   workload=walk/llcf fault=panic@30ms
vm hung  workload=io/exclusive/100 fault=hang
";
        let s = ScenarioSpec::parse(doc).unwrap();
        assert_eq!(s.vms[0].fault, None);
        assert_eq!(
            s.vms[1].fault,
            Some(FaultSpec::Panic { at_cpu_ns: 30 * MS })
        );
        assert_eq!(s.vms[2].fault, Some(FaultSpec::Hang { after_cpu_ns: 0 }));
        let text = s.to_text();
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), s);
        assert!(ScenarioSpec::parse(
            "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\nvm a workload=idle fault=explode\n"
        )
        .is_err());
    }

    #[test]
    fn defaults_apply_when_headers_are_omitted() {
        let s = ScenarioSpec::parse(
            "scenario = d\nmachine = sockets=1 cores=1 cache=i7-3770\nvm a workload=idle\n",
        )
        .unwrap();
        assert_eq!(s.seed, DEFAULT_SEED);
        assert_eq!(s.warmup_ns, DEFAULT_WARMUP_NS);
        assert_eq!(s.measure_ns, DEFAULT_MEASURE_NS);
        assert_eq!(s.substep_ns, DEFAULT_SUBSTEP_NS);
    }

    #[test]
    fn pin_and_cache_attrs_parse_and_round_trip() {
        let s = ScenarioSpec::parse(
            "scenario = pinned\n\
             machine = sockets=1 cores=8 cache=i7-3770\n\
             vm a workload=io/heterogeneous/120 seed=42 pin=0\n\
             vm b-%i count=3 workload=walk/llcf pin=0 cache=xeon-e5-4603\n\
             vm c workload=walk/llco cache=i7-3770\n",
        )
        .unwrap();
        assert_eq!(s.vms[0].pin, Some(0));
        assert_eq!(s.vms[0].cache, None);
        assert_eq!(s.vms[1].pin, Some(0));
        assert_eq!(s.vms[1].cache, Some(CachePreset::XeonE5_4603));
        assert_eq!(s.vms[2].pin, None);
        assert_eq!(s.vms[2].cache, Some(CachePreset::I7_3770));
        let back = ScenarioSpec::parse(&s.to_text()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn pins_must_fit_the_machine() {
        let e = ScenarioSpec::parse(
            "scenario = x\nmachine = sockets=1 cores=2 cache=i7-3770\n\
             vm a workload=idle pin=2\n",
        )
        .unwrap_err();
        assert!(
            e.message.contains("pin=2 outside the 2-pCPU machine"),
            "{e}"
        );
        let e = ScenarioSpec::parse(
            "scenario = x\nmachine = sockets=1 cores=2 cache=i7-3770\n\
             vm a workload=idle pin=no\n",
        )
        .unwrap_err();
        assert!(e.message.contains("bad pin"), "{e}");
    }

    #[test]
    fn overlays_replace_single_fields() {
        let s = ScenarioSpec::parse(
            "scenario = o\nmachine = sockets=1 cores=2 cache=i7-3770\nvm a workload=idle\n",
        )
        .unwrap();
        let o = s
            .clone()
            .with_warmup_ns(7)
            .with_measure_ns(9)
            .with_substep_ns(11);
        assert_eq!((o.warmup_ns, o.measure_ns, o.substep_ns), (7, 9, 11));
        assert_eq!(o.vms, s.vms);
        let m = MachineDecl {
            name: Some("big".into()),
            sockets: 2,
            cores_per_socket: 4,
            cache: CachePreset::XeonE5_4603,
        };
        assert_eq!(s.clone().with_machine(m.clone()).machine, m);
    }

    #[test]
    #[should_panic(expected = "pinned VM does not fit")]
    fn machine_overlay_checks_pins() {
        let s = ScenarioSpec::parse(
            "scenario = o\nmachine = sockets=1 cores=8 cache=i7-3770\n\
             vm a workload=idle pin=7\n",
        )
        .unwrap();
        let _ = s.with_machine(MachineDecl {
            name: None,
            sockets: 1,
            cores_per_socket: 2,
            cache: CachePreset::I7_3770,
        });
    }

    #[test]
    fn seed_instance_assignment() {
        assert_eq!(VmSeed::Fixed(9).of_instance(5), 9);
        assert_eq!(VmSeed::Indexed(9).of_instance(5), 14);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\nvm a workload=warp/9\n";
        let e = ScenarioSpec::parse(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"), "{e}");
    }

    /// Parses `doc`, expecting an error on `line` that mentions `needle`.
    fn rejected_at(doc: &str, line: usize, needle: &str) {
        let e = ScenarioSpec::parse(doc).unwrap_err();
        assert_eq!(e.line, line, "{e}");
        assert!(e.message.contains(needle), "expected '{needle}' in '{e}'");
    }

    #[test]
    fn a_huge_vm_count_is_an_error_not_an_allocation() {
        // The instance-name list would need ~100 GB.
        rejected_at(
            "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\n\
             vm a-%i count=4294967296 workload=idle\n",
            3,
            "count 4294967296 exceeds the limit of 1024",
        );
    }

    #[test]
    fn a_machine_whose_pcpu_count_overflows_is_an_error() {
        rejected_at(
            "scenario = x\nmachine = sockets=4294967296 cores=4294967296 cache=i7-3770\n\
             vm a workload=idle\n",
            2,
            "exceeds the 1024-pCPU limit",
        );
    }

    #[test]
    fn a_machine_of_billions_of_pcpus_is_an_error() {
        rejected_at(
            "scenario = x\nmachine = sockets=4294967296 cores=1 cache=i7-3770\n\
             vm a workload=idle\n",
            2,
            "machine of 4294967296 x 1 pCPUs exceeds the 1024-pCPU limit",
        );
    }

    #[test]
    fn the_vcpu_total_counts_smp_threads_and_is_bounded() {
        // 1024 + 1024 single-vCPU instances and 2048 threads fit
        // exactly; one more thread does not, and the error names its
        // line. So does one SMP instance with billions of threads.
        let doc = |threads: usize| {
            format!(
                "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\n\
                 vm a-%i count=1024 workload=idle\nvm b-%i count=1024 workload=walk/llcf\n\
                 vm spin workload=spin/kernbench/{threads}\n"
            )
        };
        let s = ScenarioSpec::parse(&doc(2048)).unwrap();
        assert_eq!(s.total_vcpus(), MAX_VCPUS);
        rejected_at(
            &doc(2049),
            5,
            "vm 'spin' takes the scenario past 4096 vCPUs",
        );
        rejected_at(&doc(usize::MAX), 5, "past 4096 vCPUs");
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases = [
            ("", "missing 'scenario"),
            ("scenario = x\n", "missing 'machine"),
            (
                "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\n",
                "at least one vm",
            ),
            (
                "scenario = x\nmachine = sockets=0 cores=1 cache=i7-3770\nvm a workload=idle\n",
                "bad socket count",
            ),
            (
                "scenario = x\nmachine = sockets=1 cores=1 cache=l4\nvm a workload=idle\n",
                "unknown cache preset",
            ),
            (
                "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\nvm a count=2 workload=idle\n",
                "%i",
            ),
            (
                "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\nvm a-%i workload=idle\n",
                "%i",
            ),
            (
                "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\nvm a workload=idle\nvm a workload=idle\n",
                "duplicate VM instance names",
            ),
            (
                "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\nvm a workload=idle seed=1x\n",
                "bad seed",
            ),
            (
                "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\nmeasure_ms = 0\nvm a workload=idle\n",
                "measure_ms must be positive",
            ),
            (
                "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\nwarmup_ms = 18446744073709551615\nvm a workload=idle\n",
                "overflows the ns clock",
            ),
            (
                "scenario = x\nmachine = sockets=1 cores=1 cache=i7-3770\nsubstep_us = 184467440737095517\nvm a workload=idle\n",
                "overflows the ns clock",
            ),
            (
                "scenario = x\nwhatever = 3\nmachine = sockets=1 cores=1 cache=i7-3770\nvm a workload=idle\n",
                "unknown header key",
            ),
        ];
        for (doc, needle) in cases {
            let e = ScenarioSpec::parse(doc).unwrap_err();
            assert!(
                e.message.contains(needle),
                "doc {doc:?}: expected '{needle}' in '{}'",
                e.message
            );
        }
    }
}
