//! Declarative workload constructors.
//!
//! A [`WorkloadSpec`] names one workload model plus its parameters in
//! a compact `kind/args` token — the vocabulary the scenario layer's
//! text format uses for its `workload=` attribute. Every token
//! round-trips: `WorkloadSpec::parse(&spec.to_string())` reproduces
//! the spec exactly, which is what makes scenario files serialisable.
//!
//! The grammar (one token, `/`-separated fields):
//!
//! | Token | Model |
//! |---|---|
//! | `io/exclusive/<rate>` | [`IoServer`], exclusive-IO regime (Fig. 2a) |
//! | `io/heterogeneous/<rate>` | [`IoServer`], CGI-heavy regime (Fig. 2b) |
//! | `io/mail/<rate>` | [`IoServer`], SPECmail-style heavy requests |
//! | `io/plus/<rate>` | [`IoServer`], IOInt⁺ — IO-intensive and LLC-trashing (Fig. 3) |
//! | `io/noboost/<rate>` | [`IoServer`], never-blocking exclusive server (BOOST ablation) |
//! | `spin/kernbench/<threads>[/<flags>]` | [`SpinJob`], kernbench/PARSEC preset; flags `fifo`, `ple` or `fifo+ple` select the lock fabric and PLE yield |
//! | `walk/llcf`, `walk/lolcf`, `walk/llco` | [`MemWalk`] of that class |
//! | `app/<name>` | the named Table 3 catalog model |
//! | `phased/shift/<phase_ms>` | [`MemWalk::phased`] cycling LoLCF → LLCF → LLCO |
//! | `idle` | [`IdleWorkload`] (scenario padding) |

use core::fmt;

use aql_hv::apptype::VcpuType;
use aql_hv::workload::GuestWorkload;
use aql_hv::VmSpec;
use aql_mem::{CacheSpec, MemProfile};
use aql_sim::time::MS;

use crate::catalog::{build_app_vm, find_app};
use crate::idle::IdleWorkload;
use crate::ioserver::{IoServer, IoServerCfg};
use crate::memwalk::{MemWalk, Phase};
use crate::spinjob::{SpinJob, SpinJobCfg};

/// The IO-server regimes a spec can name (§3.2; Fig. 2a/2b, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IoRegime {
    /// Light requests only; the vCPU blocks between requests.
    Exclusive,
    /// CGI-style background compute keeps the vCPU always runnable.
    Heterogeneous,
    /// SPECmail-style: exclusive IO with periodic heavy requests.
    Mail,
    /// IOInt⁺ (Fig. 3): IO-intensive *and* LLC-trashing.
    Plus,
    /// BOOST-ablation co-runner: exclusive arrivals, but a feather-
    /// weight background loop keeps the vCPU runnable so wakes never
    /// earn BOOST.
    Noboost,
}

impl IoRegime {
    fn token(self) -> &'static str {
        match self {
            IoRegime::Exclusive => "exclusive",
            IoRegime::Heterogeneous => "heterogeneous",
            IoRegime::Mail => "mail",
            IoRegime::Plus => "plus",
            IoRegime::Noboost => "noboost",
        }
    }
}

/// A declarative, round-trippable description of one VM's workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// An open-loop request server at `rate_hz` mean arrivals.
    Io {
        /// Service regime (exclusive / heterogeneous / mail).
        regime: IoRegime,
        /// Mean Poisson arrival rate, requests per second.
        rate_hz: f64,
    },
    /// A spin-synchronised parallel job (kernbench preset).
    Spin {
        /// Guest threads; the VM gets one vCPU per thread.
        threads: usize,
        /// Strict FIFO ticket lock instead of test-and-set (the lock-
        /// fabric ablation; `/fifo` flag).
        fifo_lock: bool,
        /// Directed yield on pause-loop exits (`/ple` flag).
        yield_on_ple: bool,
    },
    /// A CPU-burn memory walker of the given class (`Llcf`, `Lolcf`
    /// or `Llco`).
    Walk {
        /// Memory class; must be one of the three CPU-burn types.
        class: VcpuType,
    },
    /// A named application from the Table 3 catalog.
    App {
        /// Catalog name, as the paper spells it.
        name: String,
    },
    /// A type-shifting walker cycling LoLCF → LLCF → LLCO, one phase
    /// every `phase_ms` milliseconds.
    PhasedShift {
        /// Phase length in milliseconds.
        phase_ms: u64,
    },
    /// A permanently blocked VM (padding).
    Idle,
}

impl WorkloadSpec {
    /// Parses a `kind/args` token. Returns a human-readable error for
    /// malformed input.
    pub fn parse(token: &str) -> Result<Self, String> {
        let fields: Vec<&str> = token.split('/').collect();
        let bad = || format!("malformed workload token '{token}'");
        match fields.as_slice() {
            ["io", regime, rate] => {
                let regime = match *regime {
                    "exclusive" => IoRegime::Exclusive,
                    "heterogeneous" => IoRegime::Heterogeneous,
                    "mail" => IoRegime::Mail,
                    "plus" => IoRegime::Plus,
                    "noboost" => IoRegime::Noboost,
                    _ => return Err(format!("unknown io regime '{regime}' in '{token}'")),
                };
                let rate_hz: f64 = rate.parse().map_err(|_| bad())?;
                if !rate_hz.is_finite() || rate_hz <= 0.0 {
                    return Err(format!("io rate must be positive in '{token}'"));
                }
                Ok(WorkloadSpec::Io { regime, rate_hz })
            }
            ["spin", "kernbench", threads] | ["spin", "kernbench", threads, _] => {
                let threads: usize = threads.parse().map_err(|_| bad())?;
                if threads == 0 {
                    return Err(format!("spin thread count must be positive in '{token}'"));
                }
                let mut fifo_lock = false;
                let mut yield_on_ple = false;
                if let ["spin", "kernbench", _, flags] = fields.as_slice() {
                    for flag in flags.split('+') {
                        match flag {
                            "fifo" if !fifo_lock => fifo_lock = true,
                            "ple" if !yield_on_ple => yield_on_ple = true,
                            _ => {
                                return Err(format!(
                                    "unknown or repeated spin flag '{flag}' in '{token}'"
                                ))
                            }
                        }
                    }
                }
                Ok(WorkloadSpec::Spin {
                    threads,
                    fifo_lock,
                    yield_on_ple,
                })
            }
            ["walk", class] => {
                let class = VcpuType::from_label(class)
                    .filter(|c| matches!(c, VcpuType::Llcf | VcpuType::Lolcf | VcpuType::Llco))
                    .ok_or_else(|| format!("unknown walk class '{class}' in '{token}'"))?;
                Ok(WorkloadSpec::Walk { class })
            }
            ["app", name] => {
                find_app(name).ok_or_else(|| format!("unknown catalog app '{name}'"))?;
                Ok(WorkloadSpec::App {
                    name: name.to_string(),
                })
            }
            ["phased", "shift", phase_ms] => {
                let phase_ms: u64 = phase_ms.parse().map_err(|_| bad())?;
                if phase_ms == 0 {
                    return Err(format!("phase length must be positive in '{token}'"));
                }
                if phase_ms.checked_mul(MS).is_none() {
                    return Err(format!("phase length overflows the ns clock in '{token}'"));
                }
                Ok(WorkloadSpec::PhasedShift { phase_ms })
            }
            ["idle"] => Ok(WorkloadSpec::Idle),
            _ => Err(bad()),
        }
    }

    /// The ground-truth application type of the built workload. A
    /// phased walker reports the class of its *first* phase (`LoLCF`);
    /// its whole point is that the truth then shifts under vTRS.
    pub fn class(&self) -> VcpuType {
        match self {
            WorkloadSpec::Io { .. } => VcpuType::IoInt,
            WorkloadSpec::Spin { .. } => VcpuType::ConSpin,
            WorkloadSpec::Walk { class } => *class,
            WorkloadSpec::App { name } => find_app(name).expect("validated at parse").class,
            WorkloadSpec::PhasedShift { .. } | WorkloadSpec::Idle => VcpuType::Lolcf,
        }
    }

    /// The vCPU count of the VM this workload drives.
    pub fn vcpus(&self) -> usize {
        match self {
            WorkloadSpec::Spin { threads, .. } => *threads,
            WorkloadSpec::App { name } => find_app(name).expect("validated at parse").vcpus,
            _ => 1,
        }
    }

    /// The standard-sizing default weight: a full 256 per vCPU, so SMP
    /// jobs keep per-vCPU parity with single-vCPU neighbours.
    pub fn default_weight(&self) -> u32 {
        256 * self.vcpus() as u32
    }

    /// Builds the VM spec and workload instance for one VM named
    /// `vm_name` on a machine with the given cache, seeding any
    /// private random stream from `seed` (walkers are deterministic
    /// and ignore it).
    pub fn build(
        &self,
        vm_name: &str,
        cache: &CacheSpec,
        seed: u64,
    ) -> (VmSpec, Box<dyn GuestWorkload>) {
        let single = || VmSpec::single(vm_name);
        match self {
            WorkloadSpec::Io { regime, rate_hz } => {
                let cfg = match regime {
                    IoRegime::Exclusive => IoServerCfg::exclusive(*rate_hz),
                    IoRegime::Heterogeneous => IoServerCfg::heterogeneous(*rate_hz),
                    IoRegime::Mail => IoServerCfg::mail(*rate_hz),
                    IoRegime::Plus => IoServerCfg::plus(*rate_hz),
                    IoRegime::Noboost => IoServerCfg::noboost(*rate_hz),
                };
                (single(), Box::new(IoServer::new(vm_name, cfg, seed)))
            }
            WorkloadSpec::Spin {
                threads,
                fifo_lock,
                yield_on_ple,
            } => {
                let spec = VmSpec {
                    weight: self.default_weight(),
                    ..VmSpec::smp(vm_name, *threads)
                };
                let cfg = SpinJobCfg {
                    fifo_lock: *fifo_lock,
                    yield_on_ple: *yield_on_ple,
                    ..SpinJobCfg::kernbench(*threads)
                };
                (spec, Box::new(SpinJob::new(vm_name, cfg, seed)))
            }
            WorkloadSpec::Walk { class } => {
                let wl = match class {
                    VcpuType::Llcf => MemWalk::llcf(vm_name, cache),
                    VcpuType::Lolcf => MemWalk::lolcf(vm_name, cache),
                    VcpuType::Llco => MemWalk::llco(vm_name, cache),
                    _ => unreachable!("parse admits CPU-burn classes only"),
                };
                (single(), Box::new(wl))
            }
            WorkloadSpec::App { name } => {
                let (mut spec, wl) = build_app_vm(name, cache, seed).expect("validated at parse");
                spec.name = vm_name.to_string();
                (spec, wl)
            }
            WorkloadSpec::PhasedShift { phase_ms } => {
                let dur = phase_ms * MS;
                let phases = vec![
                    Phase {
                        duration_ns: dur,
                        profile: MemProfile::lolcf(cache),
                    },
                    Phase {
                        duration_ns: dur,
                        profile: MemProfile::llcf(cache),
                    },
                    Phase {
                        duration_ns: dur,
                        profile: MemProfile::llco(cache),
                    },
                ];
                (single(), Box::new(MemWalk::phased(vm_name, phases)))
            }
            WorkloadSpec::Idle => (single(), Box::new(IdleWorkload::new(vm_name, 1))),
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::Io { regime, rate_hz } => {
                write!(f, "io/{}/{}", regime.token(), rate_hz)
            }
            WorkloadSpec::Spin {
                threads,
                fifo_lock,
                yield_on_ple,
            } => {
                write!(f, "spin/kernbench/{threads}")?;
                match (fifo_lock, yield_on_ple) {
                    (false, false) => Ok(()),
                    (true, false) => f.write_str("/fifo"),
                    (false, true) => f.write_str("/ple"),
                    (true, true) => f.write_str("/fifo+ple"),
                }
            }
            WorkloadSpec::Walk { class } => {
                write!(f, "walk/{}", class.label().to_lowercase())
            }
            WorkloadSpec::App { name } => write!(f, "app/{name}"),
            WorkloadSpec::PhasedShift { phase_ms } => write!(f, "phased/shift/{phase_ms}"),
            WorkloadSpec::Idle => f.write_str("idle"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips() {
        let specs = [
            WorkloadSpec::Io {
                regime: IoRegime::Exclusive,
                rate_hz: 200.0,
            },
            WorkloadSpec::Io {
                regime: IoRegime::Heterogeneous,
                rate_hz: 120.0,
            },
            WorkloadSpec::Io {
                regime: IoRegime::Mail,
                rate_hz: 150.5,
            },
            WorkloadSpec::Io {
                regime: IoRegime::Plus,
                rate_hz: 120.0,
            },
            WorkloadSpec::Io {
                regime: IoRegime::Noboost,
                rate_hz: 150.0,
            },
            WorkloadSpec::Spin {
                threads: 4,
                fifo_lock: false,
                yield_on_ple: false,
            },
            WorkloadSpec::Spin {
                threads: 2,
                fifo_lock: true,
                yield_on_ple: false,
            },
            WorkloadSpec::Spin {
                threads: 2,
                fifo_lock: false,
                yield_on_ple: true,
            },
            WorkloadSpec::Spin {
                threads: 8,
                fifo_lock: true,
                yield_on_ple: true,
            },
            WorkloadSpec::Walk {
                class: VcpuType::Llcf,
            },
            WorkloadSpec::Walk {
                class: VcpuType::Lolcf,
            },
            WorkloadSpec::Walk {
                class: VcpuType::Llco,
            },
            WorkloadSpec::App {
                name: "fluidanimate".into(),
            },
            WorkloadSpec::PhasedShift { phase_ms: 2000 },
            WorkloadSpec::Idle,
        ];
        for s in specs {
            let token = s.to_string();
            assert_eq!(WorkloadSpec::parse(&token).unwrap(), s, "token '{token}'");
        }
    }

    #[test]
    fn every_kind_builds_consistently() {
        let cache = CacheSpec::i7_3770();
        for token in [
            "io/heterogeneous/120",
            "io/mail/200",
            "io/plus/120",
            "io/noboost/150",
            "spin/kernbench/4",
            "spin/kernbench/2/fifo",
            "spin/kernbench/2/ple",
            "spin/kernbench/2/fifo+ple",
            "walk/llco",
            "app/streamcluster",
            "phased/shift/500",
            "idle",
        ] {
            let spec = WorkloadSpec::parse(token).unwrap();
            let (vm, wl) = spec.build("t", &cache, 7);
            assert_eq!(vm.name, "t", "token '{token}'");
            assert_eq!(vm.vcpus, spec.vcpus(), "token '{token}'");
            assert_eq!(wl.vcpu_slots(), vm.vcpus, "token '{token}'");
        }
    }

    #[test]
    fn classes_are_derived_from_kind() {
        let class = |t: &str| WorkloadSpec::parse(t).unwrap().class();
        assert_eq!(class("io/exclusive/100"), VcpuType::IoInt);
        assert_eq!(class("spin/kernbench/2"), VcpuType::ConSpin);
        assert_eq!(class("walk/llcf"), VcpuType::Llcf);
        assert_eq!(class("app/mcf"), VcpuType::Llco);
        assert_eq!(class("phased/shift/100"), VcpuType::Lolcf);
    }

    #[test]
    fn malformed_tokens_are_rejected() {
        for bad in [
            "",
            "io",
            "io/heterogeneous",
            "io/turbo/100",
            "io/exclusive/-5",
            "io/exclusive/abc",
            "spin/kernbench/0",
            "spin/kernbench/2/turbo",
            "spin/kernbench/2/fifo+fifo",
            "spin/kernbench/2/",
            "phased/shift/18446744073709551615",
            "walk/ioint",
            "walk/conspin",
            "app/doom",
            "phased/shift/0",
            "idle/extra",
        ] {
            assert!(WorkloadSpec::parse(bad).is_err(), "'{bad}' must fail");
        }
    }
}
