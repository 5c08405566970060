//! Crash-safe sweep journal: append-only JSONL of completed cells.
//!
//! Each line records one finished cell — its identity `(scenario,
//! policy, seed)`, a config fingerprint, and the full [`RunReport`] —
//! so an interrupted sweep can resume without re-running finished
//! work ([`crate::plan::execute`] with `resume`). Two properties make
//! the resume *byte-identical* to a clean run:
//!
//! 1. **Bit-exact round-trip.** Every `f64` is stored as its IEEE-754
//!    bit pattern (a `u64`), never as decimal text: the report read
//!    back is the report written, to the last bit, so tables rendered
//!    from journaled cells cannot drift from freshly computed ones.
//! 2. **Fingerprinted identity.** A line only matches a cell if its
//!    FNV-1a fingerprint over `(scenario text, policy token, base
//!    seed, time mode, coalesce)` matches too — a journal written
//!    under different settings (or an edited scenario) is silently
//!    ignored for the changed cells rather than poisoning the run.
//!
//! Appends are line-buffered and flushed per cell; a crash mid-write
//! can only tear the *final* line, which [`load`] tolerates (the torn
//! cell simply re-runs). Lines are written and read by the harness's
//! JSON codec ([`crate::json`]); a line nested deeper than
//! [`crate::json::MAX_DEPTH`] is corruption like any other parse error.

use std::fs;
use std::path::Path;

use aql_hv::{LatencySummary, RunReport, VmId, VmReport, WorkloadMetrics};

use crate::json::Json;

/// One journaled cell.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Config fingerprint (see [`fingerprint`]).
    pub fp: u64,
    /// Scenario name.
    pub scenario: String,
    /// Policy token.
    pub policy: String,
    /// Base seed the cell ran at.
    pub seed: u64,
    /// Wall time the original run took (ns); informational.
    pub wall_ns: u64,
    /// The cell's full report.
    pub report: RunReport,
}

/// FNV-1a over everything that determines a cell's result: the
/// scenario's canonical text, the policy token, the base seed, and the
/// executor's time-mode/coalesce configuration. Two cells with equal
/// fingerprints (and equal identity keys) would produce bit-identical
/// reports, which is what licenses the resume skip.
pub fn fingerprint(
    spec_text: &str,
    policy: &str,
    base_seed: u64,
    time_mode_label: &str,
    coalesce: bool,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(spec_text.as_bytes());
    eat(&[0]);
    eat(policy.as_bytes());
    eat(&[0]);
    eat(&base_seed.to_le_bytes());
    eat(time_mode_label.as_bytes());
    eat(&[coalesce as u8]);
    h
}

// ---------------------------------------------------------------------
// Report <-> JSON mapping. f64 fields travel as IEEE-754 bit patterns.
// ---------------------------------------------------------------------

fn f64_bits(x: f64) -> Json {
    Json::uint(x.to_bits())
}

fn uints(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&n| Json::uint(n)).collect())
}

fn malformed(what: &str) -> String {
    format!("journal: missing or malformed '{what}'")
}

fn bits_f64(j: Option<&Json>, what: &str) -> Result<f64, String> {
    need_num(j, what).map(f64::from_bits)
}

fn need_num(j: Option<&Json>, what: &str) -> Result<u64, String> {
    j.and_then(Json::as_u64).ok_or_else(|| malformed(what))
}

fn need_str(j: Option<&Json>, what: &str) -> Result<String, String> {
    j.and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| malformed(what))
}

fn num_arr(j: Option<&Json>, what: &str) -> Result<Vec<u64>, String> {
    j.and_then(Json::as_array)
        .and_then(|items| items.iter().map(Json::as_u64).collect::<Option<Vec<_>>>())
        .ok_or_else(|| malformed(what))
}

fn metrics_to_json(m: &WorkloadMetrics) -> Json {
    let kind = |k: &str| ("kind", Json::Str(k.into()));
    match m {
        WorkloadMetrics::Io {
            latency,
            completed,
            offered,
        } => Json::obj([
            kind("io"),
            ("count", Json::uint(latency.count)),
            ("mean", f64_bits(latency.mean_ns)),
            ("p95", f64_bits(latency.p95_ns)),
            ("p99", f64_bits(latency.p99_ns)),
            ("max", f64_bits(latency.max_ns)),
            ("nan", Json::uint(latency.nan_samples)),
            ("completed", Json::uint(*completed)),
            ("offered", Json::uint(*offered)),
        ]),
        WorkloadMetrics::Spin {
            work_items,
            lock_hold_mean_ns,
            lock_hold_max_ns,
            lock_wait_mean_ns,
            spin_ns,
        } => Json::obj([
            kind("spin"),
            ("work_items", Json::uint(*work_items)),
            ("hold_mean", f64_bits(*lock_hold_mean_ns)),
            ("hold_max", f64_bits(*lock_hold_max_ns)),
            ("wait_mean", f64_bits(*lock_wait_mean_ns)),
            ("spin_ns", Json::uint(*spin_ns)),
        ]),
        WorkloadMetrics::Mem { instructions } => {
            Json::obj([kind("mem"), ("instructions", f64_bits(*instructions))])
        }
        WorkloadMetrics::None => Json::obj([kind("none")]),
    }
}

fn metrics_from_json(j: &Json) -> Result<WorkloadMetrics, String> {
    let kind = need_str(j.get("kind"), "metrics.kind")?;
    match kind.as_str() {
        "io" => Ok(WorkloadMetrics::Io {
            latency: LatencySummary {
                count: need_num(j.get("count"), "io.count")?,
                mean_ns: bits_f64(j.get("mean"), "io.mean")?,
                p95_ns: bits_f64(j.get("p95"), "io.p95")?,
                p99_ns: bits_f64(j.get("p99"), "io.p99")?,
                max_ns: bits_f64(j.get("max"), "io.max")?,
                nan_samples: need_num(j.get("nan"), "io.nan")?,
            },
            completed: need_num(j.get("completed"), "io.completed")?,
            offered: need_num(j.get("offered"), "io.offered")?,
        }),
        "spin" => Ok(WorkloadMetrics::Spin {
            work_items: need_num(j.get("work_items"), "spin.work_items")?,
            lock_hold_mean_ns: bits_f64(j.get("hold_mean"), "spin.hold_mean")?,
            lock_hold_max_ns: bits_f64(j.get("hold_max"), "spin.hold_max")?,
            lock_wait_mean_ns: bits_f64(j.get("wait_mean"), "spin.wait_mean")?,
            spin_ns: need_num(j.get("spin_ns"), "spin.spin_ns")?,
        }),
        "mem" => Ok(WorkloadMetrics::Mem {
            instructions: bits_f64(j.get("instructions"), "mem.instructions")?,
        }),
        "none" => Ok(WorkloadMetrics::None),
        other => Err(format!("journal: unknown metrics kind '{other}'")),
    }
}

fn report_to_json(r: &RunReport) -> Json {
    let vms = r.vms.iter().map(|vm| {
        Json::obj([
            ("vm", Json::uint(vm.vm.index() as u64)),
            ("name", Json::Str(vm.name.clone())),
            ("cpu", uints(&vm.vcpu_cpu_ns)),
            ("mig", uints(&vm.vcpu_pool_migrations)),
            ("metrics", metrics_to_json(&vm.metrics)),
        ])
    });
    Json::obj([
        ("sim_ns", Json::uint(r.sim_ns)),
        ("policy", Json::Str(r.policy.clone())),
        ("pcpu_busy_ns", uints(&r.pcpu_busy_ns)),
        ("vms", Json::Arr(vms.collect())),
    ])
}

fn report_from_json(j: &Json) -> Result<RunReport, String> {
    let vms = j
        .get("vms")
        .and_then(Json::as_array)
        .ok_or("journal: missing 'vms'")?
        .iter()
        .map(|vj| {
            Ok(VmReport {
                vm: VmId(need_num(vj.get("vm"), "vm.vm")? as usize),
                name: need_str(vj.get("name"), "vm.name")?,
                vcpu_cpu_ns: num_arr(vj.get("cpu"), "vm.cpu")?,
                vcpu_pool_migrations: num_arr(vj.get("mig"), "vm.mig")?,
                metrics: metrics_from_json(vj.get("metrics").ok_or("journal: missing 'metrics'")?)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunReport {
        sim_ns: need_num(j.get("sim_ns"), "report.sim_ns")?,
        policy: need_str(j.get("policy"), "report.policy")?,
        vms,
        pcpu_busy_ns: num_arr(j.get("pcpu_busy_ns"), "report.pcpu_busy_ns")?,
    })
}

/// Encodes one entry as a single JSONL line (no trailing newline).
pub fn encode(e: &JournalEntry) -> String {
    Json::obj([
        ("v", Json::uint(1)),
        ("fp", Json::uint(e.fp)),
        ("scenario", Json::Str(e.scenario.clone())),
        ("policy", Json::Str(e.policy.clone())),
        ("seed", Json::uint(e.seed)),
        ("wall_ns", Json::uint(e.wall_ns)),
        ("report", report_to_json(&e.report)),
    ])
    .to_line()
}

/// Decodes one JSONL line.
pub fn decode(line: &str) -> Result<JournalEntry, String> {
    let doc = Json::parse(line).map_err(|e| format!("journal {e}"))?;
    if need_num(doc.get("v"), "v")? != 1 {
        return Err("journal: unsupported version".to_string());
    }
    Ok(JournalEntry {
        fp: need_num(doc.get("fp"), "fp")?,
        scenario: need_str(doc.get("scenario"), "scenario")?,
        policy: need_str(doc.get("policy"), "policy")?,
        seed: need_num(doc.get("seed"), "seed")?,
        wall_ns: need_num(doc.get("wall_ns"), "wall_ns")?,
        report: report_from_json(doc.get("report").ok_or("journal: missing 'report'")?)?,
    })
}

/// Loads a journal file. A missing file is an empty journal. A
/// malformed **final** line is tolerated (a crash can tear the last
/// append); a malformed line anywhere else is corruption and errors.
pub fn load(path: &Path) -> Result<Vec<JournalEntry>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match decode(line) {
            Ok(entry) => out.push(entry),
            Err(_) if i + 1 == lines.len() => break, // torn final append
            Err(e) => {
                return Err(format!(
                    "corrupt journal {} line {}: {e}",
                    path.display(),
                    i + 1
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry() -> JournalEntry {
        JournalEntry {
            fp: 0xdead_beef_cafe_f00d,
            scenario: "smoke \"quoted\"".to_string(),
            policy: "aql-sched".to_string(),
            seed: 7,
            wall_ns: 123_456,
            report: RunReport {
                sim_ns: 1_000_000,
                policy: "aql-sched".to_string(),
                vms: vec![
                    VmReport {
                        vm: VmId(0),
                        name: "web-0".to_string(),
                        vcpu_cpu_ns: vec![400, 600],
                        vcpu_pool_migrations: vec![1, 0],
                        metrics: WorkloadMetrics::Io {
                            latency: LatencySummary {
                                count: 42,
                                mean_ns: 0.1 + 0.2, // not exactly representable
                                p95_ns: 1e9,
                                p99_ns: f64::MAX,
                                max_ns: 5.5e9,
                                nan_samples: 0,
                            },
                            completed: 42,
                            offered: 45,
                        },
                    },
                    VmReport {
                        vm: VmId(1),
                        name: "walk".to_string(),
                        vcpu_cpu_ns: vec![999],
                        vcpu_pool_migrations: vec![0],
                        metrics: WorkloadMetrics::Mem {
                            instructions: 1.234567890123e12,
                        },
                    },
                ],
                pcpu_busy_ns: vec![1999, 0],
            },
        }
    }

    /// [`entry`] plus a VM of every other metrics kind, a non-ASCII
    /// name and a control character that encodes as a `\u` escape.
    fn full_entry() -> JournalEntry {
        let mut e = entry();
        e.scenario = "café \u{1b}[1m".to_string();
        e.report.vms.push(VmReport {
            vm: VmId(2),
            name: "spin\\lock".to_string(),
            vcpu_cpu_ns: vec![5, 6, 7, 8],
            vcpu_pool_migrations: vec![0, 2, 0, 1],
            metrics: WorkloadMetrics::Spin {
                work_items: 31,
                lock_hold_mean_ns: 1.0 / 3.0,
                lock_hold_max_ns: 2.5e4,
                lock_wait_mean_ns: f64::MIN_POSITIVE,
                spin_ns: u64::MAX,
            },
        });
        e.report.vms.push(VmReport {
            vm: VmId(3),
            name: "idle".to_string(),
            vcpu_cpu_ns: vec![0],
            vcpu_pool_migrations: vec![0],
            metrics: WorkloadMetrics::None,
        });
        e
    }

    #[test]
    fn encode_matches_the_established_line_format() {
        // Journals written before the shared JSON codec must keep
        // resuming: the line is pinned byte for byte.
        let line = r#"{"v":1,"fp":16045690984503111693,"scenario":"café \u001b[1m","policy":"aql-sched","seed":7,"wall_ns":123456,"report":{"sim_ns":1000000,"policy":"aql-sched","pcpu_busy_ns":[1999,0],"vms":[{"vm":0,"name":"web-0","cpu":[400,600],"mig":[1,0],"metrics":{"kind":"io","count":42,"mean":4599075939470750516,"p95":4741671816366391296,"p99":9218868437227405311,"max":4752561175248502784,"nan":0,"completed":42,"offered":45}},{"vm":1,"name":"walk","cpu":[999],"mig":[0],"metrics":{"kind":"mem","instructions":4787879594345410560}},{"vm":2,"name":"spin\\lock","cpu":[5,6,7,8],"mig":[0,2,0,1],"metrics":{"kind":"spin","work_items":31,"hold_mean":4599676419421066581,"hold_max":4672601161629433856,"wait_mean":4503599627370496,"spin_ns":18446744073709551615}},{"vm":3,"name":"idle","cpu":[0],"mig":[0],"metrics":{"kind":"none"}}]}}"#;
        assert_eq!(encode(&full_entry()), line);
        assert_eq!(decode(line).unwrap(), full_entry());
    }

    #[test]
    fn every_truncation_of_a_line_is_an_error() {
        let line = encode(&full_entry()).into_bytes();
        for cut in 0..line.len() {
            assert!(decode(&String::from_utf8_lossy(&line[..cut])).is_err());
        }
    }

    #[test]
    fn deeply_nested_line_is_an_error() {
        assert!(decode(&"[".repeat(100_000)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn mutated_lines_decode_without_panicking(at in 0usize..4096, byte in any::<u8>()) {
            let mut line = encode(&full_entry()).into_bytes();
            let at = at % line.len();
            line[at] = byte;
            let _ = decode(&String::from_utf8_lossy(&line));
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let e = entry();
        let line = encode(&e);
        assert!(!line.contains('\n'));
        let back = decode(&line).unwrap();
        assert_eq!(back, e);
        // f64s travel as bit patterns: compare the bits explicitly too.
        let (a, b) = (&e.report.vms[0].metrics, &back.report.vms[0].metrics);
        match (a, b) {
            (WorkloadMetrics::Io { latency: la, .. }, WorkloadMetrics::Io { latency: lb, .. }) => {
                assert_eq!(la.mean_ns.to_bits(), lb.mean_ns.to_bits());
                assert_eq!(la.p99_ns.to_bits(), lb.p99_ns.to_bits());
            }
            _ => panic!("metrics kind changed in round-trip"),
        }
    }

    #[test]
    fn nan_metrics_round_trip() {
        let mut e = entry();
        e.report.vms[1].metrics = WorkloadMetrics::Mem {
            instructions: f64::NAN,
        };
        let back = decode(&encode(&e)).unwrap();
        match back.report.vms[1].metrics {
            WorkloadMetrics::Mem { instructions } => assert!(instructions.is_nan()),
            _ => panic!("kind changed"),
        }
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let dir = std::env::temp_dir().join("aql_journal_test_torn");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("j.jsonl");
        let e = entry();
        let mut text = encode(&e);
        text.push('\n');
        text.push_str(&encode(&e)[..40]); // torn mid-append
        fs::write(&path, &text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0], e);
        // Corruption before the final line is an error, not a skip.
        let mut bad = String::from("{\"v\":1,broken}\n");
        bad.push_str(&encode(&e));
        bad.push('\n');
        fs::write(&path, &bad).unwrap();
        assert!(load(&path).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_empty() {
        let path = Path::new("/nonexistent/definitely/absent.jsonl");
        assert_eq!(load(path).unwrap(), Vec::new());
    }

    #[test]
    fn fingerprint_separates_configs() {
        let a = fingerprint("spec", "xen-credit", 1, "adaptive", true);
        assert_eq!(a, fingerprint("spec", "xen-credit", 1, "adaptive", true));
        assert_ne!(a, fingerprint("spec", "xen-credit", 2, "adaptive", true));
        assert_ne!(a, fingerprint("spec", "xen-credit", 1, "dense", true));
        assert_ne!(a, fingerprint("spec", "xen-credit", 1, "adaptive", false));
        assert_ne!(a, fingerprint("spec2", "xen-credit", 1, "adaptive", true));
        assert_ne!(a, fingerprint("spec", "vturbo", 1, "adaptive", true));
    }
}
