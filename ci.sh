#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite.
#
# Run from the repository root:  ./ci.sh
# Any failure aborts with a non-zero exit code.
set -euo pipefail

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "cargo build --release"
cargo build --release

step "benchmark build: perfbench still compiles against the crates it calls"
# perfbench/ is its own Cargo package (not a workspace member), so the
# workspace build above does not see it; renaming an API it calls
# would otherwise only surface when the benchmark runs.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked \
    --manifest-path perfbench/Cargo.toml

step "benchmark output check: every contended, io and quiescent cell matches its committed dense reference"
# One short timed pass per sweep workload at seed 0 (~12 s in all):
# perfbench compares each cell's report with reference/<w>.seed0 under
# the tolerance oracle, so a change that moves a benchmark result
# fails here instead of only when the benchmark runs.
for w in contended io quiescent; do
    .bench_build/release/perfbench --workload "$w" --seed 0 --seconds 1 --trace 0 \
        2> /dev/null | tail -n 1 | python3 -c '
import json, sys
w = sys.argv[1]
d = json.loads(sys.stdin.read())
print("  %s: correct=%s, failed %s of %s" % (w, d["correct"], d["failed"], d["attempted"]))
if d["correct"] is not True or d["failed"] != 0:
    sys.exit(f"perfbench output check failed on {w}")
' "$w"
done

step "cargo test -q"
cargo test -q --workspace

step "cache-model tests on optimised code: cargo test --release -q -p aql_mem"
# The benchmark runs the lean LLC kernel and the integrator optimised;
# the debug suite above does not. This re-runs their bit-identity
# tests against the dense oracle (llc_lean_matches_insert,
# lean_exec_matches_dense, the rate-cache tests) on that code (~0.1 s
# once compiled).
cargo test --release -q -p aql_mem

step "sweep smoke: two-scenario quick matrix, 1 vs N threads byte-identical"
cargo run --release -p aql_experiments --bin sweep -- \
    --quick --scenarios vtrs-live,webfarm --threads 1 > /tmp/ci_sweep_t1.txt
cargo run --release -p aql_experiments --bin sweep -- \
    --quick --scenarios vtrs-live,webfarm > /tmp/ci_sweep_tn.txt
diff /tmp/ci_sweep_t1.txt /tmp/ci_sweep_tn.txt
rm -f /tmp/ci_sweep_t1.txt /tmp/ci_sweep_tn.txt

step "figure goldens: full conformance set in release (incl. the heavy debug-ignored artifacts)"
# Every deterministic `repro` artifact must stay byte-identical to the
# committed pre-plan-layer goldens (tests/goldens/).
cargo test --release --test figure_goldens -- --include-ignored

step "time-mode oracle: every catalog cell in all three modes at catalog length, dense vs flat also at quick length (release)"
# The debug suite checks a catalog subset. In release the ignored tests
# add the whole catalog x policy matrix: dense vs uncoalesced adaptive
# ("flat") byte for byte at quick length, and the default sweep at
# catalog length under dense, flat and coalesced (flat reports equal
# dense, all three tables byte-identical; ~17 s on 2 CPUs).
cargo test --release --test time_advance -- --include-ignored

step "repro smoke: deterministic artifacts byte-identical across --threads 1 vs 4"
# The wall-clock artifacts (overhead, scalability, ablations' scaling
# table) are excluded: their *measurements* vary run to run by design.
REPRO_DET="fig2 fig4 fig5 fig6left fig6right fig7 fig8 table3 table5 table6 fairness"
cargo run --release -p aql_experiments --bin repro -- \
    --quick --threads 1 $REPRO_DET > /tmp/ci_repro_t1.txt 2> /dev/null
cargo run --release -p aql_experiments --bin repro -- \
    --quick --threads 4 $REPRO_DET > /tmp/ci_repro_t4.txt 2> /dev/null
diff /tmp/ci_repro_t1.txt /tmp/ci_repro_t4.txt
rm -f /tmp/ci_repro_t1.txt /tmp/ci_repro_t4.txt

step "fault smoke: a panicking cell is contained, rendered FAIL, and spares its siblings"
# One healthy scenario next to one whose IO VM panics 30 ms in. The
# sweep must exit 0 (containment is the contract), render the broken
# cells as explicit FAILs, list the classified failures, and keep
# every healthy row byte-identical to a sweep that never saw the
# broken scenario. Panic messages land on stderr by design (silenced
# here); stdout stays deterministic.
cat > /tmp/ci_fault_ok.scn <<'EOF'
scenario = fault-ok
machine = sockets=1 cores=2 cache=i7-3770
vm web workload=io/heterogeneous/150 seed=42
vm walk workload=walk/llcf
EOF
cat > /tmp/ci_fault_boom.scn <<'EOF'
scenario = fault-boom
machine = sockets=1 cores=2 cache=i7-3770
vm web workload=io/heterogeneous/150 seed=42 fault=panic@30ms
vm walk workload=walk/llcf
EOF
cargo run --release -p aql_experiments --bin sweep -- \
    --quick --scenario-file /tmp/ci_fault_ok.scn,/tmp/ci_fault_boom.scn \
    > /tmp/ci_fault_both.txt 2> /dev/null
grep -q "FAIL" /tmp/ci_fault_both.txt
grep -q "cell(s) failed (contained)" /tmp/ci_fault_both.txt
cargo run --release -p aql_experiments --bin sweep -- \
    --quick --scenario-file /tmp/ci_fault_ok.scn > /tmp/ci_fault_clean.txt 2> /dev/null
# Column padding tracks the widest scenario name in each table, so
# squeeze runs of spaces before the diff: every surviving cell value
# must be identical.
diff <(grep "^fault-ok" /tmp/ci_fault_both.txt | tr -s ' ') \
     <(grep "^fault-ok" /tmp/ci_fault_clean.txt | tr -s ' ')
rm -f /tmp/ci_fault_both.txt /tmp/ci_fault_clean.txt /tmp/ci_fault_boom.scn

step "resume smoke: a partial journal resumes to a byte-identical sweep"
# Seed the journal with the first scenario only, then resume a
# two-scenario sweep against it: the journaled cells are skipped (the
# journal grows by exactly the second scenario's cells) and the
# rendered output is byte-identical to a journal-free run.
cat > /tmp/ci_resume_b.scn <<'EOF'
scenario = resume-b
machine = sockets=1 cores=2 cache=i7-3770
vm spin workload=spin/kernbench/4
vm walk workload=walk/llco
EOF
rm -f /tmp/ci_resume.jsonl
cargo run --release -p aql_experiments --bin sweep -- \
    --quick --scenario-file /tmp/ci_fault_ok.scn \
    --journal /tmp/ci_resume.jsonl > /dev/null
cargo run --release -p aql_experiments --bin sweep -- \
    --quick --scenario-file /tmp/ci_fault_ok.scn,/tmp/ci_resume_b.scn \
    --journal /tmp/ci_resume.jsonl --resume > /tmp/ci_resumed.txt
cargo run --release -p aql_experiments --bin sweep -- \
    --quick --scenario-file /tmp/ci_fault_ok.scn,/tmp/ci_resume_b.scn \
    > /tmp/ci_fresh.txt
diff /tmp/ci_fresh.txt /tmp/ci_resumed.txt
rm -f /tmp/ci_fault_ok.scn /tmp/ci_resume_b.scn /tmp/ci_resume.jsonl \
      /tmp/ci_resumed.txt /tmp/ci_fresh.txt

step "all checks passed"
