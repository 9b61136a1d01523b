#!/usr/bin/env bash
# Local CI gate: formatting, lints, and a tiny-budget test pass.
#
# The tiny ATR_SIM_* budget keeps the simulation-heavy experiment tests
# fast while still executing every code path; full-budget numbers are
# regenerated with `--bin all_experiments` (see EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== environment reads confined to the config module"
# Library code reads ATR_* variables only through atr_sim::config; the
# process-global logger of atr-telemetry (below atr-sim in the crate
# graph) is the one stated exception. Binaries may read their args.
env_reads=$(grep -rl 'std::env::var' crates/*/src --include='*.rs' | grep -v '/bin/' |
    grep -vx -e crates/sim/src/config.rs -e crates/telemetry/src/log.rs || true)
if [ -n "$env_reads" ]; then
    echo "FAIL: std::env::var outside crates/sim/src/config.rs and crates/telemetry/src/log.rs:" >&2
    echo "$env_reads" >&2
    exit 1
fi

echo "== cargo test (tiny budget)"
ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 ATR_SIM_PROGRESS=0 \
    cargo test --workspace --offline -q

echo "== all_experiments with rename auditor (tiny budget)"
# Re-runs the experiment matrix with the cycle-level rename/release
# auditor attached; any invariant violation panics the run. The results
# dir is redirected so the tiny-budget pass never clobbers the committed
# full-budget results/*.json. Stdout is captured to assert the
# telemetry-off default emits zero telemetry records.
audit_out="$(mktemp)"
ATR_AUDIT=1 ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 ATR_SIM_PROGRESS=0 \
    ATR_RESULTS_DIR="$(mktemp -d)" \
    cargo run --release --offline -p atr-bench --bin all_experiments >"$audit_out"
if grep -q "atr-run-telemetry" "$audit_out"; then
    echo "FAIL: telemetry records leaked onto stdout with ATR_TELEMETRY unset" >&2
    exit 1
fi

echo "== all_experiments with telemetry + audit (tiny budget), JSONL schema check"
# With ATR_TELEMETRY=stats the executor emits one JSONL record per
# simulated point on stdout (all narrative goes to stderr); every line
# must parse and satisfy the record schema, including the CPI-stack
# Σ slots == width x cycles invariant (also asserted per-cycle in-core
# because ATR_AUDIT=1 is set).
telemetry_out="$(mktemp)"
ATR_TELEMETRY=stats ATR_AUDIT=1 ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 \
    ATR_SIM_PROGRESS=0 ATR_RESULTS_DIR="$(mktemp -d)" \
    cargo run --release --offline -p atr-bench --bin all_experiments >"$telemetry_out"
cargo run --release --offline -p atr-bench --bin jsonl_check "$telemetry_out"

echo "== telemetry off-path overhead guard (<2%)"
# ATR_TELEMETRY=off must never be slower than stats (within 2% noise):
# a failure means the disabled path lost its gating. Fixed internal
# budget, min-of-3 walls per level; see --bin telemetry_overhead.
cargo run --release --offline -p atr-bench --bin telemetry_overhead

echo "== trace capture→replay determinism gate + cache wall-clock report"
# Three tiny-budget all_experiments passes: live (no trace cache), cold
# cache (captures every program, then replays), warm cache (pure
# replay). The figure JSON fingerprints of all three must be identical
# — trace replay is required to be *bit*-identical to live oracle
# generation, and any drift in the substrate shows up here as a
# fingerprint mismatch long before it would corrupt a paper figure.
# The warm pass doubles as the cache-hit wall-clock report.
fingerprint() { cat "$1"/*.json | sha256sum | cut -d' ' -f1; }
now_ms() { date +%s%3N; }
trace_cache="$(mktemp -d)"
live_results="$(mktemp -d)"
cold_results="$(mktemp -d)"
warm_results="$(mktemp -d)"
tiny="ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 ATR_SIM_PROGRESS=0"

t0=$(now_ms)
env $tiny ATR_RESULTS_DIR="$live_results" \
    cargo run --release --offline -p atr-bench --bin all_experiments >/dev/null
live_ms=$(( $(now_ms) - t0 ))

t0=$(now_ms)
env $tiny ATR_RESULTS_DIR="$cold_results" ATR_TRACE_CACHE="$trace_cache" \
    cargo run --release --offline -p atr-bench --bin all_experiments >/dev/null
cold_ms=$(( $(now_ms) - t0 ))

t0=$(now_ms)
env $tiny ATR_RESULTS_DIR="$warm_results" ATR_TRACE_CACHE="$trace_cache" \
    cargo run --release --offline -p atr-bench --bin all_experiments >/dev/null
warm_ms=$(( $(now_ms) - t0 ))

live_fp=$(fingerprint "$live_results")
cold_fp=$(fingerprint "$cold_results")
warm_fp=$(fingerprint "$warm_results")
if [ "$live_fp" != "$cold_fp" ] || [ "$live_fp" != "$warm_fp" ]; then
    echo "FAIL: trace replay diverged from live oracle generation" >&2
    echo "  live $live_fp / cold-cache $cold_fp / warm-cache $warm_fp" >&2
    exit 1
fi
traces=$(ls "$trace_cache" | wc -l)
if [ "$traces" -eq 0 ]; then
    echo "FAIL: the cold-cache pass captured no traces — the cache never engaged," >&2
    echo "  so the fingerprint identity above compared live runs against live runs" >&2
    exit 1
fi
echo "trace gate OK: fingerprint $live_fp ($traces cached traces)"
echo "wall clock: live ${live_ms}ms, cold-cache ${cold_ms}ms, warm-cache ${warm_ms}ms"
awk -v l="$live_ms" -v w="$warm_ms" \
    'BEGIN { printf "warm-cache speedup over live: %.2fx\n", l / w }'

echo "== all_experiments entry selection gate"
# Named entries ensure only their own points, on a matrix of their own;
# results are keyed, so each figure's JSON must be byte-identical to the
# same file of the full live pass above. An unknown name must fail.
subset_results="$(mktemp -d)"
env $tiny ATR_RESULTS_DIR="$subset_results" \
    cargo run --release --offline -p atr-bench --bin all_experiments -- \
    fig10 fig13 ablations >/dev/null
for name in fig10 fig13 ablations; do
    if ! cmp -s "$subset_results/$name.json" "$live_results/$name.json"; then
        echo "FAIL: 'all_experiments $name' diverged from the full pass's $name.json" >&2
        exit 1
    fi
done
if [ "$(ls "$subset_results" | wc -l)" -ne 3 ]; then
    echo "FAIL: the fig10/fig13/ablations selection wrote other figures too" >&2
    exit 1
fi
if cargo run --release --offline -q -p atr-bench --bin all_experiments -- no_such_entry \
    >/dev/null 2>&1; then
    echo "FAIL: an unknown entry name did not exit non-zero" >&2
    exit 1
fi
echo "selection gate OK: fig10/fig13/ablations byte-identical to the full pass"

echo "== journal interrupt-resume gate + journal-off/on fingerprint identity"
# A journaled all_experiments pass is SIGKILLed mid-matrix, then resumed
# with the same journal directory. The resume must (a) serve a nonzero
# number of points straight from the journal — i.e. actually skip
# re-simulation — and (b) produce figure JSON bit-identical to the
# journal-less live pass above. A third, uninterrupted journal-on pass
# asserts the journal is pure observation: fingerprints with the journal
# on and off must match exactly.
#
# The binary is exec'd directly (not via `cargo run`) so the kill hits
# the simulator process itself rather than a cargo wrapper that would
# orphan it.
cargo build --release --offline -p atr-bench --bin all_experiments
journal_dir="$(mktemp -d)"
resume_results="$(mktemp -d)"
env $tiny ATR_RESULTS_DIR="$(mktemp -d)" ATR_RUN_JOURNAL="$journal_dir" \
    target/release/all_experiments >/dev/null 2>&1 &
victim=$!
journal_file="$journal_dir/run-journal.jsonl"
for _ in $(seq 1 300); do
    kill -0 "$victim" 2>/dev/null || break
    [ -f "$journal_file" ] && [ "$(wc -l <"$journal_file")" -ge 20 ] && break
    sleep 0.1
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
if [ ! -s "$journal_file" ]; then
    echo "FAIL: the killed pass journaled nothing — nothing to resume from" >&2
    exit 1
fi
echo "killed the journaled pass after $(wc -l <"$journal_file") completed point(s)"

resume_log="$(mktemp)"
env $tiny ATR_RESULTS_DIR="$resume_results" ATR_RUN_JOURNAL="$journal_dir" \
    target/release/all_experiments >/dev/null 2>"$resume_log"
served=$(sed -n 's/.*\[journal\] \([0-9]*\) of .*/\1/p' "$resume_log" | head -1)
if [ -z "$served" ] || [ "$served" -eq 0 ]; then
    echo "FAIL: the resume served no points from the journal" >&2
    sed -n 's/^/  /p' "$resume_log" | tail -20 >&2
    exit 1
fi
resume_fp=$(fingerprint "$resume_results")
if [ "$resume_fp" != "$live_fp" ]; then
    echo "FAIL: the resumed pass diverged from the uninterrupted live pass" >&2
    echo "  live $live_fp / resumed $resume_fp" >&2
    exit 1
fi
echo "resume gate OK: $served point(s) served from the journal, fingerprint identical"

journal_results="$(mktemp -d)"
env $tiny ATR_RESULTS_DIR="$journal_results" ATR_RUN_JOURNAL="$(mktemp -d)" \
    target/release/all_experiments >/dev/null
journal_fp=$(fingerprint "$journal_results")
if [ "$journal_fp" != "$live_fp" ]; then
    echo "FAIL: enabling the run journal perturbed the results" >&2
    echo "  journal-off $live_fp / journal-on $journal_fp" >&2
    exit 1
fi
echo "journal-off/on fingerprint identity OK"

echo "CI OK"
