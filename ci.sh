#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs with --offline: the
# workspace has no registry dependencies (see DESIGN.md, "Dependency
# policy / hermetic build"), so a warm toolchain is all it needs.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== bench targets compile (offline) =="
cargo check -q --offline --workspace --benches

echo "== bench smoke: engine runs end to end (offline, 1 sample) =="
cargo bench -q --offline -p rader-bench --bench engine -- --samples 1 --warmup 0

echo "== bench smoke: scaling and ablations run end to end (1 sample) =="
cargo bench -q --offline -p rader-bench --bench scaling -- --samples 1 --warmup 0
cargo bench -q --offline -p rader-bench --bench ablations -- --samples 1 --warmup 0

echo "== coverage experiments: Theorem 6/7 tables, Figure-1 sweep end to end =="
# The only regenerator of EXPERIMENTS.md's Section-7 tables; its own
# asserts (M = K(D+1), the sweep finds the Figure-1 race, some but not
# all specs expose it) fail the gate.
cargo run -q --release --offline -p rader-bench --bin coverage >target/coverage.out
grep -q '5 of 13 specifications expose the Figure-1 race' target/coverage.out

echo "== suite smoke: JSON report validates, racy entry exits nonzero =="
RADER=target/release/rader
SUITE_JSON=target/suite-smoke.json
"$RADER" suite --threads 2 --json "$SUITE_JSON" >/dev/null

echo "== chunked-claiming smoke: every sweep claims spec chunks =="
# Chunked claiming: every workload claims spec chunks, and family
# batching makes that strictly fewer claims than runs for update-heavy
# sweeps (pinned exactly by the core tests; smoke-check nonzero here).
grep -Eq '"claims": [1-9]' "$SUITE_JSON"
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$SUITE_JSON" >/dev/null
else
    "$RADER" json-check "$SUITE_JSON" >/dev/null
fi
# The in-tree validator must agree regardless of which tool ran above.
"$RADER" json-check "$SUITE_JSON" >/dev/null
# With the buggy Figure-1 workload appended the suite must fail (exit 1).
if "$RADER" suite --racy --threads 2 --json "$SUITE_JSON" >/dev/null; then
    echo "ERROR: suite --racy should exit nonzero" >&2
    exit 1
fi
"$RADER" json-check "$SUITE_JSON" >/dev/null
grep -q '"clean": false' "$SUITE_JSON"
# Malformed CLI values must exit 2 and name the flag.
if "$RADER" suite --threads 0x >/dev/null 2>target/rader-usage-err; then
    echo "ERROR: malformed --threads should exit 2" >&2
    exit 1
fi
grep -q -- '--threads' target/rader-usage-err
# A cap past u32 must not wrap to 0 (which would silently shrink the sweep).
status=0
"$RADER" exhaustive --max-k 4294967296 >/dev/null 2>target/rader-usage-err || status=$?
if [ "$status" -ne 2 ]; then
    echo "ERROR: out-of-range --max-k should exit 2, got $status" >&2
    exit 1
fi
grep -q -- '--max-k' target/rader-usage-err
# A finite budget past Duration's range is a usage error, never a panic.
status=0
"$RADER" suite --budget 1e300 >/dev/null 2>target/rader-usage-err || status=$?
if [ "$status" -ne 2 ]; then
    echo "ERROR: out-of-range --budget should exit 2, got $status" >&2
    exit 1
fi
grep -q -- '--budget' target/rader-usage-err
# Nesting deeper than the validator's fixed cap is invalid JSON (exit 1),
# never a stack overflow.
head -c 200000 /dev/zero | tr '\0' '[' >target/deep-nesting.json
status=0
"$RADER" json-check target/deep-nesting.json >/dev/null 2>target/deep-nesting.err || status=$?
if [ "$status" -ne 1 ]; then
    echo "ERROR: json-check on deep nesting should exit 1, got $status" >&2
    exit 1
fi
grep -q 'nesting deeper than 128' target/deep-nesting.err
# RFC 8259 forbids leading zeros, and a present schema_version must be a
# plain integer: both are invalid (exit 1), never "valid JSON".
printf '[01]' >target/leading-zero.json
printf '{"schema_version": "2"}' >target/string-schema.json
for doc in target/leading-zero.json target/string-schema.json; do
    status=0
    "$RADER" json-check "$doc" >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "ERROR: json-check on $doc should exit 1, got $status" >&2
        exit 1
    fi
done

echo "== forked sweeps: suite JSON identical at --threads 1, 2 and 3, walked or chained =="
# Each sweep worker replays a spec from a checkpoint of its trie parent
# or of its previous spec; with three workers the previous spec is rarely
# the adjacent one in plan order. The calling thread is worker 0, so
# --threads 1 starts no thread and --threads 2 starts one. Timings are
# the only nondeterministic fields; zero them.
zero_ns() { sed -E 's/"(wall|record|sweep|merge)_ns": [0-9]+/"\1_ns": 0/g' "$1"; }
# The --racy suite exits 1 by design; any other status is a failure.
for racy in "" "--racy"; do
    expect=0
    [ -n "$racy" ] && expect=1
    for threads in 1 2 3; do
        status=0
        "$RADER" suite $racy --threads "$threads" --json "target/fork-t$threads.json" >/dev/null || status=$?
        if [ "$status" -ne "$expect" ]; then
            echo "ERROR: suite $racy --threads $threads exited $status, expected $expect" >&2
            exit 1
        fi
    done
    for threads in 2 3; do
        diff <(zero_ns target/fork-t1.json) <(zero_ns "target/fork-t$threads.json")
    done
    # A budget keeps every sweep on the chain of plan order, while the
    # plain runs above walk the reduce family as a trie where that
    # replays fewer events (DESIGN.md §5g); both must reach the same
    # report.
    status=0
    "$RADER" suite $racy --threads 2 --budget 1e6 --json target/fork-chain.json >/dev/null || status=$?
    if [ "$status" -ne "$expect" ]; then
        echo "ERROR: suite $racy --budget 1e6 exited $status, expected $expect" >&2
        exit 1
    fi
    diff <(zero_ns target/fork-t1.json) <(zero_ns target/fork-chain.json)
done

echo "== checkpoint smoke: SIGKILL mid-sweep, resume, byte-identical report =="
CKPT_PREFIX=target/ckpt-smoke
REF_JSON=target/ckpt-ref.json
RES_JSON=target/ckpt-res.json
rm -f "$CKPT_PREFIX".*.ckpt
"$RADER" suite --threads 2 --json "$REF_JSON" >/dev/null
# Start a checkpointed sweep and SIGKILL it mid-flight. (If the sweep
# wins the race and finishes first, the resume below still exercises the
# journal-load path — the byte-identity claim is the same either way.)
"$RADER" suite --threads 2 --checkpoint "$CKPT_PREFIX" >/dev/null &
SWEEP_PID=$!
sleep 0.3
kill -9 "$SWEEP_PID" 2>/dev/null || true
wait "$SWEEP_PID" 2>/dev/null || true
"$RADER" suite --threads 2 --resume "$CKPT_PREFIX" --json "$RES_JSON" >/dev/null
# Timings are the only nondeterministic fields; zero them (`zero_ns`
# above), then demand byte identity with the uninterrupted reference run.
diff <(zero_ns "$REF_JSON") <(zero_ns "$RES_JSON")
"$RADER" json-check "$RES_JSON" >/dev/null
rm -f "$CKPT_PREFIX".*.ckpt

echo "== fault-injection smoke: quarantine reported, --racy still exits 1 =="
FAULT_JSON=target/fault-smoke.json
# The injected panics print backtraces on stderr before being caught
# and quarantined; capture them so CI output stays readable.
if "$RADER" suite --racy --threads 2 --fault-panic-at 2 \
    --json "$FAULT_JSON" >target/fault-smoke.out 2>target/fault-smoke.err; then
    echo "ERROR: suite --racy with injected faults should still exit 1" >&2
    exit 1
fi
grep -Eq '"quarantined": [1-9]' "$FAULT_JSON"
grep -q 'injected fault at spec 2' target/fault-smoke.out
"$RADER" json-check "$FAULT_JSON" >/dev/null
# A stale schema_version must be rejected by json-check.
printf '{"schema_version": 999, "workloads": []}\n' >target/stale-schema.json
if "$RADER" json-check target/stale-schema.json >/dev/null 2>&1; then
    echo "ERROR: json-check should reject a mismatched schema_version" >&2
    exit 1
fi

echo "== perfbench: seed 0 rebuilds the paper suite; every workload runs clean =="
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for workload in figure7 sweep-frames sweep-accesses synth-corpus; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0 >"target/perfbench-$workload.out"
    last=$(tail -n 1 "target/perfbench-$workload.out")
    if ! grep -Eq '"failed": 0[,}]' <<<"$last"; then
        echo "ERROR: perfbench $workload reported failures: ${last:0:200}" >&2
        exit 1
    fi
done

echo "== perfbench trajectory: end-to-end moves beyond their bounds (informational) =="
# Compares each 1-s run above with the last --trace 0 run committed in
# BENCH_<workload>.json and prints every end-to-end metric that moved
# beyond its BENCHMARK.json bound, beside the committed run's p10-p90
# spread. A 1-s value inside that spread is noise the committed run saw
# too, so it reads "inside the committed spread", not better or worse.
# One second is a noisy sample, so this never fails the gate; alternated
# 25-s pairs decide a perf claim.
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'PY' || echo "trajectory diff failed to run; not gating on it"
import json, math

bench = json.load(open("BENCHMARK.json"))
for w in [w["name"] for w in bench["workloads"]]:
    runs = [r for r in json.load(open(f"BENCH_{w}.json"))["runs"] if r["trace"] == 0]
    if not runs:
        print(f"{w}: no committed --trace 0 run to compare with")
        continue
    base = {r["metric"]: r for r in runs[-1]["records"]}
    with open(f"target/perfbench-{w}.out") as f:
        now = json.loads(f.read().splitlines()[-1])["metrics"]
    moved = inside = 0
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        if name not in base or name not in now:
            continue
        rec, new = base[name], now[name]["value"]
        old = rec["value"]
        if not (math.isfinite(old) and math.isfinite(new)) or old == 0:
            continue
        rel = new / old - 1
        if abs(rel) > bound:
            moved += 1
            lo, hi = rec.get("p10", old), rec.get("p90", old)
            if lo <= new <= hi:
                inside += 1
                verdict = "inside the committed spread"
            elif (new > hi) == (m["better"] == "lower"):
                verdict = "worse"
            else:
                verdict = "better"
            print(f"{w} {name}: {old:.4g} -> {new:.4g} {m['unit']} ({rel:+.0%}, "
                  f"bound {bound:.0%}, committed p10-p90 {lo:.4g}-{hi:.4g}, {verdict})")
    print(f"{w}: {moved} end-to-end metric(s) beyond their bound, "
          f"{inside} of them inside the committed spread")
PY
else
    echo "python3 unavailable; skipping the trajectory diff"
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "== rustfmt =="
    cargo fmt --all --check
else
    echo "== rustfmt unavailable; skipping format check =="
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy (every target, warnings are errors) =="
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "== clippy unavailable; skipping lint check =="
fi

echo "== rustdoc (every crate, warnings are errors) =="
# Broken and private intra-doc links are warnings; they fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q

echo "CI OK"
