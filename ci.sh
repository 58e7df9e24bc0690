#!/usr/bin/env bash
# Local CI gate: run exactly what .github/workflows/ci.yml runs.
#
# Usage: ./ci.sh [--offline]
#
# The workspace vendors every external dependency under vendor/, so the
# whole gate works without network access; pass --offline (or set
# CARGO_NET_OFFLINE=true) to make cargo enforce that.
set -euo pipefail
cd "$(dirname "$0")"

OFFLINE=()
for arg in "$@"; do
    case "$arg" in
    --offline) OFFLINE=(--offline) ;;
    *)
        echo "usage: ./ci.sh [--offline]" >&2
        exit 2
        ;;
    esac
done

# The banner goes to stderr, so `run cmd > file` captures only the output
# of cmd itself.
run() {
    echo "==> $*" >&2
    "$@"
}

run cargo fmt --all --check
run cargo clippy "${OFFLINE[@]}" --workspace --all-targets -- -D warnings
run cargo build "${OFFLINE[@]}" --release --workspace
# Rustdoc gate: a doc link to a renamed or deleted item fails the build. The
# vendored proptest has an ambiguous link of its own, so it is left out.
RUSTDOCFLAGS="-D warnings" \
    run cargo doc "${OFFLINE[@]}" --workspace --no-deps --exclude proptest
run cargo test "${OFFLINE[@]}" --workspace -q
# perfbench is a workspace of its own, so the build and tests above never
# compile it. Its tests catch an API break, or product cells drifting from
# its traced mirror, before the benchmark runs.
run cargo test "${OFFLINE[@]}" --release --manifest-path perfbench/Cargo.toml -q
# perfbench's Python tests: BENCHMARK.json and plan.json agree with run.py,
# the references cover both named seeds, and every workload prints every
# metric with its unit on tiny inputs.
run python3 -m unittest discover -s perfbench -p 'test_*.py'

# Telemetry smoke: run a small fig1 with telemetry + events enabled, check
# the export exists, and validate the NDJSON stream against the schema test
# (every line parses, t_ps monotone per message). The selector name lands
# in the --events path: events.ndjson -> events-fig1.ndjson.
TDIR="$(mktemp -d)"
trap 'rm -rf "$TDIR"' EXIT
run ./target/release/wormcast fig1 --quick --jobs 2 --seed 7 \
    --telemetry "$TDIR" --events "$TDIR/events.ndjson"
[ -s "$TDIR/fig1.telemetry.json" ] || {
    echo "ci: fig1.telemetry.json missing or empty" >&2
    exit 1
}
[ -s "$TDIR/events-fig1.ndjson" ] || {
    echo "ci: events-fig1.ndjson missing or empty" >&2
    exit 1
}
echo "==> validating NDJSON event stream schema"
WORMCAST_EVENTS_FILE="$TDIR/events-fig1.ndjson" \
    run cargo test "${OFFLINE[@]}" -q -p wormcast --test telemetry_schema

# Event-log memory gate: the full Fig. 1 sweep writing its event stream
# (102 MB of NDJSON) must peak at or below 64 MiB resident. The logs keep
# compact records and each cell's NDJSON is rendered only while it is
# written; logs that held their lines rendered peaked at about 112 MiB.
echo "==> event-log memory gate"
run python3 - ./target/release/wormcast "$TDIR/mem" <<'EOF'
import os
import sys

exe, out = sys.argv[1], sys.argv[2]
argv = [exe, "fig1", "--events", out + "/events.ndjson", "--jobs", "1", "--out", out]
pid = os.fork()
if pid == 0:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    os.execv(exe, argv)
_, status, usage = os.wait4(pid, 0)
peak_mib = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
print(f"wormcast fig1 --events --jobs 1: peak RSS {peak_mib:.1f} MiB (limit 64)")
if os.waitstatus_to_exitcode(status) != 0:
    sys.exit("ci: wormcast fig1 --events failed")
if peak_mib > 64:
    sys.exit(f"ci: event-log memory gate: {peak_mib:.1f} MiB > 64 MiB")
EOF

# Trace dump smoke: the engine's trace ring renders through the same event
# writer as the stream above, so its dump must pass the same validator.
echo "==> validating trace dump schema"
run ./target/release/wormcast --trace-dump "$TDIR/trace.ndjson" --length 8
WORMCAST_EVENTS_FILE="$TDIR/trace.ndjson" \
    run cargo test "${OFFLINE[@]}" -q -p wormcast --test telemetry_schema

# Results reproduction: the full suite must reproduce every committed
# results/*.json byte for byte.
echo "==> results reproduction"
run ./target/release/wormcast all --jobs 2 --out "$TDIR/all"
for f in "$TDIR"/all/*.json; do
    run cmp "$f" "results/${f##*/}"
done

# Fault-injection smoke: run the quick fault sweep twice at different job
# counts, demand byte-identical JSON (the determinism contract covers the
# fault plans), then validate the schema against the produced file.
echo "==> fault-injection smoke"
run ./target/release/wormcast faults --quick --seed 7 --jobs 1 --out "$TDIR/f1"
run ./target/release/wormcast faults --quick --seed 7 --jobs 4 --out "$TDIR/f4"
[ -s "$TDIR/f1/faults.json" ] || {
    echo "ci: faults.json missing or empty" >&2
    exit 1
}
run cmp "$TDIR/f1/faults.json" "$TDIR/f4/faults.json" || {
    echo "ci: faults.json differs across --jobs counts" >&2
    exit 1
}
for key in '"rate":' '"delivery_ratio":' '"link_failures":'; do
    grep -q "$key" "$TDIR/f1/faults.json" || {
        echo "ci: faults.json missing key $key" >&2
        exit 1
    }
done
WORMCAST_FAULTS_FILE="$TDIR/f1/faults.json" \
    run cargo test "${OFFLINE[@]}" -q -p wormcast --test faults_schema

# Saturation smoke: run the quick offered-vs-delivered sweep (DB/AB/QAB on
# a 4x4x4 mesh) across job counts. The determinism contract for the mixed
# steady-state sims is byte-level across --jobs; then validate the schema
# against the produced file.
echo "==> saturation smoke"
run ./target/release/wormcast saturation --quick --seed 7 --jobs 1 --out "$TDIR/sat-j1"
run ./target/release/wormcast saturation --quick --seed 7 --jobs 4 --out "$TDIR/sat-j4"
[ -s "$TDIR/sat-j1/saturation.json" ] || {
    echo "ci: saturation.json missing or empty" >&2
    exit 1
}
run cmp "$TDIR/sat-j1/saturation.json" "$TDIR/sat-j4/saturation.json" || {
    echo "ci: saturation.json differs across --jobs counts" >&2
    exit 1
}
for key in '"offered":' '"delivered":' '"saturated":' '"QAB"'; do
    grep -q "$key" "$TDIR/sat-j1/saturation.json" || {
        echo "ci: saturation.json missing key $key" >&2
        exit 1
    }
done
WORMCAST_SATURATION_FILE="$TDIR/sat-j1/saturation.json" \
    run cargo test "${OFFLINE[@]}" -q -p wormcast --test saturation_schema

# Arena-vs-classic differential: bit-compare the arena engine against the
# classic oracle on all five algorithms and all three routing substrates
# (fixed DOR, west-first adaptive, QAB's queue-aware negative-first):
# single broadcasts, mixed traffic, unicast streams, DOR run-path streams
# and multicast contention, both release disciplines. The workspace test
# run above already executes this suite in debug; re-running it by name
# here keeps the gate explicit and fails with a readable label.
echo "==> arena-vs-classic differential"
run cargo test "${OFFLINE[@]}" -q -p wormcast-workload --test differential

# Plan representation gate: the paper algorithms build their fixed
# messages as run paths (straight runs whose hops the engine computes).
# Every schedule must still expand to exactly the coded paths it was built
# from before (the schedule digest pins every message, a run path as its
# expansion; run_paths checks each run path against a reference), a small
# mixed stream must stay under its allocation ceiling, and a DOR unicast as
# a run path must behave as the fixed DOR unicast through link faults, a
# restore and the watchdog. The workspace test run above already executes
# these in debug; re-running them by name keeps the gate explicit and fails
# with a readable label.
echo "==> plan representation"
run cargo test "${OFFLINE[@]}" -q -p wormcast-workload --test schedule_digest --test alloc_count
run cargo test "${OFFLINE[@]}" -q -p wormcast-broadcast --test run_paths
run cargo test "${OFFLINE[@]}" -q -p wormcast-network dor_

# Simcheck smoke: a time-boxed fuzzing campaign through the differential
# oracle and the invariant checker. Fixed seed, ~200 scenarios (or 60 s,
# whichever bites first), zero findings required; two runs must agree byte
# for byte and reproduce the committed results/simcheck.json, and the
# report must pass the schema test.
echo "==> simcheck smoke"
run ./target/release/simcheck --seed 2005 --count 200 --time-budget 60 \
    --out "$TDIR/simcheck.json"
run ./target/release/simcheck --seed 2005 --count 200 --time-budget 60 \
    --out "$TDIR/simcheck2.json"
run cmp "$TDIR/simcheck.json" "$TDIR/simcheck2.json" || {
    echo "ci: simcheck.json differs across reruns" >&2
    exit 1
}
run cmp "$TDIR/simcheck.json" results/simcheck.json || {
    echo "ci: simcheck.json no longer reproduces results/simcheck.json" >&2
    exit 1
}
for key in '"violations": 0' '"mismatches": 0' '"panics": 0'; do
    grep -q "$key" "$TDIR/simcheck.json" || {
        echo "ci: simcheck campaign not clean (missing $key)" >&2
        exit 1
    }
done
WORMCAST_SIMCHECK_FILE="$TDIR/simcheck.json" \
    run cargo test "${OFFLINE[@]}" -q -p wormcast --test simcheck_schema

# Fig-1-at-scale smoke: the quick large-mesh sweep must report identical
# physics for any job count. The machine-dependent `wall_s` is the only
# field allowed to differ; strip it before comparing.
echo "==> fig1-scale determinism smoke"
for jobs in 1 2; do
    run ./target/release/wormcast fig1-scale --quick --seed 7 --jobs "$jobs" --out "$TDIR/s-j$jobs"
    grep -v '"wall_s"' "$TDIR/s-j$jobs/fig1-scale.json" > "$TDIR/s-j$jobs.physics.json"
done
run cmp "$TDIR/s-j1.physics.json" "$TDIR/s-j2.physics.json" || {
    echo "ci: fig1-scale.json physics differs across --jobs counts" >&2
    exit 1
}

# Scheduled-scenario smoke: a handcrafted schema-v2 request carrying a load
# ramp, link modulation and a drifting hotspot, run through the measure core
# (`wormcast-serve --once`) at two job counts. The full response stream must
# be byte-identical across --jobs (events included), and it must carry the
# numbered schedule_phase marks the schedule plants.
echo "==> scheduled-scenario smoke"
cat > "$TDIR/sched-req.json" <<'EOF'
{"v":2,"reps":2,"jobs":1,"shards":1,"outputs":{"events":true},"scenario":{"seed":7,"index":0,"topo":{"Mesh":[4,4,4]},"mode":"PathHolding","workload":{"Mixed":{"alg":"Db","src":0,"length":16,"n_unicasts":24}},"fail_stop_rate":0.0,"transient_rate":0.0,"watchdog_us":0.0,"schedule":{"ramp":{"points":[{"t_us":0.0,"rate":0.5},{"t_us":40.0,"rate":2.0}]},"modulation":{"period_us":10.0,"duty":0.5,"factor":4,"fraction":0.5,"windows":3},"hotspot":{"start":3,"stride":2,"step_us":8.0,"weight":0.5}}}}
EOF
for jobs in 1 2; do
    sed "s/\"jobs\":1/\"jobs\":$jobs/" "$TDIR/sched-req.json" > "$TDIR/sched-j$jobs.json"
    ./target/release/wormcast-serve --once < "$TDIR/sched-j$jobs.json" \
        > "$TDIR/sched-j$jobs.out"
done
run cmp "$TDIR/sched-j1.out" "$TDIR/sched-j2.out" || {
    echo "ci: scheduled scenario differs across --jobs counts" >&2
    exit 1
}
grep -q '"ev":"schedule_phase"' "$TDIR/sched-j1.out" || {
    echo "ci: scheduled response carries no schedule_phase marks" >&2
    exit 1
}
grep -q '"result":' "$TDIR/sched-j1.out" || {
    echo "ci: scheduled request answered without a result frame" >&2
    exit 1
}
# Schema smoke: v2 schedules round-trip through canonical JSON, decoding is
# strict about unknown kinds, and v1 requests still decode AND hash to the
# pinned pre-schedule value.
run cargo test "${OFFLINE[@]}" -q -p wormcast-simcheck schema

# Profile smoke: run fig1 with --profile across job counts (the selector
# name lands in the path: prof-j1.json -> prof-j1-fig1.json). The report's
# deterministic skeleton (every line not carrying an "nd_" key) must be
# byte-identical across them, the Prometheus sibling must be non-empty, and
# the report must pass the profile schema test.
echo "==> profile smoke"
run ./target/release/wormcast fig1 --quick --seed 7 --jobs 1 \
    --profile "$TDIR/prof-j1.json"
run ./target/release/wormcast fig1 --quick --seed 7 --jobs 4 \
    --profile "$TDIR/prof-j4.json"
for p in prof-j1-fig1 prof-j4-fig1; do
    [ -s "$TDIR/$p.json" ] || {
        echo "ci: $p.json missing or empty" >&2
        exit 1
    }
    [ -s "$TDIR/$p.prom" ] || {
        echo "ci: $p.prom missing or empty" >&2
        exit 1
    }
    grep -v '"nd_' "$TDIR/$p.json" > "$TDIR/$p.skeleton.json"
done
run cmp "$TDIR/prof-j1-fig1.skeleton.json" "$TDIR/prof-j4-fig1.skeleton.json" || {
    echo "ci: profile skeleton differs across --jobs counts" >&2
    exit 1
}
WORMCAST_PROFILE_FILE="$TDIR/prof-j1-fig1.json" \
    run cargo test "${OFFLINE[@]}" -q -p wormcast --test profile_schema

# Serve smoke: start the service on an ephemeral port, submit one generated
# request twice through the bundled client, and demand byte-identical result
# frames (cold run vs cache hit) plus provenance events saying which path
# answered. The streamed event log must validate against the NDJSON schema,
# and the socket-free --once mode must reproduce the TCP frame exactly.
echo "==> serve smoke"
run ./target/release/wormcast-serve --print-request 7 3 --with-events \
    > "$TDIR/serve-req.json"
./target/release/wormcast-serve --addr 127.0.0.1:0 --workers 2 --cache-cap 4 \
    > "$TDIR/serve.log" 2> "$TDIR/serve.stderr.log" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$TDIR"' EXIT
PORT=""
for _ in $(seq 1 50); do
    PORT=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$TDIR/serve.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || {
    echo "ci: wormcast-serve never reported its port" >&2
    cat "$TDIR/serve.stderr.log" >&2
    exit 1
}
run ./target/release/wormcast-serve --client "127.0.0.1:$PORT" \
    --events "$TDIR/serve-cold.events.ndjson" \
    < "$TDIR/serve-req.json" > "$TDIR/serve-cold.frames"
run ./target/release/wormcast-serve --client "127.0.0.1:$PORT" \
    --events "$TDIR/serve-warm.events.ndjson" \
    < "$TDIR/serve-req.json" > "$TDIR/serve-warm.frames"
run cmp "$TDIR/serve-cold.frames" "$TDIR/serve-warm.frames" || {
    echo "ci: serve result frames differ between cold and warm requests" >&2
    exit 1
}
grep -q '"result":' "$TDIR/serve-cold.frames" || {
    echo "ci: serve answered without a result frame" >&2
    exit 1
}
grep -q '"ev":"cache_miss"' "$TDIR/serve-cold.events.ndjson" || {
    echo "ci: first serve answer lacks cache_miss provenance" >&2
    exit 1
}
grep -q '"ev":"cache_hit"' "$TDIR/serve-warm.events.ndjson" || {
    echo "ci: repeated serve answer lacks cache_hit provenance" >&2
    exit 1
}
# Exactly-once under concurrency: four parallel clients submit the same
# fresh request; however they interleave (coalesced onto the in-flight run
# or answered from the cache), exactly one of them may observe cache_miss —
# i.e. the engine ran once.
run ./target/release/wormcast-serve --print-request 7 4 > "$TDIR/serve-req2.json"
PAR_PIDS=""
for i in 1 2 3 4; do
    ./target/release/wormcast-serve --client "127.0.0.1:$PORT" \
        --events "$TDIR/serve-par$i.events.ndjson" \
        < "$TDIR/serve-req2.json" > "$TDIR/serve-par$i.frames" &
    PAR_PIDS="$PAR_PIDS $!"
done
# shellcheck disable=SC2086 — word-splitting the PID list is the point
wait $PAR_PIDS
MISSES=$(cat "$TDIR"/serve-par?.events.ndjson | grep -c '"ev":"cache_miss"')
[ "$MISSES" -eq 1 ] || {
    echo "ci: concurrent identical requests ran the engine $MISSES times (want 1)" >&2
    exit 1
}
for i in 2 3 4; do
    run cmp "$TDIR/serve-par1.frames" "$TDIR/serve-par$i.frames" || {
        echo "ci: concurrent clients received different result frames" >&2
        exit 1
    }
done
kill "$SERVE_PID" 2>/dev/null || true
trap 'rm -rf "$TDIR"' EXIT
./target/release/wormcast-serve --once < "$TDIR/serve-req.json" |
    grep '"result":' > "$TDIR/serve-once.frames"
run cmp "$TDIR/serve-once.frames" "$TDIR/serve-cold.frames" || {
    echo "ci: --once frame differs from the TCP answer" >&2
    exit 1
}
WORMCAST_EVENTS_FILE="$TDIR/serve-cold.events.ndjson" \
    run cargo test "${OFFLINE[@]}" -q -p wormcast --test telemetry_schema

# Engine bench smoke: run the engine micro-bench once, then check that both
# the fresh report and the committed results/BENCH_engine.json parse and
# still show the active-set engine ahead of the retired classic stepper.
echo "==> engine bench smoke"
CRITERION_OUT_JSON="$TDIR/BENCH_engine.json" \
    run cargo bench "${OFFLINE[@]}" -p wormcast-bench --bench engine
WORMCAST_BENCH_JSON="$TDIR/BENCH_engine.json" \
    run cargo test "${OFFLINE[@]}" -q -p wormcast --test bench_report

# Serve bench smoke: generate a fresh serve-layer report and validate its
# shape (warm cache replay no slower than a cold engine run, measured
# p99_ns tails on both rows).
echo "==> serve bench smoke"
CRITERION_OUT_JSON="$TDIR/BENCH_serve.json" \
    run cargo bench "${OFFLINE[@]}" -p wormcast-bench --bench serve
WORMCAST_BENCH_SERVE_JSON="$TDIR/BENCH_serve.json" \
    run cargo test "${OFFLINE[@]}" -q -p wormcast --test bench_report

echo "ci: all gates passed"
