#!/usr/bin/env python3
"""The wormcast benchmark.

    python3 perfbench/run.py --workload loaded --seed 3 --seconds 55 --trace 0

Builds the benchmark package from source (release, offline), then runs
units of the workload for --seconds seconds, each in its own process on one
thread, and prints every metric by name with its unit. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 plain and traced units alternate and the metrics are the
per-layer ones. Without --workload, every workload runs in turn, each
ending in its own result line. BENCHMARK.json lists only `loaded` and
`observed`; `idle` and `scale` run by hand (see README.md).

Timings come from a run's fastest unit. The benchmark host shares its
last-level cache and memory with other tenants, whose load slows a unit by
up to 2x in phases that last seconds to minutes; the fastest unit is the
least disturbed reading, and it moves with the code, not with the
neighbours. Set-up time and memory are medians.

Every unit's result cells are compared bit for bit with the reference
recorded for the seed (perfbench/reference.json), and the experiment's
claims must hold; a cell that fails either, or belongs to a unit that
crashed, counts as failed.

    python3 perfbench/run.py --record 0-31 [--workload W] [--tiny]

re-records the references (with --tiny, only the tiny ones).

Run from anywhere; all paths are relative to the repository root, the
directory above this file. Writes only under the root: the build directory
($CARGO_TARGET_DIR, default .bench_build) and perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")
WORKLOADS = ["idle", "loaded", "scale", "observed"]

# Set-up is sampled this many times per run, besides once per unit.
SETUP_SAMPLES = 31
# A run never starts a unit it could not finish within this many seconds:
# every run must end well inside three minutes.
HARD_LIMIT_S = 150.0

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("deliveries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "ratio"),
]

PER_LAYER = [
    ("core.schedule_s", "s"),
    ("core.schedule_msgs", "count"),
    ("topology.build_s", "s"),
    ("network.build_s", "s"),
    ("network.step_s", "s"),
    ("network.inject_s", "s"),
    ("network.injects", "count"),
    ("network.arena_highwater", "count"),
    ("network.deliveries", "count"),
    ("network.channel_waits", "count"),
    ("network.wait_sim_us", "us"),
    ("sim.events", "count"),
    ("sim.scans_per_event", "ratio"),
    ("routing.candidates_calls", "count"),
    ("routing.candidates_s", "s"),
    ("workload.tracker_s", "s"),
    ("workload.relays", "count"),
    ("workload.arrivals_s", "s"),
    ("telemetry.sink_s", "s"),
    ("telemetry.sink_calls", "count"),
    ("telemetry.finish_s", "s"),
    ("telemetry.export_s", "s"),
    ("telemetry.export_bytes", "bytes"),
    ("telemetry.events_dropped", "count"),
    ("stats.fold_s", "s"),
    ("experiments.claims_s", "s"),
    ("experiments.emit_s", "s"),
    ("experiments.emit_bytes", "bytes"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the workload binary; its output goes to standard error."""
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        fail(f"{ROOT} holds no wormcast sources (Cargo.toml, crates/) to build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target_dir(), "release", "wormcast-perfbench")


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results name the
    code they measured even where there is no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.lock"), os.path.join(ROOT, "Cargo.toml")]
    for base in ("crates", "vendor", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, base)):
            dirs[:] = sorted(x for x in dirs if x != "out")
            paths += [os.path.join(d, f) for f in sorted(files)
                      if f.endswith((".rs", ".toml", ".lock"))]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release",
    }


def steal_ticks():
    """Steal time of the whole VM from /proc/stat, in USER_HZ ticks."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def run_unit(binary, args):
    """Run one workload process. Returns (result dict or None, seconds it
    took, steal seconds over it, set-up seconds)."""
    steal0 = steal_ticks()
    spawn_ns = time.time_ns()
    t0 = time.monotonic()
    try:
        p = subprocess.run([binary] + args, capture_output=True, text=True,
                           timeout=HARD_LIMIT_S)
    except subprocess.TimeoutExpired:
        p = None
    took = time.monotonic() - t0
    steal_s = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    if p is None or p.returncode != 0:
        print(f"perfbench: unit {' '.join(args)} failed", file=sys.stderr)
        if p is not None:
            sys.stderr.write(p.stderr)
        return None, took, steal_s, None
    try:
        res = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, took, steal_s, None
    return res, took, steal_s, (res["started_unix_ns"] - spawn_ns) * 1e-9


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def reference_key(program_seed, tiny):
    """References are keyed by the seed the experiment parameters received."""
    return ("tiny-" if tiny else "") + str(program_seed)


def score(res, expected):
    """(attempted, failed) cells of one unit against its reference."""
    if res is None or expected is None:
        n = len(expected or []) or 1
        return n, n
    got = res["cells"]
    attempted = max(len(got), len(expected))
    if res["claims"]:
        return attempted, attempted
    bad = sum(1 for a, b in zip(got, expected) if a != b)
    return attempted, bad + attempted - min(len(got), len(expected))


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def least(xs):
    return min(xs) if xs else float("nan")


def measure(binary, workload, seed, seconds, trace, tiny):
    common = [workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    os.makedirs(OUT, exist_ok=True)
    setups, plain, traced, units = [], [], [], []
    attempted = failed = 0
    program_seed = None
    for _ in range(SETUP_SAMPLES):
        res, _, _, s = run_unit(binary, common + ["--setup-only"])
        if res is not None:
            setups.append(s)
            program_seed = res["program_seed"]
    expected = load_json(REFERENCE).get(workload, {}).get(
        reference_key(program_seed, tiny))
    if expected is None:
        print(f"perfbench: no reference recorded for {workload} seed {seed}",
              file=sys.stderr)
    start = time.monotonic()
    longest = {False: 0.0, True: 0.0}
    k = 0
    while True:
        is_traced = bool(trace and k % 2 == 1)
        elapsed = time.monotonic() - start
        # Start a unit only if it is expected to end within the run's
        # seconds, unless it is the first of its kind.
        first = not (traced if is_traced else plain)
        if not first and elapsed + longest[is_traced] > seconds or elapsed > HARD_LIMIT_S:
            break
        args = common + (["--traced"] if is_traced else [])
        if k == 1 and is_traced:  # one span file per run is plenty
            args += ["--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}.json")]
        res, took, steal_s, setup_s = run_unit(binary, args)
        longest[is_traced] = max(longest[is_traced], took)
        a, f = score(res, expected)
        attempted += a
        failed += f
        units.append({"traced": is_traced, "steal_s": steal_s, "setup_s": setup_s,
                      "result": res})
        if res is not None:
            (traced if is_traced else plain).append(res)
            if not is_traced and setup_s is not None:
                setups.append(setup_s)
        elif not plain and k >= 1:
            break  # the workload cannot run at all: report, don't spin
        k += 1

    metrics = {}
    if not trace:
        metrics = {
            "wall_s": least([r["wall_s"] for r in plain]),
            "cpu_s": least([r["cpu_s"] for r in plain]),
            "setup_s": median(setups),
            "deliveries_per_s": -least([-r["deliveries"] / r["wall_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "pass_ratio": (attempted - failed) / attempted if attempted else 0.0,
        }
        units_of = END_TO_END
    else:
        for name, _ in PER_LAYER:
            vals = [r["layers"][name] for r in traced if name in r.get("layers", {})]
            metrics[name] = median(vals)
        metrics["trace.overhead"] = (least([r["wall_s"] for r in traced])
                                     / least([r["wall_s"] for r in plain]))
        units_of = PER_LAYER
    return {
        "correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units_of},
    }, units


def parse_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(binary, seeds, workloads, sizes):
    """Run every workload once per seed at each of `sizes` (False: full,
    True: tiny) and store the cell digests; refuse seeds whose claims fail."""
    ref = load_json(REFERENCE)
    refused = []
    for w in workloads:
        for tiny in sizes:
            for seed in seeds:
                args = [w, "--seed", str(seed)] + (["--tiny"] if tiny else [])
                res, took, _, _ = run_unit(binary, args)
                if res is None or res["claims"]:
                    refused.append(f"{w} seed {seed}{' tiny' if tiny else ''}: "
                                   f"{'crashed' if res is None else res['claims']}")
                    continue
                key = reference_key(res["program_seed"], tiny)
                ref.setdefault(w, {})[key] = res["cells"]
                print(f"{w} seed {seed}{' tiny' if tiny else ''}: "
                      f"{len(res['cells'])} cells in {took:.2f} s", file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    if refused:
        fail("no reference recorded for:\n  " + "\n  ".join(refused))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--record", metavar="SEEDS",
                    help="re-record the references for a seed range such as 0-31")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    binary = build()
    if args.record:
        record(binary, parse_range(args.record),
               [args.workload] if args.workload else WORKLOADS,
               [True] if args.tiny else [False, True])
        return
    host = provenance()
    # Without --workload, every workload in turn, each ending in its own
    # result line.
    for workload in [args.workload] if args.workload else WORKLOADS:
        report(binary, dict(host), workload, args)


def report(binary, host, workload, args):
    """Measure one workload, store the details and print its metrics."""
    result, units = measure(binary, workload, args.seed, args.seconds,
                            args.trace, args.tiny)
    host["steal_s"] = sum(u["steal_s"] for u in units)
    host["nivcsw"] = sum((u["result"] or {}).get("nivcsw", 0) for u in units)
    host["threads"] = max([(u["result"] or {}).get("threads", 0) for u in units] or [0])
    run_file = os.path.join(
        OUT, f"run-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(run_file, "w") as f:
        json.dump({"host": host, "result": result, "units": units}, f, indent=1)
    print(f"workload {workload}")
    print("host " + json.dumps(host, sort_keys=True))
    print(f"units {len(units)} ({sum(u['traced'] for u in units)} traced), "
          f"details in {os.path.relpath(run_file, ROOT)}")
    for name, m in result["metrics"].items():
        v = m["value"]
        shown = int(v) if float(v).is_integer() and abs(v) >= 1 else f"{v:.6g}"
        print(f"{name} {shown} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
