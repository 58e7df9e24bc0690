#!/usr/bin/env python3
"""Wall time and peak memory of every selector of `wormcast all`.

    python3 scripts/bench_selectors.py [--jobs 1] [--runs 1] [--out results/BENCH_selectors.json]

Builds the workspace (release, offline: the build ci.sh reproduces the
results with) unless --no-build, then runs each selector that `wormcast all`
runs as its own process, first with --quick and then at full size, --runs
times each, writing the outputs to a temporary directory. Wall time and
peak RSS of each process come from `os.wait4`. A forked child's peak RSS
counts the launcher's pages until it execs, so every record also carries
`rss_floor_mib`, this script's own peak before the runs: a selector that
reads at the floor peaked at or below it. A full-size run whose JSON output
differs from the committed results/<selector>.json is reported, and the
script exits 1.

Writes a JSON array with one record per selector and mode, each stamped
with the host it was measured on (core count, rustc, git revision with
-dirty for an uncommitted tree, build profile), like the bench shim's
reports. Times are the median over the runs (`wall_s_min` the fastest);
peak RSS is the median. This is a record of where the end-to-end time
goes, not a gate on speed: a speed claim needs paired runs.

Standard library only. Run from anywhere: paths are relative to the
repository root, the directory above this file.
"""

import argparse
import filecmp
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITE_RS = os.path.join(ROOT, "crates", "experiments", "src", "suite.rs")
EXE = os.path.join(ROOT, "target", "release", "wormcast")
MODES = ["quick", "full"]


def all_selectors():
    """The selectors `wormcast all` runs, in its order: the rows of the
    suite table marked `in_all`."""
    with open(SUITE_RS, encoding="utf-8") as f:
        names = re.findall(r'row\(\s*"([^"]+)",\s*true\b', f.read())
    if not names:
        sys.exit(f"no selectors found in {SUITE_RS}")
    return names


def command_output(argv):
    """Stripped stdout of `argv`, or None if it cannot run or fails."""
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def host():
    """The host stamp the bench shim puts on every row."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "git_rev": command_output(
            ["git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude", "*"]
        ),
        "profile": "release",
    }


def run_once(argv):
    """Run `argv` with its output discarded; returns (exit code, wall
    seconds, peak RSS in MiB)."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def measure(selector, mode, jobs, runs, tmp):
    """One record: `runs` runs of `selector` in `mode`."""
    out_dir = os.path.join(tmp, f"{selector}-{mode}")
    argv = [EXE, selector, "--jobs", str(jobs), "--out", out_dir]
    if mode == "quick":
        argv.append("--quick")
    walls, peaks = [], []
    for _ in range(runs):
        code, wall, peak = run_once(argv)
        if code != 0:
            sys.exit(f"wormcast {selector} ({mode}) exited {code}")
        walls.append(wall)
        peaks.append(peak)
    record = {
        "id": f"selectors/{selector}/{mode}",
        "selector": selector,
        "mode": mode,
        "jobs": jobs,
        "runs": runs,
        "wall_s": round(statistics.median(walls), 3),
        "wall_s_min": round(min(walls), 3),
        "peak_rss_mib": round(statistics.median(peaks), 1),
    }
    if mode == "full":
        produced = os.path.join(out_dir, f"{selector}.json")
        committed = os.path.join(ROOT, "results", f"{selector}.json")
        record["matches_committed"] = filecmp.cmp(produced, committed, shallow=False)
    return record


def render(records, stamp):
    """A JSON array with one flat record per line, host last."""
    lines = [json.dumps({**r, "host": stamp}) for r in records]
    return "[\n" + ",\n".join("  " + line for line in lines) + "\n]\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--jobs", type=int, default=1, help="wormcast --jobs (default 1)")
    ap.add_argument("--runs", type=int, default=1, help="runs per selector and mode")
    ap.add_argument(
        "--out",
        default=os.path.join(ROOT, "results", "BENCH_selectors.json"),
        help="report path (default results/BENCH_selectors.json)",
    )
    ap.add_argument("--no-build", action="store_true", help="use the built binary as is")
    args = ap.parse_args()
    if args.jobs < 1 or args.runs < 1:
        ap.error("--jobs and --runs must be at least 1")
    if not args.no_build:
        subprocess.run(
            ["cargo", "build", "--offline", "--release", "--workspace"],
            cwd=ROOT,
            check=True,
        )
    # Stamp before running, so the revision is the one measured.
    stamp = host()
    floor = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    records = []
    with tempfile.TemporaryDirectory(prefix="bench_selectors.") as tmp:
        for mode in MODES:
            for selector in all_selectors():
                r = measure(selector, mode, args.jobs, args.runs, tmp)
                r["rss_floor_mib"] = floor
                records.append(r)
                print(
                    f"{r['id']:<28} wall {r['wall_s']:8.3f} s (min {r['wall_s_min']:.3f})"
                    f"  peak RSS {r['peak_rss_mib']:7.1f} MiB",
                    flush=True,
                )
    total = {m: sum(r["wall_s"] for r in records if r["mode"] == m) for m in MODES}
    print(f"total wall: quick {total['quick']:.3f} s, full {total['full']:.3f} s")
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(render(records, stamp))
    stale = [r["id"] for r in records if r.get("matches_committed") is False]
    if stale:
        sys.exit(f"outputs differ from the committed results: {', '.join(stale)}")


if __name__ == "__main__":
    main()
