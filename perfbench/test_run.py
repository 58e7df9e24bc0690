"""Tests of the benchmark driver at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def invoke(workload, trace):
    selector = ["--workload", workload] if workload else []
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *selector,
         "--seed", "17", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=True, timeout=600)
    return out.stdout.strip().splitlines()


class Definitions(unittest.TestCase):
    def test_benchmark_json_matches_the_driver(self):
        bench = load("BENCHMARK.json")
        plan = load("perfbench/plan.json")["workloads"]
        self.assertEqual([w["name"] for w in bench["workloads"]], plan["benchmarked"])
        self.assertEqual(sorted(plan["benchmarked"] + plan["by_hand"]),
                         sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))

    def test_every_layer_metric_has_a_prediction(self):
        plan = load("perfbench/plan.json")
        predicted = {p["metric"] for p in plan["predictions"]}
        self.assertEqual(predicted, {n for n, _ in run.PER_LAYER})
        e2e = {n for n, _ in run.END_TO_END}
        for p in plan["predictions"]:
            self.assertLessEqual(set(p["moves"]), e2e, p)
            self.assertLessEqual(set(p["on"]), set(run.WORKLOADS), p)

    def test_references_cover_both_named_seeds(self):
        plan = load("perfbench/plan.json")["seeds"]
        ref = load("perfbench/reference.json")
        for w in run.WORKLOADS:
            for seed in (plan["default"], plan["held_out"]):
                for tiny in (False, True):
                    key = run.reference_key(2005 + seed % 32, tiny)
                    self.assertIn(key, ref[w], (w, key))


class Output(unittest.TestCase):
    def check(self, workload, trace, table):
        lines = invoke(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                         dict(table))
        for name, unit in table:
            self.assertTrue(any(l.startswith(f"{name} ") and l.endswith(f" {unit}")
                                for l in lines), name)
        return result["metrics"]

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                m = self.check(w, 0, run.END_TO_END)
                self.assertEqual(m["pass_ratio"]["value"], 1.0)
                m = self.check(w, 1, run.PER_LAYER)
                self.assertGreater(m["trace.overhead"]["value"], 0)

    def test_one_command_runs_every_workload(self):
        lines = invoke(None, 0)
        self.assertEqual([l.split()[1] for l in lines if l.startswith("workload ")],
                         run.WORKLOADS)
        results = [json.loads(l) for l in lines if l.startswith("{")]
        self.assertEqual(len(results), len(run.WORKLOADS))
        self.assertTrue(all(r["correct"] for r in results))


if __name__ == "__main__":
    unittest.main()
