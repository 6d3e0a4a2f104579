"""Self-tests of the benchmark itself (stdlib unittest, kept out of tier-1).

    python3 bench/selftest.py
"""

import sys

sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import unittest  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import passrun  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class _WorkDir(unittest.TestCase):
    def setUp(self):
        os.makedirs(bench.WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=bench.WORK)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def subdir(self, name):
        return os.path.join(self.dir, name)


class InputTests(_WorkDir):
    def digest(self, workload, seed, name):
        workdir = self.subdir(name)
        ops = workloads.make(workload, seed, workdir)
        h = hashlib.sha256()
        for op in ops:
            h.update(repr([a.replace(workdir, "") for a in op.argv]).encode())
        for fname in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, fname), "rb") as fh:
                h.update(fname.encode() + fh.read())
        return h.hexdigest()

    def test_inputs_of_a_seed_are_byte_identical(self):
        for workload in workloads.WORKLOADS:
            first = self.digest(workload, 11, f"{workload}-a")
            self.assertEqual(first, self.digest(workload, 11, f"{workload}-b"), workload)
            self.assertNotEqual(first, self.digest(workload, 12, f"{workload}-c"), workload)


class PlantedFaultTests(_WorkDir):
    def ops(self):
        build = [op for op in workloads.make("build", 3, self.subdir("b"))
                 if op.name.startswith("kab-")][:5]
        verify = [op for op in workloads.make("check", 3, self.subdir("v"))
                  if op.name.startswith((self.host(0), self.host(2)))]
        return build + verify

    @staticmethod
    def host(i):
        return f"{workloads.HOST_KINDS[i]}-{workloads.VERIFY_M[i]}-"

    def failures(self, ops):
        _, results = passrun.run_ops(ops)
        return passrun.judge(ops, results, golden=None)[1]

    def test_planted_wrong_output_raises_fail_ratio(self):
        from pathsep import cli
        from pathsep.systems import Verdict

        ops = self.ops()
        self.assertEqual(self.failures(ops), [])
        format_paths, verify = cli.format_paths, cli.verify_strong_separation
        # Drop the first path of every written system, and pass every system.
        cli.format_paths = lambda system: format_paths(system).split("\n", 1)[1]
        cli.verify_strong_separation = lambda system: Verdict(True)
        try:
            failures = self.failures(ops)
        finally:
            cli.format_paths, cli.verify_strong_separation = format_paths, verify
        failed = {f["op"] for f in failures}
        self.assertTrue(all(op.name in failed for op in ops if op.kind == "build"))
        self.assertIn(self.host(2) + "contained", failed)
        self.assertIn(self.host(0) + "uncovered-txt", failed)
        self.assertIn(self.host(0) + "uncovered-json", failed)
        summary = bench.summarize("build", 3, 1, False, [fake_pass(failures)], [])
        self.assertGreater(summary["fail_ratio"], 0)
        self.assertFalse(summary["result"]["correct"])


def fake_pass(failures=(), scale=1.0, machine=1.0):
    """A pass of 200 operations; ``machine`` slows every timing, probe included."""
    return {"traced": False, "failures": list(failures), "setup_s": machine,
            "pass_s": 1.0, "peak_rss_mb": 1.0,
            "ops": [{"name": f"op{i}", "ms": machine * scale * i} for i in range(1, 201)],
            "probe_ms": [machine * (1.0 + i / 1000) for i in range(200)]}


class StatisticsTests(unittest.TestCase):
    def test_p90_needs_ten_samples_above_it(self):
        with self.assertRaises(ValueError):
            bench.percentile([float(v) for v in range(1, 60)], 0.9, bench.MIN_ABOVE_P90)
        values = [float(v) for v in range(1, 121)]
        p90 = bench.percentile(values, 0.9, bench.MIN_ABOVE_P90)
        self.assertGreaterEqual(sum(1 for v in values if v > p90), 10)

    def test_latency_of_an_operation_is_its_fastest_time(self):
        passes = [fake_pass(scale=2.0), fake_pass(scale=1.0), fake_pass(scale=1.5)]
        passes[0]["ops"][0]["ms"] = 0.5
        self.assertEqual(list(bench.best_latencies(passes).values()),
                         [0.5] + [float(i) for i in range(2, 201)])
        summary = bench.summarize("build", 0, 1, False, passes, [])
        unscaled = summary["samples"]["unscaled"]
        self.assertAlmostEqual(unscaled["pass_s"], (200 * 201 / 2 - 0.5) / 1e3)

    def test_a_slower_machine_reads_the_same(self):
        def metrics(machine):
            passes = [fake_pass(scale=s, machine=machine) for s in (2.0, 1.0, 1.5)]
            result = bench.summarize("build", 0, 1, False, passes, [])["result"]["metrics"]
            return {k: v["value"] for k, v in result.items()}

        base, slow = metrics(1.0), metrics(1.4)
        for name in base:
            self.assertAlmostEqual(base[name], slow[name], places=9, msg=name)
        # A slower program on the same machine reads slower.
        passes = [fake_pass(scale=2 * s) for s in (2.0, 1.0, 1.5)]
        slower = bench.summarize("build", 0, 1, False, passes, [])["result"]["metrics"]
        self.assertAlmostEqual(slower["pass_s"]["value"], 2 * base["pass_s"])

    def test_self_time_on_a_span_tree(self):
        # root [0, 100] has children a [10, 40] and b [50, 70]; a has c [15, 25].
        spans = [["root", 0, 100, -1, 0, None], ["a", 10, 40, 0, 0, None],
                 ["c", 15, 25, 1, 0, None], ["b", 50, 70, 0, 0, None]]
        self.assertEqual(tracing.self_times(spans), [50, 20, 10, 20])

    def test_loglog_slope_of_a_quadratic(self):
        points = [(n, 3e-7 * n * n) for n in (250, 500, 1000, 2000)]
        self.assertAlmostEqual(tracing.loglog_slope(points), 2.0)

    def test_compare_verdicts(self):
        old = [1.00, 1.01, 0.99, 1.00, 1.02]
        self.assertEqual(bench.verdict(old, [v * 0.8 for v in old], "lower", 0.1), "improved")
        self.assertEqual(bench.verdict(old, [v * 1.2 for v in old], "lower", 0.1), "worse")
        self.assertEqual(bench.verdict(old, [v * 1.01 for v in old], "lower", 0.1), "unchanged")
        noisy = [0.5, 1.5, 1.0, 0.7, 1.3]
        self.assertEqual(bench.verdict(old, noisy, "lower", 0.1), "unresolved")


class SpecTests(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        summary = bench.summarize("build", 0, 1, False, [fake_pass()], [])
        self.assertEqual(list(summary["result"]["metrics"]), list(bench.END_TO_END))
        produced = list(tracing.layer_metrics([], {})) + ["trace.overhead_ratio"]
        self.assertEqual(sorted(produced), sorted(bench.PER_LAYER))


class ReferenceVerdictTests(unittest.TestCase):
    def test_matches_the_pair_scan_verifier(self):
        from pathsep.generators import random_2degenerate
        from pathsep.systems import system_from_sequences, verify_by_pair_scan

        rng = random.Random(5)
        for trial in range(300):
            g = random_2degenerate(rng.randint(4, 9), trial)
            paths = workloads._random_paths(g, rng, rng.randint(1, 6))
            paths += rng.sample(list(g.edges), rng.randint(0, g.m))
            want = verify_by_pair_scan(system_from_sequences(g, paths))
            self.assertEqual(checks.reference_verdict(g.edges, paths),
                             (want.kind, want.witness))


if __name__ == "__main__":
    unittest.main()
