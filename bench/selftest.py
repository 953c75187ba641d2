"""Self-tests of the benchmark at tiny sizes.

    python3 bench/selftest.py

Each workload runs and passes its checks; a perturbed S value and an
off-by-one quotient count are reported as failed ops, which shows the checks
can fail; the traced run reproduces the expected call structure; the metric
names match BENCHMARK.json; and the benchmark refuses to run under -O.
"""
from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(name, seed, tmpdir, workers=1):
    sizes = {
        "sweep": {"C": 100, "sample": 200},
        "point": {"c_max": 120, "parts": 2},
        "quotients": {"C": 400, "cmax": 40, "qmax": 40},
    }[name]
    w = workloads.make(name, seed, workers, tmpdir, **sizes)
    w.setup()
    return w


class Workloads(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmpdir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def test_checks_pass_at_tiny_sizes(self):
        for name in run.WORKLOADS:
            for seed in (0, 1):
                w = tiny(name, seed, self.tmpdir)
                rep = w.run_once()
                check = w.check(rep.output)
                self.assertEqual((check.failed, check.notes), (0, []), name)
                self.assertGreater(check.attempted, 0)
                self.assertGreater(check.digits, 6, name)

    def test_sweep_pool_output_matches_single_process(self):
        one = tiny("sweep", 3, self.tmpdir).run_once().output
        two = tiny("sweep", 3, self.tmpdir, workers=2).run_once().output
        self.assertEqual(one[1:3], two[1:3])

    def test_perturbed_sweep_value_fails(self):
        for seed in range(5):  # covers the real pair (exact check) and complex pairs
            w = tiny("sweep", seed, self.tmpdir)
            code, text, summary, stderr = w.run_once().output
            lines = text.splitlines()
            row = lines[7].split(",")
            c, a, d, D = (int(x) for x in row[:4])
            s = complex(float(row[5]) + 1e-3, float(row[6]))
            cp = c // 5
            # keep every derived field consistent, so only the S reference check can catch it
            row[5] = format(s.real, ".12g")
            row[7] = format(abs(s), ".12g")
            row[8] = format(abs(s) / (D * math.log(cp) ** 2), ".12g")
            lines[7] = ",".join(row)
            check = w.check((code, "\n".join(lines) + "\n", summary, stderr))
            self.assertGreaterEqual(check.failed, 1)
            self.assertTrue(any(n.startswith("S off by") for n in check.notes), check.notes)

    def test_perturbed_point_value_fails(self):
        w = tiny("point", 0, self.tmpdir)
        part, results = w.run_once().output
        for i in (0, 1, 2):
            ds, an = results[i]
            bad = list(results)
            bad[i] = (ds, dataclasses.replace(an, value=an.value + 1e-3))
            self.assertEqual(w.check((part, bad)).failed, 1)
            bad[i] = (dataclasses.replace(ds, value=ds.value - 1e-3j), an)
            self.assertEqual(w.check((part, bad)).failed, 1)

    def test_off_by_one_quotient_count_fails(self):
        w = tiny("quotients", 0, self.tmpdir)
        (code, out, err), *suites = w.run_once().output
        for key in ("phi_count", "g_count"):
            lines = [f"{key} = {int(line.split(' = ')[1]) + 1}" if line.startswith(key) else line
                     for line in out.splitlines()]
            check = w.check([(code, "\n".join(lines) + "\n", err), *suites])
            self.assertGreaterEqual(check.failed, 1)
            self.assertTrue(any("!=" in n for n in check.notes), check.notes)
        failing = (1, "verify cf: 1 failure(s)\n", "FAIL cf: reversal wrong inverse\n")
        self.assertEqual(w.check([(code, out, err), failing, suites[1]]).failed, 1)


class Tracing(unittest.TestCase):
    def test_traced_sweep_structure_and_restore(self):
        originals = [getattr(owner, attr) for owner, attr, _ in tracing.SITES]
        with tempfile.TemporaryDirectory() as tmpdir:
            w = tiny("sweep", 0, tmpdir)
            tracer = tracing.Tracer()
            with tracer.installed():
                rep = w.run_once(tracer.next_request)
        self.assertEqual({span[4] for span in tracer.spans}, {0})  # one request
        self.assertEqual([getattr(owner, attr) for owner, attr, _ in tracing.SITES], originals)
        m = tracer.metrics(0, tracer.errors, rep)
        self.assertEqual(m["dedekind.s_analytic.calls"], rep.ops)
        self.assertEqual(m["dedekind.f_eval.calls"], 2 * rep.ops)
        self.assertEqual(m["contfrac.expand_per_record"], 2.0)
        self.assertEqual(m["stats.emit.bytes"], rep.emit_bytes)
        self.assertEqual(sum(m[f"{layer}.errors"] for layer in tracing.LAYERS
                             if layer != "cli"), 0)
        self.assertEqual(max(tracing.LAYERS, key=lambda layer: m[f"{layer}.self_s"]), "dedekind")
        total = tracer.spans[0][2] - tracer.spans[0][1]  # the cli.main span
        layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        self.assertAlmostEqual(layers, total, delta=1e-6 * len(tracer.spans))

    def test_escaping_exception_counted_once_per_layer(self):
        tracer = tracing.Tracer()
        with tracer.installed():
            code, _, _ = workloads.run_cli(["cf", "--a", "2", "--c", "4"])
        self.assertEqual(code, 2)
        self.assertEqual(dict(tracer.errors), {"contfrac": 1})


class Runner(unittest.TestCase):
    def test_traced_run_runs_every_part_both_ways(self):
        for cycle in range(1, 6):
            steps = [(i % cycle, run.traced_step(i, cycle)) for i in range(2 * cycle)]
            self.assertEqual(sorted(steps), sorted((p, t) for p in range(cycle)
                                                   for t in (False, True)))
        with tempfile.TemporaryDirectory() as tmpdir:
            w = tiny("point", 0, tmpdir)
            plain, traced, per_rep = run.run_traced(w, 0.0, tracing.Tracer())
        self.assertEqual((len(plain), len(traced), len(per_rep)), (1, 1, 1))
        self.assertGreater(per_rep[0]["dedekind.s_analytic.calls"], 0)

    def test_probes_are_reaped_after_peak_rss(self):
        before = run.peak_rss_mb()
        with tempfile.TemporaryDirectory() as tmpdir:
            probes = run.SetupProbes("quotients", 0, tmpdir)
            probes.run()
            self.assertIsNone(probes.procs[0].returncode)  # exited but not yet reaped
            self.assertEqual(run.peak_rss_mb(), before)
            probes.reap()
        self.assertEqual(probes.procs[0].returncode, 0)
        self.assertEqual(len(probes.times), 1)
        self.assertGreater(probes.times[0], 0)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_refuses_optimized_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "point",
             "--seed", "0", "--seconds", "1"],
            capture_output=True, text=True, timeout=60, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("-O", proc.stderr)


if __name__ == "__main__":
    unittest.main()
