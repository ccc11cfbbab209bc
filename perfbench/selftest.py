"""Self-tests of the benchmark's correctness checks and of its tracer.

    python3 perfbench/selftest.py        # from the repository root

The checks must accept the reference outputs and an exact analytic route,
and reject a flipped sign in one component and a changed status cell.  The
tracer must wrap every nhgeo module binding of each traced function, restore
all of them, and compute self times per thread.
"""
from __future__ import annotations

import csv
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def edit_cell(text, row, col, fn):
    """CSV ``text`` with cell (data row ``row``, column ``col``) replaced by fn(cell)."""
    lines = text.splitlines()
    rows = list(csv.reader(lines[1:]))
    i = rows[0].index(col)
    rows[row + 1][i] = fn(rows[row + 1][i])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return lines[0] + "\n" + out.getvalue()


def negate(cell):
    return repr(-float(cell))


class SweepChecks(unittest.TestCase):
    def setUp(self):
        self.ssh = wl.reference_text("ssh-sweep")
        self.kit = wl.reference_text("kitaev-sweep")
        self.pairs = (("zeta", "zeta_limited_rescaled"),)

    def test_references_pass(self):
        self.assertIsNone(wl.check_sweep_csv(self.ssh, self.ssh, self.pairs))
        self.assertIsNone(wl.check_sweep_csv(self.kit, self.kit))

    def test_flipped_sign_caught(self):
        for col in ("eta_tt_re", "zeta_deltadelta_re", "zeta_limited_rescaled_tdelta_re"):
            bad = edit_cell(self.ssh, 3, col, negate)
            self.assertIsNotNone(wl.check_sweep_csv(bad, self.ssh, self.pairs), col)
        bad = edit_cell(self.kit, 15, "zeta_hh_re", negate)
        self.assertIsNotNone(wl.check_sweep_csv(bad, self.kit))

    def test_status_change_caught(self):
        bad = edit_cell(self.kit, 10, "status", lambda c: "ok")
        self.assertIsNotNone(wl.check_sweep_csv(bad, self.kit))
        bad = edit_cell(self.kit, 4, "status", lambda c: "SingularPencil")
        self.assertIsNotNone(wl.check_sweep_csv(bad, self.kit))

    def test_route_check_alone_catches_a_wrong_closed_form(self):
        # the reference itself carries the wrong value: only the route check sees it
        bad = edit_cell(self.ssh, 5, "zeta_tt_re", lambda c: repr(1.01 * float(c)))
        self.assertIsNotNone(wl.check_sweep_csv(bad, bad, self.pairs))

    def test_exact_analytic_route_passes(self):
        """Per-k sum-over-states eta and zeta_limited_rescaled in place of the
        stencil values must pass: the tolerance admits an exact engine."""
        from nhgeo.ssh import SSHParams, bloch_family

        text = self.ssh
        _, header, rows = wl._read_csv(text)
        for r, row in enumerate(rows):
            p = SSHParams(float(row[0]), 0.5, 64)
            lam = [p.t, p.delta]
            total = {"eta": 0, "zeta_limited_rescaled": 0}
            for k in p.k_grid:
                fam = bloch_family(p, k)
                exact = wl.sos_tensors(fam(lam), [fam.derivative(m, lam) for m in (0, 1)], 0)
                for kind in total:
                    total[kind] = total[kind] + exact[kind]
            for kind, mat in total.items():
                for a, da in enumerate(("t", "delta")):
                    for b, db in enumerate(("t", "delta")):
                        for part, val in (("re", mat[a, b].real), ("im", mat[a, b].imag)):
                            text = edit_cell(text, r, f"{kind}_{da}{db}_{part}",
                                             lambda c, v=val: repr(float(v)))
        self.assertNotEqual(text, self.ssh)
        self.assertIsNone(wl.check_sweep_csv(text, self.ssh, self.pairs))


class PointChecks(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_dense_point(self):
        spec = wl.prepare("dense-point", 7, self.dir, n=12)
        out = wl.make_op(spec, self.dir)(0)
        check = wl.Checker(spec)
        self.assertIsNone(check(out))
        flipped = out.replace('"re": ', '"re": -', 1)
        self.assertIsNotNone(check(flipped))
        self.assertIsNotNone(check(out.replace('"state": "6"', '"state": "5"')))

    def test_ness_real_space(self):
        spec = wl.prepare("ness-real-space", 7, self.dir)
        out = wl.make_op(spec, self.dir)(1)
        check = wl.Checker(spec)
        self.assertIsNone(check(out))
        out["values"][0][1][0] *= -1
        self.assertIsNotNone(check(out))

    def test_seed_fixes_inputs(self):
        self.assertEqual(wl.ness_points(3), wl.ness_points(3))
        self.assertNotEqual(wl.ness_points(3), wl.ness_points(4))
        a, b = wl.dense_family(3, 6)[0], wl.dense_family(3, 6)[0]
        self.assertTrue(np.array_equal(a, b))


class TracerTests(unittest.TestCase):
    def originals(self):
        """(span name, original object, its bindings) for every function target."""
        import nhgeo.cli  # noqa: F401

        out = []
        for name, modname, attr, _ in tracing.TARGETS:
            if "." not in attr:
                orig = getattr(sys.modules[modname], attr)
                out.append((name, orig, tracing.bindings(orig)))
        return out

    def test_every_binding_wrapped_and_restored(self):
        before = self.originals()
        methods = {(m, a): sys.modules[m].__dict__[a.split(".")[0]].__dict__[a.split(".")[1]]
                   for _, m, a, _ in tracing.TARGETS if "." in a}
        bound = {name: {mod.__name__ for mod, _ in b} for name, _, b in before}
        self.assertLessEqual({"nhgeo.linalg", "nhgeo.biortho", "nhgeo.liouville"},
                             bound["linalg.eig_general"])
        self.assertIn("nhgeo.cli", bound["cli.load_matrix"])
        t = tracing.Tracer()
        t.install()
        try:
            for name, orig, binds in before:
                self.assertEqual(tracing.bindings(orig), [], f"{name} left unwrapped")
                for mod, key in binds:
                    self.assertIs(getattr(mod, key).__wrapped__, orig, f"{mod.__name__}.{key}")
            for (m, a), orig in methods.items():
                cls, meth = a.split(".")
                self.assertIs(getattr(sys.modules[m], cls).__dict__[meth].__wrapped__, orig)
        finally:
            t.restore()
        for name, orig, binds in before:
            for mod, key in binds:
                self.assertIs(getattr(mod, key), orig, f"{mod.__name__}.{key} not restored")
        for (m, a), orig in methods.items():
            cls, meth = a.split(".")
            self.assertIs(getattr(sys.modules[m], cls).__dict__[meth], orig)
        from concurrent.futures import ThreadPoolExecutor

        self.assertIs(sys.modules["nhgeo.cli"].ThreadPoolExecutor, ThreadPoolExecutor)

    def test_spans_and_self_time_per_thread(self):
        from nhgeo import cli

        d = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
        args = ["sweep", "--model", "nh-ssh", "--set", "delta=0.5", "--set", "L=8",
                "--axis", "t:0.1:0.9:4", "--tensors", "eta", "--threads", "2",
                "--output", os.path.join(d, "s.csv")]
        t = tracing.Tracer()
        t.install()
        try:
            with open(os.devnull, "w") as null:
                stdout, sys.stdout = sys.stdout, null
                try:
                    t.run_op(0, lambda: cli.main(args, standalone_mode=False))
                finally:
                    sys.stdout = stdout
        finally:
            t.restore()
            shutil.rmtree(d, ignore_errors=True)
        spans = t.spans
        root = [s for s in spans if s[1] == tracing.ROOT]
        self.assertEqual(len(root), 1)
        root = root[0]
        by_id = {s[0]: s for s in spans}
        threads = {s[5] for s in spans}
        self.assertGreaterEqual(len(threads), 2)  # main thread plus pool workers
        for tid in threads:
            mine = [s for s in spans if s[5] == tid]
            tops = [s for s in mine if s[4] is None or by_id[s[4]][5] != tid]
            total_self = sum(s[6] for s in mine)
            total_top = sum(s[3] - s[2] for s in tops)
            self.assertAlmostEqual(total_self, total_top, delta=1e-9)
            for s in tops:
                if s is not root:
                    self.assertEqual(by_id[s[4]][0], root[0])  # pool spans hang off the op
        self.assertTrue(all(s[6] >= -1e-12 for s in spans))
        metrics, errors = tracing.summarize(spans, [0], t.pool_sizes, sweep=True, cli=True)
        self.assertEqual(metrics["cli.sweep.threads"], 2)
        self.assertEqual(metrics["cli.adapter_tensors.calls"], 4)
        self.assertEqual(metrics["tensors.eta_tensor.calls"], 4 * 8)
        self.assertEqual(metrics["tensors.eigensolves_per_tensor"], 5.0)
        self.assertEqual(errors, {})
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        added_by_run = {"process.cpu_per_wall", "trace.op_s_p50", "trace.overhead_frac"}
        self.assertEqual(set(metrics) | added_by_run, declared)
        listed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(listed + metrics["cli.other_s"] + metrics["trace.unlisted_s"],
                               metrics["trace.busy_thread_s"], delta=1e-9)


if __name__ == "__main__":
    unittest.main()
