"""Sweeps evaluate their grid points in shared Brillouin-zone passes.

A row must not depend on its pass: every point's tensors equal its one-point
evaluation bit for bit, and a failing point gets the error class (and
message) it gets alone, whatever points share its pass and wherever it sits
in the pass.  A sweep runs serially, but the engines are public: a pass in
one of a library caller's threads never changes what another thread gets.
"""
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import nhgeo.cli as cli_mod
import nhgeo.liouville as liouville_mod
from nhgeo.cli import main
from nhgeo.errors import CriticalKPoint, SingularPencil

SSH_KINDS = ["zeta", "eta", "zeta_limited", "zeta_limited_rescaled"]


def same(a, b) -> bool:
    """Whether two adapter results agree bit for bit: dicts with the same kinds
    in the same order and the same bytes, or errors of one class and message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a)


def joined_and_alone(adapter, points, kinds, n, budget):
    """The adapter's results at ``points`` (value dicts) in passes of
    ``budget`` blocks, after asserting that each equals the point's one-point
    result."""
    points = [adapter.params(values) for values in points]
    alone = [adapter.tensors([p], kinds, n, 0.0) for p in points]
    assert all(len(r) == 1 for r in alone)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_mod, "PASS_BLOCKS", budget)
        joined = adapter.tensors(points, kinds, n, 0.0)
    assert len(joined) == len(points)
    for p, (a,), b in zip(points, alone, joined):
        assert same(a, b), (p, a, b)
    return joined


def evaluate(adapter, points, kinds, n):
    """The adapter's results at ``points``, value dicts that it checks first,
    as a command does."""
    return adapter.tensors([adapter.params(values) for values in points], kinds, n, 0.0)


def grid(*axes):
    """Row-major points of the axes ``{name: values}``, as a sweep orders them."""
    names = [next(iter(a)) for a in axes]
    values = [a[name] for a, name in zip(axes, names)]
    return [dict(zip(names, map(float, p))) for p in itertools.product(*values)]


# an axis with a random span, or one that lands on the gap-closing values
# 0, +-0.5, +-1, +-1.5 and +-2 of both models
landing = st.integers(1, 3).map(lambda m: np.linspace(-2.0, 2.0, 8 * m + 1))
spanning = st.builds(lambda lo, span, m: np.linspace(lo, lo + span, m),
                     st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.integers(2, 7))
axis = st.one_of(landing, spanning)


@st.composite
def ssh_points(draw):
    L = draw(st.integers(2, 64))
    t = draw(axis)
    if draw(st.booleans()):  # 2D: (t, delta)
        points = grid({"t": t}, {"delta": draw(axis)[:5]})
    else:  # 1D: t at a delta that puts |t -+ delta| = 1 on the landing axes
        delta = draw(st.sampled_from([0.5, -0.5, 0.0, 1.0]) | st.floats(-1.5, 1.5))
        points = [{**p, "delta": delta} for p in grid({"t": t})]
    return [{**p, "L": L} for p in points[:24]]


@st.composite
def kitaev_points(draw):
    L = draw(st.integers(1, 64))
    h = draw(axis)  # through h = +-1
    bath = st.fixed_dictionaries({
        "g": st.sampled_from([0.0, 0.1, 0.4]) | st.floats(0.0, 1.0),
        "mu_plus": st.floats(0.0, 1.5), "mu_minus": st.floats(0.1, 1.5)})
    if draw(st.booleans()):  # 2D: (h, gamma)
        points = grid({"h": h}, {"gamma": draw(axis)[:4]})
    else:
        points = [{**p, "gamma": draw(st.sampled_from([1.0, 0.5]))} for p in grid({"h": h})]
    # each point may carry its own bath: axes over g and mu_+- read the blocks per point
    return [{**p, **draw(bath), "L": L, "weak_coupling": False} for p in points[:24]]


class TestRowsDoNotDependOnTheirPass:
    @settings(max_examples=40, deadline=None)
    @given(points=ssh_points(), n=st.integers(0, 1), per_pass=st.integers(1, 25),
           extra=st.integers(0, 63), kinds=st.permutations(SSH_KINDS).map(lambda k: k[:3]))
    def test_nh_ssh(self, points, n, per_pass, extra, kinds):
        L = points[0]["L"]
        joined_and_alone(cli_mod.SSHAdapter(), points, kinds, n, per_pass * L + extra % L)

    @settings(max_examples=40, deadline=None)
    @given(points=kitaev_points(), per_pass=st.integers(1, 25), extra=st.integers(0, 63))
    def test_strong_coupling_kitaev(self, points, per_pass, extra):
        L = points[0]["L"]
        joined_and_alone(cli_mod.KitaevAdapter(), points, ["zeta"], 0, per_pass * L + extra % L)

    def test_grids_reach_the_failing_rows(self):
        # the landing axes put failing points among ok ones, on both models
        ssh = evaluate(cli_mod.SSHAdapter(), grid({"t": np.linspace(-2, 2, 9)}, {"delta": [0.5]}),
                       SSH_KINDS, 0)
        kitaev = evaluate(cli_mod.KitaevAdapter(),
                          [{**p, "weak_coupling": False, "L": 8}
                           for p in grid({"h": np.linspace(-2, 2, 9)}, {"gamma": [1.0]})],
                          ["zeta"], 0)
        for results, error in ((ssh, CriticalKPoint), (kitaev, SingularPencil)):
            kinds = {type(r) for r in results}
            assert dict in kinds and error in kinds


def counted(monkeypatch, name):
    """The sizes of the passes that ``cli.<name>`` evaluates from now on: the
    length of its points argument, the first or, after a model, the second."""
    calls, real = [], getattr(cli_mod, name)
    at = 1 if name == "zeta_ness_k_sums" else 0

    def count(*args):
        calls.append(len(args[at]))
        return real(*args)

    monkeypatch.setattr(cli_mod, name, count)
    return calls


def counted_reads(monkeypatch):
    """The number of points of each block read from now on."""
    reads, real = [], liouville_mod._momentum_blocks

    def read(model, lams, *args):
        reads.append(len(lams))
        return real(model, lams, *args)

    monkeypatch.setattr(liouville_mod, "_momentum_blocks", read)
    return reads


class TestFailingPointsInAPass:
    """Five points per pass (a budget of 5 * (L // 2 + 1) blocks); the failing
    points sit at its start, middle or end, or two of them share it.  The
    pass runs once, its checks recording the failing blocks, and each failing
    point reads its error from the record: a pass is one evaluation, however
    many of its points fail."""

    @pytest.mark.parametrize("ts, bad, passes", [
        ([0.5, 0.7, 0.8, 0.9, 1.1], [0], [5]),
        ([0.7, 0.8, 1.5, 0.9, 1.1], [2], [5]),
        ([0.7, 0.8, 0.9, 1.1, 1.5], [4], [5]),
        ([0.7, 0.5, 0.9, 1.5, 1.1], [1, 3], [5]),
        ([0.5, 1.5, 0.5, 1.5, 0.5, 0.9, 1.5], [0, 1, 2, 3, 4, 6], [5, 2]),
    ])
    def test_nh_ssh(self, monkeypatch, ts, bad, passes):
        # delta = 0.5, L = 8: eps(pi) vanishes at t = 0.5 and t = 1.5
        points = [{"t": t, "delta": 0.5, "L": 8} for t in ts]
        calls = counted(monkeypatch, "band_sums")
        out = joined_and_alone(cli_mod.SSHAdapter(), points, SSH_KINDS, 1, 5 * 5)
        assert calls[len(points):] == passes  # after the one-point calls
        assert [i for i, r in enumerate(out) if isinstance(r, CriticalKPoint)] == bad
        assert all(isinstance(r, dict) for i, r in enumerate(out) if i not in bad)

    @pytest.mark.parametrize("hs, bad, passes", [
        ([1.0, 0.2, 0.4, 0.6, 0.8], [0], [5]),
        ([0.2, 0.4, 1.0, 0.6, 0.8], [2], [5]),
        ([0.2, 0.4, 0.6, 0.8, 1.0], [4], [5]),
        ([0.2, 1.0, 0.6, 1.0, 0.8], [1, 3], [5]),
    ])
    def test_strong_coupling_kitaev(self, monkeypatch, hs, bad, passes):
        # gamma = 1: x(k = 0) is a multiple of the identity at h = 1
        points = [{"h": h, "gamma": 1.0, "L": 8, "weak_coupling": False} for h in hs]
        calls = counted(monkeypatch, "zeta_ness_k_sums")
        out = joined_and_alone(cli_mod.KitaevAdapter(), points, ["zeta"], 0, 5 * 5)
        assert calls[len(points):] == passes
        assert [i for i, r in enumerate(out) if isinstance(r, SingularPencil)] == bad
        assert all(isinstance(r, dict) for i, r in enumerate(out) if i not in bad)

    def test_gap_closing_line_is_flagged(self, monkeypatch):
        # delta = 0.5, L = 8: the t axis crosses the gap closings at t = 0.5
        # and 1.5, which the grid check flags; neither runs again
        points = [{"t": t, "delta": 0.5, "L": 8} for t in np.linspace(0.25, 1.75, 7)]
        calls = counted(monkeypatch, "band_sums")
        out = joined_and_alone(cli_mod.SSHAdapter(), points, SSH_KINDS, 0, 7 * 5)
        assert calls[len(points):] == [7]
        assert [i for i, r in enumerate(out) if isinstance(r, CriticalKPoint)] == [1, 5]

    def test_pass_over_several_baths(self, monkeypatch):
        # a g axis through g = 0, whose rows are SingularPencil: the points
        # of each bath share a pass across the grid, read once, and the
        # failing points are read no more
        points = [{"h": h, "g": g, "gamma": 1.0, "L": 8, "weak_coupling": False}
                  for h in (0.3, 0.6) for g in (0.0, 0.2, 0.4)]
        reads = counted_reads(monkeypatch)
        calls = counted(monkeypatch, "zeta_ness_k_sums")
        out = joined_and_alone(cli_mod.KitaevAdapter(), points, ["zeta"], 0, 6 * 5)
        assert calls[len(points):] == [2, 2, 2]
        assert reads[len(points):] == [2, 2, 2]
        assert [i for i, r in enumerate(out) if isinstance(r, SingularPencil)] == [0, 3]

    def test_bath_on_the_inner_axis(self, monkeypatch):
        # a 41 x 3 h x g grid at L = 128: each bath's 41 points make passes
        # of PASS_BLOCKS // (L // 2 + 1) = 15 points wherever they sit in the
        # grid, each pass one read
        points = [{"h": h, "g": g, "gamma": 1.0, "L": 128, "weak_coupling": False}
                  for h in np.linspace(-2, 2, 41) for g in (0.1, 0.2, 0.4)]
        reads = counted_reads(monkeypatch)
        calls = counted(monkeypatch, "zeta_ness_k_sums")
        out = evaluate(cli_mod.KitaevAdapter(), points, ["zeta"], 0)
        assert calls == [15, 15, 11] * 3
        assert reads == calls
        # h = +-1 closes the gap at every bath
        assert [i // 3 for i, r in enumerate(out) if isinstance(r, SingularPencil)] == [10] * 3 + [30] * 3

    @pytest.mark.parametrize("L, passes", [(64, [31, 10]), (128, [15, 15, 11]),
                                           (1024, [2] * 20 + [1]), (2048, [1] * 41)])
    def test_passes_count_half_zone_blocks(self, L, passes):
        # 41 points of L // 2 + 1 blocks each in passes of at most PASS_BLOCKS
        # blocks: two points share a pass at L = 1024
        sizes = []
        cli_mod._in_passes(lambda ps: sizes.append(len(ps)) or {},
                           [cli_mod.SSHParams(0.5, 0.2, L)] * 41, lambda p: p.L)
        assert sizes == passes

    def test_error_without_a_block_sends_every_point_alone(self, monkeypatch):
        from nhgeo.errors import NonConvergence

        calls = []
        real = cli_mod.band_sums

        def failing(points, n, kinds):  # a pass of more than one point fails without a block
            calls.append(len(points))
            if len(points) > 1:
                raise NonConvergence("no block index")
            return real(points, n, kinds)

        monkeypatch.setattr(cli_mod, "band_sums", failing)
        points = [{"t": t, "delta": 0.5, "L": 8} for t in (0.7, 1.5, 0.9)]
        out = evaluate(cli_mod.SSHAdapter(), points, ["zeta"], 0)
        assert calls == [3, 1, 1, 1]
        assert [type(r) for r in out] == [dict, CriticalKPoint, dict]


class TestFlagsStayInTheirThread:
    def test_passes_beside_one_point_evaluations(self):
        # a pass flags its failing points while, in other threads, a failing
        # point evaluated alone must still raise: the flag record belongs
        # to the pass and its thread
        adapter = cli_mod.SSHAdapter()
        passes = [adapter.params({"t": t, "delta": 0.5, "L": 64})
                  for t in np.linspace(0.25, 1.75, 7)]
        expected = adapter.tensors(passes, SSH_KINDS, 0, 0.0)
        assert sum(isinstance(r, CriticalKPoint) for r in expected) == 2

        def run(i):
            for _ in range(30):
                if i % 2:
                    out = adapter.tensors(passes, SSH_KINDS, 0, 0.0)
                    assert all(same(a, b) for a, b in zip(out, expected))
                else:
                    (alone,) = adapter.tensors([passes[1]], SSH_KINDS, 0, 0.0)
                    assert isinstance(alone, CriticalKPoint)
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, i) for i in range(4)]
                assert all(f.result(timeout=120) for f in futures)
        finally:
            sys.setswitchinterval(interval)


class TestSweepRows:
    """The sweep's rows equal the one-point rows at every pass budget."""

    SWEEPS = {  # sweep: model, fixed parameters, axes (min, max, steps), kinds, state
        "nh-ssh": ("nh-ssh", {"L": 8}, {"t": (-2, 2, 17), "delta": (-1, 1, 5)},
                   ["eta", "zeta", "zeta_limited_rescaled"], 1),
        "kitaev-dissipative": ("kitaev-dissipative", {"L": 16, "weak_coupling": False},
                               {"h": (-2, 2, 41), "g": (0, 0.4, 3)}, ["zeta"], 0),
        # h = +-1 close the gap on the grid (CriticalKPoint), and mu_minus = 0
        # makes the k = 0 block pure (PureStateSingular)
        "weak-coupling": ("kitaev-dissipative", {"L": 16},
                          {"h": (-2, 2, 21), "mu_minus": (0, 0.6, 3)},
                          ["zeta", "zeta_limited", "bures"], 0),
    }

    def one_point_rows(self, sweep):
        """The CSV rows that one-point adapter calls give for the sweep's points."""
        model, fixed, axes, kinds, n = self.SWEEPS[sweep]
        adapter = cli_mod.MODELS[model]()
        rows = []
        for point in grid(*({name: np.linspace(*a)} for name, a in axes.items())):
            (mats,) = evaluate(adapter, [{**fixed, **point}], kinds, n)
            cells = list(point.values())
            if isinstance(mats, Exception):
                cells += [np.nan] * (8 * len(kinds)) + [type(mats).__name__]
            else:
                cells += [v for kind in kinds for z in mats[kind].ravel() for v in (z.real, z.imag)]
                cells.append("ok")
            rows.append(",".join(format(c, ".17g") if isinstance(c, float) else c
                                 for c in cells))
        return rows

    @pytest.mark.parametrize("sweep", list(SWEEPS))
    @pytest.mark.parametrize("budget", [None, 40])
    def test_rows_equal_one_point_rows(self, tmp_path, monkeypatch, sweep, budget):
        if budget is not None:
            monkeypatch.setattr(cli_mod, "PASS_BLOCKS", budget)
        model, fixed, axes, kinds, n = self.SWEEPS[sweep]
        args = ["sweep", "--model", model, "--tensors", ",".join(kinds), "--state",
                str(n) if model == "nh-ssh" else "ness"]
        args += [a for name, v in fixed.items() for a in ("--set", f"{name}={v}")]
        args += [a for name, v in axes.items() for a in ("--axis", f"{name}:{v[0]}:{v[1]}:{v[2]}")]
        out = tmp_path / "x.csv"
        result = CliRunner().invoke(main, [*args, "--output", str(out)])
        assert result.exit_code == 0, result.output
        rows = out.read_text().splitlines()[2:]
        assert rows == self.one_point_rows(sweep)
        statuses = {row.rsplit(",", 1)[1] for row in rows}
        assert "ok" in statuses and len(statuses) > 1  # the grid reaches failing rows
        if sweep == "weak-coupling":
            assert statuses == {"ok", "CriticalKPoint", "PureStateSingular"}
