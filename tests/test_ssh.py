import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhgeo.errors import (
    CriticalKPoint,
    DegenerateSpectrum,
    FSingular,
    NearDefective,
    NhgeoError,
    NonConvergence,
    OnCriticalLine,
)
from nhgeo.linalg import _grid_check, flagged_blocks, lowest_failing_block
from nhgeo.ssh import (
    _DIRECTIONS,
    BAND_KINDS,
    SSHParams,
    _bloch,
    _eps,
    _hoppings,
    band_sums,
    bloch_family,
    bloch_sum,
    classify_phase,
    eps,
    zeta_finite_sum,
    zeta_summand,
    zeta_thermodynamic,
)
from nhgeo.tensors import STATE_KINDS, stencil_tensors, sum_over_blocks, zeta_tensor

from conftest import (
    HALF_ZONE_LENGTHS,
    assert_matches_full_zone,
    bloch,
    full_band_sums,
    half_zone_error,
    maxdev,
    ssh_eigenstates,
    zone_outcomes,
)


class TestParams:
    @pytest.mark.parametrize("args, message", [
        ((np.nan, 0.5, 8), "t must be a finite number"),
        ((0.5, -np.inf, 8), "delta must be a finite number"),
        ((True, 0.5, 8), "t must be a finite number"),
        ((10 ** 400, 0.5, 8), "t must be a finite number"),
        ((0.5, 0.5, 8.5), "L must be an integer >= 2"),
        ((0.5, 0.5, 8.0), "L must be an integer >= 2"),
        ((0.5, 0.5, True), "L must be an integer >= 2"),
        ((0.5, 0.5, np.int64(1)), "L must be an integer >= 2"),
    ])
    def test_rejected(self, args, message):
        # NaN gave a NaN zeta; L = 8.5 a grid of 9 momenta off the 2 pi/L grid
        with pytest.raises(ValueError, match=message):
            SSHParams(*args)

    def test_integer_types_accepted(self):
        ref = zeta_finite_sum(SSHParams(0.3, 0.2, 8)).values
        for p in (SSHParams(np.float64(0.3), np.float64(0.2), np.int64(8)),
                  SSHParams(0.3, 0.2, np.int32(8))):
            assert np.array_equal(p.k_grid, 2 * np.pi * np.arange(8) / 8)
            assert np.array_equal(zeta_finite_sum(p).values, ref)

    @pytest.mark.parametrize("t, delta", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.0)])
    def test_nonfinite_phase_point_rejected(self, t, delta):
        for call in (classify_phase, zeta_thermodynamic):
            with pytest.raises(ValueError, match="must be a finite number"):
                call(t, delta)


class TestBloch:
    def test_symmetric_point(self):
        h = bloch(SSHParams(0.0, 0.0, 4), 0.0)
        assert maxdev(h, np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0

    def test_band_crossing_point(self):
        h = bloch(SSHParams(1.0, 0.0, 4), np.pi)
        assert np.abs(h).max() < 1e-12

    def test_eigenvalues_are_band_function(self, rng):
        for _ in range(10):
            t, d, k = rng.uniform(0, 2), rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi)
            ev = np.linalg.eigvals(bloch(SSHParams(t, d, 4), k))
            se = np.sqrt(eps(t, d, k))
            assert maxdev(sorted(ev, key=lambda z: z.real), [-se, se]) < 1e-12

    def test_stack_equals_single_blocks(self):
        p = SSHParams(0.7, -0.3, 9)
        stack = bloch(p, p.k_grid)
        assert stack.shape == (9, 2, 2)
        for K, k in zip(stack, p.k_grid):
            assert np.array_equal(K, bloch(p, k))


def stencil_sums(p, n, kinds):
    """The per-k stencil tensors ``kinds`` of band ``n``, each summed over the k-grid."""
    per_k = [stencil_tensors(bloch_family(p, k), [p.t, p.delta], n, kinds) for k in p.k_grid]
    return {kind: sum(st[kind].values for st in per_k) for kind in kinds}


class TestBlochSum:
    @pytest.mark.parametrize("L", [2, 3, 8, 64])
    @settings(max_examples=8, deadline=None)
    @given(t=st.floats(0.0, 2.0), delta=st.floats(-1.0, 1.0))
    def test_matches_stencil_sum(self, L, t, delta):
        assume(min(abs(abs(t - delta) - 1), abs(abs(t + delta) - 1)) >= 0.05)
        p = SSHParams(t, delta, L)
        kinds = ["zeta_limited", "zeta_limited_rescaled"]
        for n in (0, 1):
            refs = stencil_sums(p, n, kinds)
            for kind, T in bloch_sum(p, n, kinds).items():
                assert T.kind == kind and T.state_index == n
                ref = refs[kind]
                assert maxdev(T.values, ref) <= 1e-6 * np.abs(ref).max(), (kind, n)

    def test_eta_matches_stencil_sum(self):
        p = SSHParams(0.7, 0.4, 8)
        for n in (0, 1):
            ref = stencil_sums(p, n, ["eta"])["eta"]
            assert maxdev(bloch_sum(p, n, ["eta"])["eta"].values, ref) <= 1e-6 * np.abs(ref).max()

    def test_rescaled_sum_is_closed_form_zeta(self):
        p = SSHParams(0.9, 0.5, 64)
        z = zeta_finite_sum(p).values
        for n in (0, 1):
            zt = bloch_sum(p, n, ["zeta_limited_rescaled"])["zeta_limited_rescaled"].values
            assert maxdev(zt, z) <= 1e-12 * np.abs(z).max()

    @pytest.mark.parametrize("x", [1e-6, 1e-4])
    def test_near_gap_closing_k(self, x):
        # t = 1.5 + x: |eps(pi)| ~ x; the stencil's step resolves the bands
        # poorly there (about 23x too small at x = 1e-6)
        p = SSHParams(1.5 + x, 0.5, 8)
        assert abs(abs(eps(p.t, p.delta, np.pi)) - x) <= 1e-3 * x
        ref = sum(zeta_summand(p.t, p.delta, k) for k in p.k_grid)
        zt = bloch_sum(p, 0, ["zeta_limited_rescaled"])["zeta_limited_rescaled"].values
        assert maxdev(zt.real, ref) <= 1e-8 * np.abs(ref).max()


    @pytest.mark.parametrize("t, delta, L", [(1.5, 0.5, 8), (1.0, 0.0, 8), (0.0, 1.0, 4)])
    def test_gap_closing_grid_k_raises(self, t, delta, L):
        # eps vanishes at a grid k, where rounding may leave the block a gap
        p = SSHParams(t, delta, L)
        with pytest.raises(CriticalKPoint) as want:
            zeta_finite_sum(p)
        for n in (0, 1):
            with pytest.raises(CriticalKPoint) as got:
                bloch_sum(p, n, ["eta", "zeta_limited"])
            assert str(got.value) == str(want.value)


def bloch_stack(points):
    """The ``(P, L, 2, 2)`` Bloch matrices of ``points``."""
    t = np.array([p.t for p in points])[:, None]
    delta = np.array([p.delta for p in points])[:, None]
    return _bloch(t, delta, points[0].k_grid)


def eigensolved(points, n, kinds):
    """:func:`band_sums` of ``points`` by the eigensolver route: the grid
    check, then ``sum_over_blocks`` on the stack of their Bloch matrices,
    both in one record, so a failure is that of the first failing point."""
    K = bloch_stack(points)
    with lowest_failing_block():
        _grid_check(abs(_eps(K[..., 0, 1], K[..., 1, 0])), points[0].k_grid,
                    "eps(k) vanishes on the grid")
        return sum_over_blocks(K, _DIRECTIONS, n, kinds)


def outcome(route, points, n, kinds=STATE_KINDS):
    """``route(points, n, kinds)``, or the NhgeoError it raises."""
    try:
        return route(points, n, kinds)
    except NhgeoError as exc:
        return exc


#: hoppings on the landing axes of the sweep tests, which put |t -+ delta| = 1
#: on the gap closings, or anywhere with |t| up to 1e6
hopping = st.sampled_from(np.linspace(-2.0, 2.0, 25).tolist()) | st.floats(-1e6, 1e6)


@st.composite
def passes(draw, lengths=st.integers(2, 64)):
    """One to four points of one L.  Half of them put t - delta or t + delta
    at +-1 in floating point, where a Bloch block at k = 0 or pi is (nearly)
    exceptional: a grid gap closing, or, at large |t| where rounding hides
    the gap from the grid check, a near-defective or degenerate block."""
    L = draw(lengths)
    points = []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(hopping)
        edges = st.sampled_from([t - 1, t + 1, 1 - t, -1 - t])
        points.append(SSHParams(t, draw(edges if draw(st.booleans()) else hopping), L))
    return points


#: points where the eigensolver route fails, with its verdict
ENGINE_VERDICTS = [
    (1.5, 0.5, 8, CriticalKPoint),
    # t - delta = -1 exactly: a = 0 at k = 0, so eps = a b = 0 there and
    # the gap closes on the grid (the expanded 1 + t^2 - delta^2 + ...
    # rounded to |eps| ~ 2e-5 and let the block fail as NearDefective)
    (1e6 + 0.3, 1e6 + 1.3, 4, CriticalKPoint),
    # t - delta = 1: |a| = 1.2e-16 at k = pi (the rounding of e^{i pi})
    (1e9 + 0.5, 1e9 - 0.5, 4, NearDefective),
    (5e4 + 0.5, 5e4 - 0.5, 8, DegenerateSpectrum),
]


class TestClosedFormBandSums:
    """:func:`band_sums` in closed form against the eigensolver route on the
    same Bloch blocks: the same sums, and the same error wherever that
    route raises."""

    @settings(max_examples=300, deadline=None)
    @given(points=passes(), n=st.integers(0, 1))
    def test_matches_eigensolver(self, points, n):
        want, got = outcome(eigensolved, points, n), outcome(band_sums, points, n)
        if isinstance(want, Exception) or isinstance(got, Exception):
            # the eigensolver route runs the full zone: its block p * L + j
            # is p * (L // 2 + 1) + j on the half zone of band_sums
            assert isinstance(want, Exception), got
            assert (type(got), str(got), got.block) == half_zone_error(want, points[0].L)
            return
        # each block's tensors alone: the k-terms of the sums, whose
        # magnitudes set the rounding of any sum of them (terms ~ 0.06 sum
        # to 4e-5 at t = delta = 34, L = 3)
        K = bloch_stack(points)
        terms = sum_over_blocks(K.reshape(-1, 1, 2, 2), _DIRECTIONS, n, STATE_KINDS)
        for kind in STATE_KINDS:
            scale = np.abs(terms[kind]).reshape(K.shape).sum(axis=1)
            for ref, v, size in zip(want[kind], got[kind], scale):
                assert maxdev(v, ref) <= 1e-12 * size.max(), (kind, ref, v)

    @settings(max_examples=100, deadline=None)
    @given(points=passes(), n=st.integers(0, 1))
    def test_flags_the_points_of_the_eigensolver(self, points, n):
        # in a pass the checks record the failing blocks instead of raising,
        # and each point reads the error it gets alone from the record
        errors = []
        for route in (eigensolved, band_sums):
            with flagged_blocks() as flags:
                outcome(route, points, n)
            errors.append([None if e is None else (type(e), str(e), e.block)
                           for e in flags.errors(len(points))])
        assert errors[1] == errors[0]
        for p, e in zip(points, errors[1]):
            alone = outcome(band_sums, [p], n)
            assert e == ((type(alone), str(alone), alone.block)
                         if isinstance(alone, Exception) else None)

    @pytest.mark.parametrize("t, delta, L, error", ENGINE_VERDICTS)
    def test_engine_verdicts(self, t, delta, L, error):
        p = SSHParams(t, delta, L)
        points = [SSHParams(0.3, 0.2, L), p, SSHParams(0.7, -0.4, L)]
        for n in (0, 1):
            for pts in ([p], points):
                want, got = outcome(eigensolved, pts, n), outcome(band_sums, pts, n)
                assert type(want) is error
                # one point: the same block; in the pass, the full zone's
                # block L + j of point 1 is L // 2 + 1 + j on the half zone
                assert (type(got), str(got), got.block) == half_zone_error(want, L)
                if len(pts) == 1:
                    assert str(got) == str(want) and got.block == want.block

    def test_first_failing_point_raises(self):
        # point 0 fails the eigenvector condition at block 2; point 1's grid
        # check fails at its first block (reported at its smallest |eps|, block
        # 5 = 1 * (L // 2 + 1) + 2 of the half zones), later in the pass,
        # though the grid check runs first
        points = [SSHParams(1e9 + 0.5, 1e9 - 0.5, 4), SSHParams(1.5, 0.5, 4)]
        for route in (band_sums, eigensolved):
            with pytest.raises(NearDefective, match="block 2: eigenvector condition") as info:
                route(points, 0, ["eta"])
            assert info.value.block == 2
        with pytest.raises(CriticalKPoint) as info:
            band_sums(points[::-1], 0, ["eta"])
        assert info.value.block == 2

    def test_overflowing_block_raises(self):
        # |a b| overflows, as the eigensolver's quadratic does (and the grid
        # check's eps(k), which finds no zero)
        p = SSHParams(1e160, 0.5, 8)
        with np.errstate(over="ignore", invalid="ignore"):
            assert type(outcome(eigensolved, [p], 0)) is NonConvergence
            for kinds in (["eta"], ["zeta_limited"], ["zeta_limited_rescaled"]):
                with pytest.raises(NonConvergence, match="block 0: band summand is not finite"):
                    band_sums([p], 0, kinds)

    def test_no_points(self):
        # the kinds are checked, and no point gives empty sums
        sums = band_sums([], 0, ["zeta", "eta"])
        assert list(sums) == ["zeta", "eta"]
        assert all(v.shape == (0, 2, 2) and v.dtype == complex for v in sums.values())
        with pytest.raises(ValueError, match="does not provide"):
            band_sums([], 0, ["bures"])

    @settings(max_examples=100, deadline=None)
    @given(points=passes())
    def test_bands_agree(self, points):
        bands = [outcome(band_sums, points, n) for n in (0, 1)]
        if not isinstance(bands[0], Exception):
            for kind in STATE_KINDS:
                assert bands[1][kind].tobytes() == bands[0][kind].tobytes()


class TestHalfZone:
    """band_sums reads the momenta 2 pi j / L for j = 0..L // 2 only and sums
    Re w_j t_j (w_j = 1 at k = 0 and pi, else 2); the full-zone sum of the
    same summands (:func:`conftest.full_band_sums`) is its oracle."""

    def test_hoppings_obey_the_rule(self, rng):
        # a(-k) = conj a(k) and b(-k) = conj b(k) for real t and delta: each
        # summand at -k is the conjugate of its value at k
        ks = rng.uniform(-4 * np.pi, 4 * np.pi, 64)
        for t, delta in rng.uniform(-3.0, 3.0, (8, 2)):
            a, b = _hoppings(t, delta, ks)
            am, bm = _hoppings(t, delta, -ks)
            assert maxdev(am, a.conj()) <= 1e-15 * np.abs(a).max()
            assert maxdev(bm, b.conj()) <= 1e-15 * np.abs(b).max()

    @staticmethod
    def compare(points, n):
        """The half-zone sums of every kind at ``points`` against the full zone's."""
        got = zone_outcomes(band_sums, points, n, BAND_KINDS)
        assert_matches_full_zone(
            got, lambda how: zone_outcomes(full_band_sums, points, n, BAND_KINDS, how))
        return got

    @settings(max_examples=300, deadline=None)
    @given(points=passes(st.sampled_from(HALF_ZONE_LENGTHS)), n=st.integers(0, 1))
    def test_matches_the_full_zone(self, points, n):
        # the landing axes put |t -+ delta| = 1 on the gap closings
        self.compare(points, n)

    @pytest.mark.parametrize("t, delta, L, error", ENGINE_VERDICTS)
    def test_engine_verdicts_in_a_pass(self, t, delta, L, error):
        points = [SSHParams(0.3, 0.2, L), SSHParams(t, delta, L), SSHParams(0.7, -0.4, L)]
        for n in (0, 1):
            assert type(self.compare(points, n)[1]) is error


class TestOneBandFunction:
    """The grid check and the summands of every kind read ``eps = a b`` of
    the pass's Bloch off-diagonals, which does not cancel near a gap closing
    or at large |t| as ``1 + t^2 - delta^2 + 2t cos k - 2i delta sin k`` did."""

    @staticmethod
    def extended_zeta(p):
        """The ``zeta`` sum on the double k-grid of ``p``, in extended precision."""
        k = p.k_grid.astype(np.clongdouble)
        t, delta = np.longdouble(p.t), np.longdouble(p.delta)
        a, b = t - delta + np.exp(-1j * k), t + delta + np.exp(1j * k)
        x = np.array([a - b, a + b]) / (4 * a * b)
        return (x.conj()[:, None] * x).real.sum(axis=-1)

    @pytest.mark.skipif(np.finfo(np.longdouble).precision < 18,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("t, delta", [(1.0, -3e-6), (1.0, -1e-5), (1.5 - 1e-6, 0.5)])
    def test_zeta_near_a_gap_closing(self, t, delta):
        # the expanded band function was off by 2.0e-5, 1.7e-7 and 2.7e-10
        p = SSHParams(t, delta, 8)
        ref = self.extended_zeta(p)
        dev = np.abs(zeta_finite_sum(p).values - ref.astype(float)).max()
        assert dev <= 1e-10 * float(np.abs(ref).max())

    def test_gap_closing_at_large_hopping(self):
        # t - delta = -1: the k = 0 block is exactly [[0, 0], [2000002.6, 0]],
        # where the expanded band function rounded to |eps| = 2.4e-5
        p = SSHParams(1e6 + 0.3, 1e6 + 1.3, 4)
        assert _bloch(p.t, p.delta, 0.0)[0, 1] == 0 and eps(p.t, p.delta, 0.0) == 0
        with pytest.raises(CriticalKPoint) as info:
            zeta_finite_sum(p)
        assert info.value.block == 0

    @pytest.mark.parametrize("t", [1e159, 1e160])
    def test_overflowing_band_function_raises(self, t):
        # the zeta sums were NaN and 0; under -W error eps itself raised
        with np.errstate(all="raise"):
            assert np.isinf(eps(t, 0.5, 0.0))
            with pytest.raises(NonConvergence, match="block 0: band summand is not finite"):
                zeta_finite_sum(SSHParams(t, 0.5, 8))

    def test_scalar_k_as_in_an_array(self):
        # numpy's complex multiply rounds 28 of these 64 entries differently
        p = SSHParams(0.5, 0.3, 64)
        one_by_one = np.array([eps(p.t, p.delta, k) for k in p.k_grid])
        assert one_by_one.tobytes() == eps(p.t, p.delta, p.k_grid).tobytes()

    def test_zeta_is_the_real_part_of_the_rescaled_sum(self):
        p = SSHParams(0.9, 0.5, 64)
        sums = band_sums([p], 0, ["zeta", "zeta_limited_rescaled"])
        assert np.array_equal(sums["zeta"], sums["zeta_limited_rescaled"].real + 0j)


class TestClassifyPhase:
    @pytest.mark.parametrize(
        "t,d,expect",
        [(0.0, 0.0, ("-", "-")), (2.0, 0.0, ("+", "+")), (0.9, 0.5, ("-", "+")),
         (0.9, -0.5, ("+", "-"))],
    )
    def test_regions(self, t, d, expect):
        assert classify_phase(t, d).astuple() == expect

    def test_critical_line_rejected(self):
        with pytest.raises(OnCriticalLine):
            classify_phase(0.5, 0.5)


class TestFiniteSum:
    def test_symmetric_point_exact(self):
        for L in (8, 64, 257):
            z = zeta_finite_sum(SSHParams(0.0, 0.0, L)).values
            assert abs(z[0, 0] - L / 8) < 1e-12 * L
            assert abs(z[1, 1] - L / 8) < 1e-12 * L
            assert abs(z[0, 1]) < 1e-13 * L

    def test_matches_thermodynamic(self):
        z = zeta_finite_sum(SSHParams(0.5, 0.3, 4096)).values / 4096
        th = zeta_thermodynamic(0.5, 0.3).values
        assert maxdev(z, th) < 0.005 * np.abs(th).max()

    def test_matches_generic_engine(self):
        p = SSHParams(0.7, 0.4, 8)
        total = sum(
            zeta_tensor(bloch_family(p, k), [p.t, p.delta], 0).values for k in p.k_grid
        )
        assert maxdev(total, zeta_finite_sum(p).values) <= 1e-8

    def test_critical_k_point(self):
        with pytest.raises(CriticalKPoint):
            zeta_finite_sum(SSHParams(1.0, 0.0, 8))  # eps(pi) = 0 on the grid

    def test_summand_vs_generic_per_k(self, rng):
        for _ in range(10):
            t, d = rng.uniform(0, 2), rng.uniform(-1, 1)
            if min(abs(abs(t - d) - 1), abs(abs(t + d) - 1)) < 0.05:
                continue
            k = rng.uniform(0.1, np.pi - 0.1)
            p = SSHParams(t, d, 4)
            zp = zeta_tensor(bloch_family(p, k), [t, d], 0).values
            zm = zeta_tensor(bloch_family(p, -k), [t, d], 0).values
            s = zeta_summand(t, d, k)
            # diagonal matches per k; the odd-in-k imaginary off-diagonal part
            # cancels pairwise
            assert maxdev(np.diag(zp).real, np.diag(s)) <= 1e-8
            assert maxdev((zp + zm) / 2, s) <= 1e-8


class TestThermodynamic:
    def test_symmetric_point_equals_sum_exactly(self):
        th = zeta_thermodynamic(0.0, 0.0).values
        z = zeta_finite_sum(SSHParams(0.0, 0.0, 64)).values / 64
        assert maxdev(th, z) < 1e-12
        assert abs(th[0, 0] - 0.125) < 1e-15

    def test_divergence_toward_critical_line(self):
        vals = [zeta_thermodynamic(t, 0.2).values[0, 0].real for t in (0.7, 0.75, 0.79)]
        assert vals[0] < vals[1] < vals[2]

    def test_plus_plus_phase_matches_big_sum(self):
        th = zeta_thermodynamic(2.0, 0.5).values
        z = zeta_finite_sum(SSHParams(2.0, 0.5, 8192)).values / 8192
        assert maxdev(z, th) < 0.005 * np.abs(th).max()

    def test_phase_function_poles_unreachable(self):
        # poles of the phase-dependent part (delta = 0 or delta = -+t) always
        # lie outside the phases that carry it: (+,+) at delta = 0 is regular
        th = zeta_thermodynamic(2.0, 0.0).values
        fs = zeta_finite_sum(SSHParams(2.0, 0.0, 8192)).values / 8192
        assert maxdev(th, fs) < 1e-12
        for t in np.linspace(-3, 3, 61):
            for d in np.linspace(-3, 3, 61):
                try:
                    zeta_thermodynamic(t, d)
                except OnCriticalLine:
                    pass
                except FSingular:  # pragma: no cover - defensive guard only
                    pytest.fail(f"unexpected pole hit at ({t}, {d})")

    def test_on_critical_line(self):
        with pytest.raises(OnCriticalLine):
            zeta_thermodynamic(1.0, 0.0)


class TestEigenstates:
    def test_symmetric_point(self):
        (rp, _), _ = ssh_eigenstates(SSHParams(0.0, 0.0, 4), 0.0)
        assert maxdev(rp, np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-12

    def test_hermitian_left_equals_right(self):
        (rp, rm), (lp, lm) = ssh_eigenstates(SSHParams(0.6, 0.0, 4), 0.9)
        assert maxdev(rp, lp) < 1e-12
        assert maxdev(rm, lm) < 1e-12

    def test_generic_point_residual_and_biorthonormality(self, rng):
        for _ in range(10):
            p = SSHParams(rng.uniform(0, 2), rng.uniform(-1, 1), 4)
            k = rng.uniform(0, 2 * np.pi)
            if abs(eps(p.t, p.delta, k)) < 1e-3:
                continue
            h = bloch(p, k)
            se = np.sqrt(eps(p.t, p.delta, k))
            (rp, rm), (lp, lm) = ssh_eigenstates(p, k)
            assert np.linalg.norm(h @ rp - se * rp) < 1e-10
            assert np.linalg.norm(h @ rm + se * rm) < 1e-10
            assert abs(lp.conj() @ rp - 1) < 1e-10
            assert abs(lm.conj() @ rm - 1) < 1e-10
            assert abs(lp.conj() @ rm) < 1e-10

    def test_critical_k_rejected(self):
        with pytest.raises(CriticalKPoint):
            ssh_eigenstates(SSHParams(1.0, 0.0, 4), np.pi)


class TestInvariants:
    def test_euclidean_signature(self, rng):
        for _ in range(10):
            t, d = rng.uniform(0, 2), rng.uniform(-1, 1)
            if min(abs(abs(t - d) - 1), abs(abs(t + d) - 1)) < 0.05:
                continue
            z = zeta_finite_sum(SSHParams(t, d, 128)).values.real
            assert np.all(np.linalg.eigvalsh((z + z.T) / 2) > 0)

    def test_delta_parity(self, rng):
        for _ in range(5):
            t, d = rng.uniform(0, 2), rng.uniform(0.05, 0.9)
            if min(abs(abs(t - d) - 1), abs(abs(t + d) - 1)) < 0.05:
                continue
            zp = zeta_finite_sum(SSHParams(t, d, 64)).values
            zm = zeta_finite_sum(SSHParams(t, -d, 64)).values
            assert abs(zp[0, 0] - zm[0, 0]) <= 1e-10 * abs(zp[0, 0])
            assert abs(zp[1, 1] - zm[1, 1]) <= 1e-10 * abs(zp[1, 1])
            assert abs(zp[0, 1] + zm[0, 1]) <= 1e-10 * max(1.0, abs(zp[0, 1]))

    def test_rescaled_limited_equals_zeta_per_k(self, rng):
        k = 0.73
        for _ in range(8):
            t, d = rng.uniform(0.1, 1.9), rng.uniform(-0.85, 0.85)
            if min(abs(abs(t - d) - 1), abs(abs(t + d) - 1)) < 0.05:
                continue
            fam = bloch_family(SSHParams(t, d, 4), k)
            st = stencil_tensors(fam, [t, d], 0, ["zeta", "zeta_limited_rescaled"])
            assert maxdev(st["zeta"].values, st["zeta_limited_rescaled"].values) <= 1e-9

    def test_peak_growth_under_grid_refinement(self):
        peaks = []
        for L in (256, 512, 1024):
            tg = 1.5 + np.arange(-8, 9) * (2.56 / L)
            best = -np.inf
            for t in tg:
                try:
                    best = max(best, zeta_finite_sum(SSHParams(t, 0.5, L)).values[0, 0].real / L)
                except CriticalKPoint:
                    pass
            peaks.append(best)
        assert peaks[0] < peaks[1] < peaks[2]
