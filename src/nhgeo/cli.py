"""Command line front end: point evaluations, parameter sweeps, spectra and
the self-verification suite.

Output is CSV/JSON only; plotting is left to external tools.  Sweep points
that hit a singular configuration are recorded as NaN rows tagged with the
error name instead of aborting: the singular lines are usually exactly what
a sweep is looking for.

Every model adapter declares its ``name``, tensor ``kinds``, component
``directions``, ``defaults`` (each settable parameter, typed by its default),
the ``sweepable`` ones and ``states``, the number of eigenstates ``--state``
may name (None for a steady-state model, whose one state is ``ness``).
``tensors(points, kinds, n, mu_reg)`` (``n`` the state index) evaluates at
``params(values)`` for each ``values`` of the list ``points`` and returns one
result per point: a dict of tensors, or the error that point gets when it is
evaluated alone.  ``spectrum(values)`` evaluates at one point.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import click
import numpy as np

from . import __version__
from .errors import NhgeoError, NonConvergence, ShapeMismatch
from .kitaev import WEAK_KINDS, DissipativeKitaevModel, KitaevParams, weak_coupling_sums
from .biortho import build_biortho
from .linalg import (
    _raise_first,
    as_square,
    complex_pairs,
    eig_general,
    flagged_blocks,
    load_json,
    load_matrix,
    matrix_from_json,
)
from .liouville import (
    NESS_KINDS,
    LiouvillianFamily,
    _hamiltonian_matrix,
    bath_matrix,
    build_liouvillian,
    ness_tensors,
    zeta_ness_k_sums,
)
from .ssh import SSHParams, band_sums, eps
from .tensors import (
    SOS_KINDS,
    OperatorFamily,
    _finite,
    _mu_reg,
    chi_hermitian,
    sum_over_states,
)

# ---------------------------------------------------------------------------
# model adapters
# ---------------------------------------------------------------------------

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

#: half-zone momentum blocks per shared Brillouin-zone pass: a pass joins
#: whole points of one key (:func:`_in_passes`), L // 2 + 1 blocks each, up
#: to this many, and is read and solved once, so per-call overhead favours
#: large passes and peak memory small ones (a strong-coupling block holds
#: about 1.7 kB at the peak of its pass).  In process on a 2-core host, at
#: 512 / 1026 / 2048: 20 nh-ssh points at L = 64 make 2 / 1 / 1 passes, 1.43
#: / 1.29 / 1.27 ms; 21 strong-coupling Kitaev points at L = 128 make 3 / 2 /
#: 1 passes, 3.8-5.2 / 4.3 / 4.0-4.3 ms (15 s benchmark runs read 0.5-0.8 MB
#: more peak memory at 2048); a 41x41 nh-ssh grid at L = 1024 makes 1681 at
#: 1024 / 841 / 561 passes, 0.35-0.66 / 0.21-0.43 / 0.21-0.35 s, 37.7 MB.
PASS_BLOCKS = 1026


def _one_result(evaluate, points):
    """``evaluate(points)`` as a list with one result per point: a dict of
    arrays, or the NhgeoError the point raises when it is evaluated alone.

    The pass runs once, for one point or many, its blockwise checks recording
    the failing blocks (:func:`~nhgeo.linalg.flagged_blocks`), and that
    record decides every row: a failing point takes its error from it, any
    other its result.  An error that the pass raises without a block is, in
    a one-point pass, the recorded error if any, else the raised one (as
    :func:`~nhgeo.linalg.lowest_failing_block` gives it); in a larger pass
    it sends every point through alone.  So every point gets the result it
    gets alone, error class, message and block included.  A raised error
    drops its traceback and context, which would keep its pass's arrays.
    """
    with flagged_blocks() as flags:
        try:
            results = evaluate(points)
        except NhgeoError as exc:
            if len(points) > 1:
                results = None
            else:
                results = [exc.with_traceback(None)]
                results[0].__context__ = None
    if results is None:
        return [r for p in points for r in _one_result(evaluate, [p])]
    return [exc or r for r, exc in zip(results, flags.errors(len(points)))]


def _each(evaluate, points):
    """``evaluate(values)`` at each of ``points``, each a one-point pass of
    :func:`_one_result`: a point's NhgeoError is its result."""
    return [r for values in points for r in _one_result(lambda ps: [evaluate(ps[0])], [values])]


def _in_passes(evaluate, points, key):
    """:func:`_one_result` over passes of ``points`` (parameter objects with a
    chain length ``L``), with the results in the order of ``points``: the
    points of one ``key(p)``, wherever they sit in the grid, share passes of
    at most ``PASS_BLOCKS`` half-zone blocks, ``L // 2 + 1`` per point, in
    grid order (a point with more is a pass of its own)."""
    passes, out = {}, {}
    for i, p in enumerate(points):
        passes.setdefault(key(p), []).append(i)
    for at in passes.values():
        size = max(1, PASS_BLOCKS // (points[at[0]].L // 2 + 1))
        for run in (at[j:j + size] for j in range(0, len(at), size)):
            out.update(zip(run, _one_result(evaluate, [points[i] for i in run])))
    return [out[i] for i in range(len(points))]


class _LatticeModel:
    """A built-in model: ``params`` builds ``param_type``, which checks every
    value, from ``defaults`` and the values that :func:`_typed` typed."""

    def __init__(self, **files):  # a built-in model reads no file
        pass

    def params(self, values: dict):
        try:
            return self.param_type(**{**self.defaults, **values})
        except (TypeError, ValueError) as exc:
            raise click.UsageError(f"invalid parameters: {exc}") from None


class SSHAdapter(_LatticeModel):
    name = "nh-ssh"
    param_type = SSHParams
    directions = ("t", "delta")
    defaults = {"t": 0.0, "delta": 0.0, "L": 64}
    sweepable = ("t", "delta")
    states = 2  # the two bands, for every kind
    kinds = ("zeta", "eta", "zeta_limited", "zeta_limited_rescaled")

    def tensors(self, points, kinds, n, mu_reg) -> list:
        """Every kind at every point from shared passes of :func:`~nhgeo.ssh.band_sums`
        (:func:`_in_passes`), in closed form with no eigensolve; a failing
        point's error is that of the first check it fails, whatever kind
        comes first."""
        def evaluate(ps):
            sums = band_sums(ps, n, kinds)
            return [{kind: v[i] for kind, v in sums.items()} for i in range(len(ps))]

        return _in_passes(evaluate, [self.params(values) for values in points], lambda p: p.L)

    def spectrum(self, values) -> dict:
        p = self.params(values)
        se = np.sqrt(eps(p.t, p.delta, p.k_grid))
        _raise_first(~np.isfinite(se), NonConvergence, lambda i: "band value is not finite")
        pairs = np.stack([se, -se], axis=-1).tolist()  # (+sqrt(eps), -sqrt(eps)) per k
        bands = [{"k": float(k), "values": [_c(z) for z in pair]}
                 for k, pair in zip(p.k_grid, pairs)]
        flat = sorted((z for pair in pairs for z in pair), key=lambda z: (z.real, z.imag))
        return {"per_k": bands, "sorted": [_c(z) for z in flat]}


class KitaevAdapter(_LatticeModel):
    name = "kitaev-dissipative"
    param_type = KitaevParams
    directions = ("h", "gamma")
    defaults = {
        "h": 0.0, "gamma": 1.0, "g": 0.1, "mu_plus": 1.0, "mu_minus": 0.6,
        "L": 64, "weak_coupling": True,
    }
    sweepable = ("h", "gamma", "g", "mu_plus", "mu_minus")
    states = None  # the steady state
    kinds = WEAK_KINDS

    def tensors(self, points, kinds, n, mu_reg) -> list:
        """Shared passes (:func:`_in_passes`): at weak coupling of
        :func:`~nhgeo.kitaev.weak_coupling_sums`, per L; at strong coupling
        (``zeta`` only) of :func:`~nhgeo.liouville.zeta_ness_k_sums`, per bath
        and L, on one model.  Any parameter may vary, wherever in the grid."""
        params = [self.params(values) for values in points]
        if set(kinds) - {"zeta"} and not all(p.weak_coupling for p in params):  # checked first
            raise click.UsageError(
                "kitaev-dissipative provides only zeta without weak_coupling")

        def evaluate(ps):
            p = ps[0]
            if p.weak_coupling:
                sums = weak_coupling_sums(ps, kinds)
                return [{kind: v[i] for kind, v in sums.items()} for i in range(len(ps))]
            model = DissipativeKitaevModel(p.g, p.mu_plus, p.mu_minus)
            return [{"zeta": z} for z in zeta_ness_k_sums(model, [[q.h, q.gamma] for q in ps], p.L)]

        return _in_passes(evaluate, params, lambda p: p.L if p.weak_coupling
                          else (p.L, p.g, p.mu_plus, p.mu_minus))  # the bath and L

    def spectrum(self, values) -> dict:
        """The rapidities of x(k) on the grid; NonConvergence at the first non-finite block."""
        p = self.params(values)
        model = DissipativeKitaevModel(p.g, p.mu_plus, p.mu_minus)
        x = model.x_block(p.k_grid, [p.h, p.gamma])
        _raise_first(~np.isfinite(x).all(axis=(-2, -1)), NonConvergence,
                     lambda i: "rapidity block is not finite")
        xs = np.linalg.eigvals(x)
        return _rapidity_summary(sorted(xs.ravel().tolist(), key=lambda z: (z.real, z.imag)))


class _FileFamily:
    """A dense family ``base + sum_mu lam_mu parts[mu]`` read from matrix files,
    whose directions ``lam0, lam1, ...`` are parameters with default 0.  The
    last decomposition built is kept, so one eigensolve serves ``tensors`` and
    ``spectrum`` at a point."""

    part_option: str  # the option that names the direction files
    sweepable = ()

    def __init__(self, base, parts):
        if any(m.shape != base.shape for m in parts):
            raise click.UsageError("direction matrices must match the base shape")
        self.base, self.parts = base, parts
        self.directions = tuple(f"lam{i}" for i in range(len(parts)))
        self.defaults = dict.fromkeys(self.directions, 0.0)
        self._last = None  # (lam, decomposition)

    def params(self, values: dict) -> np.ndarray:
        p = {**self.defaults, **values}
        for name in self.directions:  # exit 2, not 3 on the non-finite matrix it makes
            _usage(_finite, name, p[name])
        return np.array([float(p[name]) for name in self.directions])

    def point(self, values: dict) -> np.ndarray:
        """``params(values)`` for a tensor evaluation, which needs a direction."""
        if not self.parts:
            raise click.UsageError(f"tensor evaluation needs at least one {self.part_option}")
        return self.params(values)

    def matrix(self, lam) -> np.ndarray:
        return self.base + sum(lam[m] * self.parts[m] for m in range(len(self.parts)))

    def decomposition(self, lam, build):
        """``build()``, or what it returned last if that was at this ``lam``."""
        if self._last is None or not np.array_equal(self._last[0], lam):
            self._last = (lam, build())
        return self._last[1]


class QuadLiouvilleAdapter(_FileFamily):
    """Matrix-file driven quadratic generator: H(lam) = H0 + sum lam_mu dH_mu."""

    name = "quad-liouville"
    part_option = "--dhmat-files"
    states = None  # the steady state
    kinds = NESS_KINDS

    def __init__(self, hmat_file=None, bath_file=None, dhmat_files=(), **files):
        if hmat_file is None or bath_file is None:
            raise click.UsageError("model quad-liouville needs --hmat-file and --bath-file")
        # every shape is checked here, so malformed input exits 2 before any evaluation
        H0 = as_square(load_matrix(hmat_file), hmat_file)
        super().__init__(H0, [load_matrix(f) for f in dhmat_files])
        if H0.shape[0] % 2:
            raise click.UsageError("H matrix dimension must be even (2n)")
        self.n = H0.shape[0] // 2
        self.M = _load_bath(bath_file, H0.shape[0])

    def family(self) -> LiouvillianFamily:
        def make(lam):
            return build_liouvillian(self.n, self.matrix(lam), M=self.M)

        def dxy(mu, lam):  # X = 4i H + 2 Re M and Y = -4i Im M, the bath fixed
            dH = _hamiltonian_matrix(self.n, self.parts[mu])
            return 4j * dH, np.zeros_like(dH)

        return LiouvillianFamily(self.n, len(self.parts), make, dxy, name=self.name)

    def tensors(self, points, kinds, n, mu_reg) -> list:
        def evaluate(values):
            lam = self.point(values)
            fam = self.family()
            # one eigensolve serves every kind and the spectrum
            dec = self.decomposition(lam, lambda: eig_general(fam(lam).X))
            return {kind: t.values for kind, t in ness_tensors(fam, lam, kinds, dec=dec).items()}

        return _each(evaluate, points)

    def spectrum(self, values) -> dict:
        lam = self.params(values)
        dec = self.decomposition(lam, lambda: eig_general(self.family()(lam).X))
        return _rapidity_summary(dec.eigenvalues)


class MatrixFamilyAdapter(_FileFamily):
    """Generic dense family K(lam) = K0 + sum lam_mu dK_mu."""

    name = "matrix-file"
    part_option = "--param-files"
    kinds = ("chi", *SOS_KINDS)

    def __init__(self, matrix_file=None, param_files=(), **files):
        if matrix_file is None:
            raise click.UsageError("model matrix-file needs --matrix-file")
        K0 = as_square(load_matrix(matrix_file), matrix_file)
        super().__init__(K0, [as_square(load_matrix(f), f) for f in param_files])
        self.states = K0.shape[0]

    def family(self) -> OperatorFamily:  # built per call: a family kept on self is a cycle
        return OperatorFamily(self.base.shape[0], len(self.parts), self.matrix,
                              lambda mu, lam: self.parts[mu], name=self.name)

    def tensors(self, points, kinds, n, mu_reg) -> list:
        sos_kinds = [k for k in kinds if k != "chi"]

        def evaluate(values):
            lam = self.point(values)
            fam = self.family()
            out = {}
            if sos_kinds:  # one eigensolve serves every non-Hermitian kind and the spectrum
                eigsys = build_biortho(self.decomposition(lam, lambda: eig_general(fam(lam))))
                sos = sum_over_states(fam, lam, n, sos_kinds, mu_reg=mu_reg, sys=eigsys)
                out = {kind: t.values for kind, t in sos.items()}
            if "chi" in kinds:
                out["chi"] = chi_hermitian(fam, lam, n).values
            return {kind: out[kind] for kind in kinds}

        return _each(evaluate, points)

    def spectrum(self, values) -> dict:
        lam = self.params(values)
        dec = self.decomposition(lam, lambda: eig_general(self.matrix(lam)))
        return {
            "eigenvalues": [_c(z) for z in dec.eigenvalues],
            "condition": dec.condition if np.isfinite(dec.condition) else None,  # defective
            "diagonalizable": dec.is_diagonalizable_estimate,
        }


#: every model, by name; ``--matrix-file`` selects ``matrix-file``
MODELS = {cls.name: cls for cls in
          (SSHAdapter, KitaevAdapter, QuadLiouvilleAdapter, MatrixFamilyAdapter)}


def _c(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _rapidity_summary(xs) -> dict:
    """The rapidities ``xs``, their smallest real part and whether it exceeds 1e-12."""
    min_re = float(min(z.real for z in xs))
    return {"rapidities": [_c(z) for z in xs], "min_re": min_re,
            "unique_steady_state": min_re > 1e-12}


def _load_bath(path, dim: int) -> np.ndarray:
    """The ``dim x dim`` bath matrix in ``path``, stored as a matrix or as
    jump vectors ``{"vectors": [[[re, im], ...], ...]}``; ShapeMismatch for
    any other shape."""
    obj = load_json(path)
    if isinstance(obj, dict) and "vectors" in obj:
        if not isinstance(obj["vectors"], list):
            raise ShapeMismatch("bath vectors must be a list of vectors")
        return bath_matrix([complex_pairs(v, "bath vector") for v in obj["vectors"]], dim)
    M = as_square(matrix_from_json(obj), path)
    if M.shape[0] != dim:
        raise ShapeMismatch(f"bath matrix must be {dim}x{dim} as H is, got {M.shape[0]}x{M.shape[0]}")
    return M


def _typed(name, value, defaults: dict):
    """``value`` of the parameter ``name``, of its default's type.  A string
    parses as ``--set`` gives it; any other value (from a config's JSON) must
    already be of that type (an integer also serves a float parameter).  An
    unknown ``name`` or any other value exits 2."""
    if name not in defaults:
        raise click.UsageError(
            f"unknown parameter {name!r}; known: {', '.join(defaults) or 'none'}")
    kind = type(defaults[name])
    if isinstance(value, str):
        try:
            value = _BOOLS[value.strip().lower()] if kind is bool else kind(value)
        except (KeyError, ValueError):
            raise click.UsageError(f"{name}={value}: expected {kind.__name__}") from None
    elif not (type(value) is kind or (kind is float and type(value) is int)):
        raise click.UsageError(f"{name}={value!r}: expected {kind.__name__}")
    return value


def _usage(check, *args):
    """``check(*args)``; its ValueError exits 2 (naming the option in a callback)."""
    try:
        return check(*args)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


def _mu_reg_flag(ctx, param, value):
    """``--mu-reg`` (None when unset), checked by :func:`~nhgeo.tensors._mu_reg`."""
    return value if value is None else _usage(_mu_reg, value)


def _parse_sets(sets, defaults: dict) -> dict:
    """``--set name=value`` items, typed by :func:`_typed`."""
    out = {}
    for item in sets:
        name, eq, raw = (part.strip() for part in item.partition("="))
        if not eq:
            raise click.UsageError(f"--set expects name=value, got {item!r}")
        out[name] = _typed(name, raw, defaults)
    return out


def _parse_kinds(tensors, adapter) -> list:
    """Tensor kinds from a comma-separated string or a list of names; each one
    must be among ``adapter.kinds`` and none may repeat."""
    if not isinstance(tensors, (str, list)):
        raise click.UsageError("tensors must be a comma-separated string or a list")
    names = tensors.split(",") if isinstance(tensors, str) else tensors
    kinds = [str(k).strip() for k in names if str(k).strip()]
    for i, k in enumerate(kinds):
        if k not in adapter.kinds:
            raise click.UsageError(f"model {adapter.name} does not provide tensor {k!r}; "
                                   f"available: {', '.join(adapter.kinds)}")
        if k in kinds[:i]:
            raise click.UsageError(f"tensor kind {k!r} requested twice")
    return kinds


def _state_index(state, adapter) -> int:
    """Eigenstate index of ``--state``; 0 when unset.  A steady-state model
    (``states`` None) takes only 'ness', an eigenstate model only an integer
    (a config's JSON integer, or a string that parses as one): anything else
    exits 2.  ShapeMismatch for an index outside the adapter's ``states``."""
    if state is None:
        return 0
    if adapter.states is None:
        if state != "ness":
            raise click.UsageError(
                f"model {adapter.name} has one state, its steady state: --state takes "
                f"only 'ness', got {state!r}")
        return 0
    try:
        if type(state) not in (int, str):  # a float or a boolean from a config
            raise TypeError
        n = int(state)
    except (TypeError, ValueError):
        raise click.UsageError(
            f"model {adapter.name} needs an eigenstate index for --state, got {state!r}"
        ) from None
    if not 0 <= n < adapter.states:
        raise ShapeMismatch(f"state index {n} out of range for dim {adapter.states}")
    return n


def _make_adapter(model, files: dict):
    """The adapter of ``model`` (``matrix-file`` whenever ``--matrix-file`` is
    given); an unknown model or an unreadable or malformed input file exits 2."""
    if files["matrix_file"] is not None:
        model = MatrixFamilyAdapter.name
    if model not in MODELS:
        raise click.UsageError(f"pass --matrix-file or --model, one of: {', '.join(MODELS)} "
                               f"(got {model!r})")
    try:
        return MODELS[model](**files)
    except (NhgeoError, OSError) as exc:
        raise click.UsageError(f"{type(exc).__name__}: {exc}") from None


def _echo_json(payload: dict) -> None:
    """``payload`` on stdout as strict JSON: a NaN or infinity is an error."""
    click.echo(json.dumps(payload, indent=2, allow_nan=False))


#: the input-file options of ``tensor`` and ``spectrum``, and whether each repeats
_FILE_OPTIONS = {"matrix_file": False, "param_files": True, "hmat_file": False,
                 "bath_file": False, "dhmat_files": True}


@contextlib.contextmanager
def _failures_exit_3():
    """A numerical failure (NhgeoError) inside exits 3, with its class and message."""
    try:
        yield
    except NhgeoError as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        sys.exit(3)


def _model_command(command):
    """The model-selection options of ``tensor`` and ``spectrum``: ``command``
    receives the adapter and its ``--set`` values, and a numerical failure
    (NhgeoError) in it exits 3."""
    @functools.wraps(command)
    def run(model, sets, **options):
        adapter = _make_adapter(model, {name: options.pop(name) for name in _FILE_OPTIONS})
        values = _parse_sets(sets, adapter.defaults)
        with _failures_exit_3():
            command(adapter, values, **options)

    for name, repeats in reversed(_FILE_OPTIONS.items()):
        run = click.option("--" + name.replace("_", "-"), multiple=repeats,
                           type=click.Path(exists=True))(run)
    run = click.option("--set", "sets", multiple=True, help="parameter assignment name=value")(run)
    return click.option("--model", default=None, help="model name: " + ", ".join(MODELS))(run)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(__version__, prog_name="nhgeo")
def main():
    """Geometric response tensors for non-Hermitian operator families."""


@main.command("tensor")
@_model_command
@click.option("--tensors", default="zeta", help="comma-separated tensor kinds")
@click.option("--state", default=None, help="eigenstate index or 'ness'")
@click.option("--mu-reg", type=float, default=0.0, callback=_mu_reg_flag,
              help="regularization cutoff of zeta (>= 0)")
def cmd_tensor(adapter, values, tensors, state, mu_reg):
    """Evaluate tensors at a single parameter point; JSON to stdout."""
    kinds = _parse_kinds(tensors, adapter)
    mats, = adapter.tensors([values], kinds, _state_index(state, adapter), mu_reg)
    if isinstance(mats, Exception):
        raise mats
    _echo_json({
        "model": adapter.name,
        "params": values,
        "state": state,
        "tensors": {kind: {"directions": list(adapter.directions),
                           "components": [[_c(z) for z in row] for row in mat]}
                    for kind, mat in mats.items()},
        "eigenvalue_summary": adapter.spectrum(values),
        "metadata": {"version": __version__, "mu_reg": mu_reg},
    })


@main.command("spectrum")
@_model_command
def cmd_spectrum(adapter, values):
    """Eigenvalue / relaxation-rate summary; JSON to stdout."""
    _echo_json({"model": adapter.name, "spectrum": adapter.spectrum(values)})


def _load_config(path) -> dict:
    """The ``--config`` scan specification: a readable JSON object whose
    ``params`` (when given) is an object and ``axes`` a list; anything else exits 2."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"cannot read config {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise click.UsageError(f"config {path} is not JSON: {exc}") from None
    if not (isinstance(spec, dict) and isinstance(spec.get("params", {}), dict)
            and isinstance(spec.get("axes", []), list)):
        raise click.UsageError(f"config {path} is not an object with object 'params', list 'axes'")
    return spec


def _axis_flag(text: str) -> dict:
    """``--axis name:min:max:steps`` as an axis specification."""
    try:
        name, lo, hi, steps = text.split(":")
        axis = {"name": name, "min": float(lo), "max": float(hi), "steps": int(steps)}
        if not np.isfinite([axis["min"], axis["max"]]).all():
            raise ValueError
        return axis
    except ValueError:
        raise click.UsageError(
            f"--axis expects name:min:max:steps, min and max finite, got {text!r}") from None


def _axis_points(axis) -> np.ndarray:
    """The grid of an axis ``{"name", "min", "max", "steps"}``; a malformed one exits 2."""
    try:
        steps = int(axis["steps"])
        if steps != float(axis["steps"]) or "name" not in axis:
            raise ValueError
        lo, hi = float(axis["min"]), float(axis["max"])
        if not np.isfinite([lo, hi]).all():
            raise ValueError
    except (KeyError, TypeError, ValueError):
        raise click.UsageError(
            f"axis {axis!r} needs a name, finite numbers min and max and an integer steps"
        ) from None
    if steps < 2:
        raise click.UsageError("axis steps must be >= 2")
    if not np.isfinite(hi - lo):  # linspace would turn the overflow into NaN points
        raise click.UsageError(f"axis {axis['name']!r}: max - min overflows the float range")
    return np.linspace(lo, hi, steps)


@main.command("sweep")
@click.option("--config", default=None, type=click.Path(exists=True),
              help="JSON scan specification")
@click.option("--model", default=None)
@click.option("--set", "sets", multiple=True)
@click.option("--axis", "axes_opt", multiple=True,
              help="axis spec name:min:max:steps (one or two)")
@click.option("--tensors", default=None)
@click.option("--state", default=None)
@click.option("--mu-reg", type=float, default=None, callback=_mu_reg_flag)
@click.option("--output", default=None, type=click.Path())
@click.option("--format", "fmt", default=None, type=click.Choice(["csv", "json"]))
@click.option("--threads", default=1, type=click.IntRange(min=1),
              help="worker threads (default 1: serial)")
def cmd_sweep(config, model, sets, axes_opt, tensors, state, mu_reg, output, fmt, threads):
    """Grid sweep over one or two named parameters; deterministic CSV/JSON."""
    spec = _load_config(config) if config else {}
    model = model or spec.get("model")
    sweepable = [name for name, cls in MODELS.items() if cls.sweepable]
    if model not in sweepable:
        raise click.UsageError("sweep supports models: " + ", ".join(sweepable))
    adapter = MODELS[model]()
    fixed = {name: _typed(name, v, adapter.defaults) for name, v in spec.get("params", {}).items()}
    fixed.update(_parse_sets(sets, adapter.defaults))
    axes = list(spec.get("axes", []))
    axes += [_axis_flag(a) for a in axes_opt]
    if not 1 <= len(axes) <= 2:
        raise click.UsageError("need one or two axes")
    grids = [_axis_points(a) for a in axes]
    for a in axes:
        if a["name"] not in adapter.sweepable:
            raise click.UsageError(f"axis {a['name']!r} not sweepable for {model}")
        if a["name"] in fixed:
            raise click.UsageError(f"axis {a['name']!r} also set as fixed parameter")
    kinds = _parse_kinds(tensors or spec.get("tensors", "zeta"), adapter)
    state = state if state is not None else spec.get("state")
    mu_reg = mu_reg if mu_reg is not None else _usage(_mu_reg, spec.get("mu_reg", 0.0))
    output = output or spec.get("output")
    if not isinstance(output, str):
        raise click.UsageError("sweep needs --output (or a string 'output' in the config)")
    fmt = fmt or spec.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise click.UsageError(f"format must be 'csv' or 'json', got {fmt!r}")

    names = [a["name"] for a in axes]
    points = list(itertools.product(*(range(len(grid)) for grid in grids)))
    dirs = adapter.directions
    columns = [*names, *(f"{kind}_{a}{b}_{part}" for kind in kinds for a in dirs
                         for b in dirs for part in ("re", "im")), "status"]

    def point_values(idx):
        return {**fixed, **{name: float(grid[i]) for name, grid, i in zip(names, grids, idx)}}

    for idx in points:  # an invalid grid point fails once here, before any evaluation
        adapter.params(point_values(idx))
    with _failures_exit_3():  # as does a malformed or out-of-range state
        n = _state_index(state, adapter)
    folder = os.path.dirname(os.path.abspath(output))
    if os.path.isdir(output) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise click.UsageError(f"cannot write output {output}: not a file in a writable directory")

    def evaluate(chunk):  # one adapter call: the points share its passes
        return adapter.tensors([point_values(idx) for idx in chunk], kinds, n, mu_reg)

    if threads > 1:  # contiguous chunks, one adapter call each
        chunks = [points[i * len(points) // threads:(i + 1) * len(points) // threads]
                  for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = [r for part in pool.map(evaluate, [c for c in chunks if c]) for r in part]
    else:
        results = evaluate(points)

    # one float table of the axis values and each kind's re and im cells, NaN
    # on an error row, and the status column beside it
    table = np.full((len(points), len(columns) - 1), np.nan)
    table[:, :len(names)] = [[grid[i] for grid, i in zip(grids, idx)] for idx in points]
    ok = [r for r, mats in enumerate(results) if not isinstance(mats, Exception)]
    if ok:  # each kind's (a, b) row-major as in the columns, z as (re, im)
        cells = np.array([[results[r][kind] for kind in kinds] for r in ok], dtype=complex)
        table[ok, len(names):] = cells.reshape(len(ok), -1).view(float)
    statuses = [type(r).__name__ if isinstance(r, Exception) else "ok" for r in results]
    rows = table.tolist()

    meta_items = [f"model={model}"]
    meta_items += [f"{k}={v}" for k, v in sorted(fixed.items())]
    meta_items += [f"axis={a['name']}:{a['min']}:{a['max']}:{a['steps']}" for a in axes]
    meta_items += [f"tensors={','.join(kinds)}", f"state={state}", f"mu_reg={mu_reg}"]
    header = f"# nhgeo v{__version__} " + " ".join(meta_items)

    if fmt == "csv":
        line = ",".join(["%.17g"] * table.shape[1] + ["%s"])
        lines = [header, ",".join(columns)] + [line % (*r, s) for r, s in zip(rows, statuses)]
        with open(output, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        payload = {
            "meta": {"version": __version__, "model": model, "params": fixed,
                     "axes": axes, "tensors": kinds, "state": state, "mu_reg": mu_reg},
            "columns": columns,
            "rows": [[None if v != v else v for v in row] + [status]  # NaN as null
                     for row, status in zip(rows, statuses)],
        }
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=1, allow_nan=False)
    click.echo(f"wrote {len(rows)} rows to {output}")


@main.command("verify")
@click.option("--level", default="quick", type=click.Choice(["quick", "full"]))
@click.option("--only", default=None, help="comma-separated check names")
def cmd_verify(level, only):
    """Run the self-verification suite; exit 0 iff all checks pass."""
    from . import verify as verify_mod

    names = [n.strip() for n in only.split(",")] if only else None
    results = verify_mod.run(level, names=names)
    all_ok = True
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        click.echo(f"{mark} {r.name:26s} {r.seconds:7.2f}s  {r.detail}")
        all_ok &= r.ok
    click.echo(f"{'all checks passed' if all_ok else 'FAILURES present'} ({level})")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
