"""Command line front end: point evaluations, parameter sweeps, spectra and
the self-verification suite.

Output is CSV/JSON only; plotting is left to external tools.  Sweep points
that hit a singular configuration are recorded as NaN rows tagged with the
error name instead of aborting: the singular lines are usually exactly what
a sweep is looking for.
"""
from __future__ import annotations

import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import click
import numpy as np

from . import __version__
from .errors import NhgeoError, ShapeMismatch
from .kitaev import WEAK_KINDS, DissipativeKitaevModel, KitaevParams, weak_coupling_tensors
from .biortho import build_biortho
from .linalg import (
    DEFECTIVE_COND,
    as_square,
    complex_pairs,
    eig_general,
    load_json,
    load_matrix,
    matrix_from_json,
)
from .liouville import (
    NESS_KINDS,
    LiouvillianFamily,
    build_liouvillian,
    ness_tensors,
    zeta_ness_k,
)
from .ssh import SSHParams, _grid_eps, bloch_family, bloch_sum, eps, zeta_finite_sum
from .tensors import (
    SOS_KINDS,
    OperatorFamily,
    chi_hermitian,
    eta_tensor,
    sum_over_states,
)

# ---------------------------------------------------------------------------
# model adapters
# ---------------------------------------------------------------------------

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class SSHAdapter:
    name = "nh-ssh"
    directions = ("t", "delta")
    defaults = {"t": 0.0, "delta": 0.0, "L": 64}
    sweepable = ("t", "delta")
    kinds = ("zeta", "eta", "zeta_limited", "zeta_limited_rescaled")

    def params(self, values: dict) -> SSHParams:
        p = {**self.defaults, **values}
        return _checked(lambda: SSHParams(float(p["t"]), float(p["delta"]), int(p["L"])))

    def tensors(self, values, kinds, state, mu_reg) -> dict:
        p = self.params(values)
        n = _state_index(state)
        out = {}
        for kind in kinds:  # in order: the first failing kind names a row's error
            if kind == "zeta":
                out[kind] = zeta_finite_sum(p).values
            elif kind == "eta":
                _grid_eps(p)  # CriticalKPoint at a gap-closing grid k, as zeta raises
                total = np.zeros((2, 2), dtype=complex)
                for k in p.k_grid:
                    total += eta_tensor(bloch_family(p, k), [p.t, p.delta], n).values
                out[kind] = total
            elif kind not in out:  # one pass serves both zeta_limited kinds
                limited = [k for k in kinds if k.startswith("zeta_limited")]
                out.update((k, t.values) for k, t in bloch_sum(p, n, limited).items())
        return {kind: out[kind] for kind in kinds}

    def spectrum(self, values) -> dict:
        p = self.params(values)
        se = np.sqrt(eps(p.t, p.delta, p.k_grid))
        pairs = np.stack([se, -se], axis=-1).tolist()  # (+sqrt(eps), -sqrt(eps)) per k
        bands = [{"k": float(k), "values": [_c(z) for z in pair]}
                 for k, pair in zip(p.k_grid, pairs)]
        flat = sorted((z for pair in pairs for z in pair), key=lambda z: (z.real, z.imag))
        return {"per_k": bands, "sorted": [_c(z) for z in flat]}


class KitaevAdapter:
    name = "kitaev-dissipative"
    directions = ("h", "gamma")
    defaults = {
        "h": 0.0, "gamma": 1.0, "g": 0.1, "mu_plus": 1.0, "mu_minus": 0.6,
        "L": 64, "weak_coupling": True,
    }
    sweepable = ("h", "gamma", "g", "mu_plus", "mu_minus")
    kinds = WEAK_KINDS

    def params(self, values: dict) -> KitaevParams:
        p = {**self.defaults, **values}
        return _checked(lambda: KitaevParams(
            float(p["h"]), float(p["gamma"]), float(p["g"]),
            float(p["mu_plus"]), float(p["mu_minus"]), int(p["L"]),
            bool(p["weak_coupling"]),
        ))

    def tensors(self, values, kinds, state, mu_reg) -> dict:
        p = self.params(values)
        if p.weak_coupling:
            return weak_coupling_tensors(p, kinds)
        if set(kinds) - {"zeta"}:  # checked before any evaluation
            raise click.UsageError(
                "kitaev-dissipative provides only zeta without weak_coupling")
        model = DissipativeKitaevModel(p.g, p.mu_plus, p.mu_minus)
        return {kind: zeta_ness_k(model, [p.h, p.gamma], p.L).values for kind in kinds}

    def spectrum(self, values) -> dict:
        p = self.params(values)
        model = DissipativeKitaevModel(p.g, p.mu_plus, p.mu_minus)
        xs = np.linalg.eigvals(model.x_block(p.k_grid[:, None, None], [p.h, p.gamma]))
        return _rapidity_summary(sorted(xs.ravel().tolist(), key=lambda z: (z.real, z.imag)))


class QuadLiouvilleAdapter:
    """Matrix-file driven quadratic generator: H(lam) = H0 + sum lam_mu dH_mu."""

    name = "quad-liouville"
    defaults: dict = {}
    sweepable = ()
    kinds = NESS_KINDS

    def __init__(self, hmat_file, bath_file, dhmat_files):
        if hmat_file is None or bath_file is None:
            raise click.UsageError(
                "model quad-liouville needs --hmat-file and --bath-file"
            )
        self.H0 = load_matrix(hmat_file)
        self.M, self.bath_vectors = _load_bath(bath_file)
        self.dH = [load_matrix(f) for f in dhmat_files]
        if self.H0.shape[0] % 2:
            raise click.UsageError("H matrix dimension must be even (2n)")
        self.n = self.H0.shape[0] // 2
        self.directions = tuple(f"lam{i}" for i in range(len(self.dH)))
        self.dec = None  # the decomposition of X once tensors() has built it

    def family(self) -> LiouvillianFamily:
        def make(lam):
            H = self.H0 + sum(lam[m] * self.dH[m] for m in range(len(self.dH)))
            return build_liouvillian(self.n, H, self.bath_vectors, M=self.M)  # one is None

        return LiouvillianFamily(self.n, len(self.dH), make, name="quad-liouville")

    def tensors(self, values, kinds, state, mu_reg) -> dict:
        if not self.dH:
            raise click.UsageError(
                "tensor evaluation needs at least one --dhmat-file direction"
            )
        fam = self.family()
        lam = np.zeros(len(self.dH))
        # one eigensolve serves every kind and the spectrum
        self.dec = eig_general(fam(lam).X)
        return {kind: t.values for kind, t in ness_tensors(fam, lam, kinds, dec=self.dec).items()}

    def spectrum(self, values) -> dict:
        dec = self.dec or eig_general(self.family()(np.zeros(len(self.dH))).X)
        return _rapidity_summary(dec.eigenvalues)


class MatrixFamilyAdapter:
    """Generic dense family K(lam) = K0 + sum lam_mu dK_mu, evaluated at lam = 0."""

    name = "matrix-file"
    defaults: dict = {}
    sweepable = ()
    kinds = ("chi", *SOS_KINDS)

    def __init__(self, matrix_file, param_files):
        self.K0 = as_square(load_matrix(matrix_file), matrix_file)
        self.dK = [as_square(load_matrix(f), f) for f in param_files]
        for m in self.dK:
            if m.shape != self.K0.shape:
                raise click.UsageError("direction matrices must match the base shape")
        self.directions = tuple(f"lam{i}" for i in range(len(self.dK)))
        self.sys = None  # the eigensystem of K0 once tensors() has built it

    def family(self) -> OperatorFamily:
        return OperatorFamily(
            self.K0.shape[0], len(self.dK),
            lambda lam: self.K0 + sum(lam[m] * self.dK[m] for m in range(len(self.dK))),
            lambda mu, lam: self.dK[mu],
            name="matrix-file",
        )

    def tensors(self, values, kinds, state, mu_reg) -> dict:
        if not self.dK:
            raise click.UsageError("tensor evaluation needs at least one --param-file")
        sos_kinds = [k for k in kinds if k != "chi"]
        fam = self.family()
        lam = np.zeros(len(self.dK))
        n = _state_index(state)
        out = {}
        if sos_kinds:  # one eigensolve serves every non-Hermitian kind and the spectrum
            # an out-of-range state must raise ShapeMismatch before any eigensolve
            if 0 <= n < fam.dim:
                self.sys = build_biortho(fam(lam), warn_degenerate=False)
            sos = sum_over_states(fam, lam, n, sos_kinds, mu_reg=mu_reg or 0.0, sys=self.sys)
            out = {kind: t.values for kind, t in sos.items()}
        if "chi" in kinds:
            out["chi"] = chi_hermitian(fam, lam, n).values
        return {kind: out[kind] for kind in kinds}

    def spectrum(self, values) -> dict:
        dec = self.sys or eig_general(self.K0)
        return {
            "eigenvalues": [_c(z) for z in dec.eigenvalues],
            "condition": dec.condition,
            "diagonalizable": dec.condition <= DEFECTIVE_COND,
        }


MODELS = {"nh-ssh": SSHAdapter, "kitaev-dissipative": KitaevAdapter}


def _checked(make):
    """``make()``, reporting an invalid parameter value as a usage error (exit 2)."""
    try:
        return make()
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid parameters: {exc}") from None


def _thread_count(threads) -> int:
    """``--threads``, else ``NHGEO_THREADS``, else 1 (serial); each must be >= 1."""
    if threads is None:
        raw = os.environ.get("NHGEO_THREADS", "").strip() or "1"
        try:
            threads = int(raw)
        except ValueError:
            raise click.UsageError(f"NHGEO_THREADS={raw!r} is not an integer") from None
    if threads < 1:
        raise click.UsageError(f"thread count must be >= 1, got {threads}")
    return threads


def _c(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _rapidity_summary(xs) -> dict:
    """The rapidities ``xs``, their smallest real part and whether it exceeds 1e-12."""
    min_re = float(min(z.real for z in xs))
    return {"rapidities": [_c(z) for z in xs], "min_re": min_re,
            "unique_steady_state": min_re > 1e-12}


def _load_bath(path):
    """A bath matrix, or jump vectors ``{"vectors": [[[re, im], ...], ...]}``."""
    obj = load_json(path)
    if isinstance(obj, dict) and "vectors" in obj:
        if not isinstance(obj["vectors"], list):
            raise ShapeMismatch("bath vectors must be a list of vectors")
        return None, [complex_pairs(v, "bath vector") for v in obj["vectors"]]
    return matrix_from_json(obj), None


def _check_parameter(name, defaults: dict) -> None:
    """Usage error (exit 2) unless ``name`` is one of the model's parameters."""
    if name not in defaults:
        raise click.UsageError(
            f"unknown parameter {name!r}; known: {', '.join(defaults) or 'none'}"
        )


def _parse_sets(sets, defaults: dict) -> dict:
    """``--set name=value`` items; names and value types follow the model's defaults."""
    out = {}
    for item in sets:
        name, eq, raw = (part.strip() for part in item.partition("="))
        if not eq:
            raise click.UsageError(f"--set expects name=value, got {item!r}")
        _check_parameter(name, defaults)
        kind = type(defaults[name])
        try:
            out[name] = _BOOLS[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise click.UsageError(f"--set {name}={raw}: expected {kind.__name__}") from None
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


def _state_index(state) -> int:
    """Eigenstate index of ``--state``; 0 when unset or 'ness'."""
    try:
        return 0 if state in (None, "ness") else int(state)
    except (TypeError, ValueError):
        raise click.UsageError(
            f"--state expects an eigenstate index or 'ness', got {state!r}"
        ) from None


def _make_adapter(model, matrix_file, param_files, hmat_file, bath_file, dhmat_files):
    """The model's adapter; an unreadable or malformed input file exits 2."""
    try:
        if matrix_file is not None:
            return MatrixFamilyAdapter(matrix_file, list(param_files))
        if model == "quad-liouville":
            return QuadLiouvilleAdapter(hmat_file, bath_file, list(dhmat_files))
    except (NhgeoError, OSError) as exc:
        raise click.UsageError(f"{type(exc).__name__}: {exc}") from None
    if model is None:
        raise click.UsageError("pass --model or --matrix-file")
    if model not in MODELS:
        raise click.UsageError(
            f"unknown model {model!r}; available: {', '.join([*MODELS, 'quad-liouville'])}"
        )
    return MODELS[model]()


def _tensor_payload(values: dict, directions) -> dict:
    return {kind: {"directions": list(directions),
                   "components": [[_c(z) for z in row] for row in mat]}
            for kind, mat in values.items()}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(__version__, prog_name="nhgeo")
def main():
    """Geometric response tensors for non-Hermitian operator families."""


@main.command("tensor")
@click.option("--model", default=None, help="registered model name")
@click.option("--set", "sets", multiple=True, help="parameter assignment name=value")
@click.option("--tensors", default="zeta", help="comma-separated tensor kinds")
@click.option("--state", default=None, help="eigenstate index or 'ness'")
@click.option("--mu-reg", type=click.FloatRange(min=0.0), default=0.0,
              help="regularization cutoff of zeta (>= 0)")
@click.option("--matrix-file", default=None, type=click.Path(exists=True))
@click.option("--param-files", multiple=True, type=click.Path(exists=True))
@click.option("--hmat-file", default=None, type=click.Path(exists=True))
@click.option("--bath-file", default=None, type=click.Path(exists=True))
@click.option("--dhmat-files", multiple=True, type=click.Path(exists=True))
def cmd_tensor(model, sets, tensors, state, mu_reg, matrix_file, param_files,
               hmat_file, bath_file, dhmat_files):
    """Evaluate tensors at a single parameter point; JSON to stdout."""
    adapter = _make_adapter(model, matrix_file, param_files, hmat_file, bath_file, dhmat_files)
    kinds = _parse_kinds(tensors, adapter)
    values = _parse_sets(sets, adapter.defaults)
    _state_index(state)
    try:
        mats = adapter.tensors(values, kinds, state, mu_reg)
        spec = adapter.spectrum(values)
    except NhgeoError as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        sys.exit(3)
    payload = {
        "model": adapter.name,
        "params": values,
        "state": state,
        "tensors": _tensor_payload(mats, adapter.directions),
        "eigenvalue_summary": spec,
        "metadata": {"version": __version__, "mu_reg": mu_reg},
    }
    click.echo(json.dumps(payload, indent=2, allow_nan=False))


@main.command("spectrum")
@click.option("--model", default=None)
@click.option("--set", "sets", multiple=True)
@click.option("--matrix-file", default=None, type=click.Path(exists=True))
@click.option("--param-files", multiple=True, type=click.Path(exists=True))
@click.option("--hmat-file", default=None, type=click.Path(exists=True))
@click.option("--bath-file", default=None, type=click.Path(exists=True))
@click.option("--dhmat-files", multiple=True, type=click.Path(exists=True))
def cmd_spectrum(model, sets, matrix_file, param_files, hmat_file, bath_file, dhmat_files):
    """Eigenvalue / relaxation-rate summary; JSON to stdout."""
    adapter = _make_adapter(model, matrix_file, param_files, hmat_file, bath_file, dhmat_files)
    try:
        spec = adapter.spectrum(_parse_sets(sets, adapter.defaults))
    except NhgeoError as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        sys.exit(3)
    click.echo(json.dumps({"model": adapter.name, "spectrum": spec}, indent=2))


def _load_config(path) -> dict:
    """The ``--config`` scan specification: a JSON object whose ``params``
    (when given) is an object and ``axes`` a list; anything else exits 2."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
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
        return {"name": name, "min": float(lo), "max": float(hi), "steps": int(steps)}
    except ValueError:
        raise click.UsageError(f"--axis expects name:min:max:steps, got {text!r}") from None


def _axis_points(axis) -> np.ndarray:
    """The grid of an axis ``{"name", "min", "max", "steps"}``; a malformed one exits 2."""
    try:
        steps = int(axis["steps"])
        if steps != float(axis["steps"]) or "name" not in axis:
            raise ValueError
        lo, hi = float(axis["min"]), float(axis["max"])
    except (KeyError, TypeError, ValueError):
        raise click.UsageError(
            f"axis {axis!r} needs a name, numbers min and max and an integer steps") from None
    if steps < 2:
        raise click.UsageError("axis steps must be >= 2")
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
@click.option("--mu-reg", type=click.FloatRange(min=0.0), default=None)
@click.option("--output", default=None, type=click.Path())
@click.option("--format", "fmt", default=None, type=click.Choice(["csv", "json"]))
@click.option("--threads", default=None, type=int,
              help="worker threads (default NHGEO_THREADS, else 1: serial)")
def cmd_sweep(config, model, sets, axes_opt, tensors, state, mu_reg, output, fmt, threads):
    """Grid sweep over one or two named parameters; deterministic CSV/JSON."""
    spec = _load_config(config) if config else {}
    model = model or spec.get("model")
    if model not in MODELS:
        raise click.UsageError("sweep supports models: " + ", ".join(MODELS))
    adapter = MODELS[model]()
    fixed = dict(spec.get("params", {}))
    for name in fixed:  # names only: config values keep their JSON types
        _check_parameter(name, adapter.defaults)
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
    _state_index(state)  # a malformed state fails once here, not on every point
    mu_reg = mu_reg if mu_reg is not None else spec.get("mu_reg", 0.0)
    if (isinstance(mu_reg, bool) or not isinstance(mu_reg, (int, float))
            or not np.isfinite(mu_reg) or mu_reg < 0):
        raise click.UsageError(f"mu_reg must be a finite number >= 0, got {mu_reg!r}")
    mu_reg = float(mu_reg)
    output = output or spec.get("output")
    if output is None:
        raise click.UsageError("sweep needs --output (or 'output' in the config)")
    fmt = fmt or spec.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise click.UsageError(f"format must be 'csv' or 'json', got {fmt!r}")
    nthreads = _thread_count(threads)

    names = [a["name"] for a in axes]
    points = list(itertools.product(*(range(len(grid)) for grid in grids)))
    dirs = adapter.directions
    columns = [*names, *(f"{kind}_{a}{b}_{part}" for kind in kinds for a in dirs
                         for b in dirs for part in ("re", "im")), "status"]

    def point_values(idx):
        return {**fixed, **{name: float(grid[i]) for name, grid, i in zip(names, grids, idx)}}

    for idx in points:  # an invalid grid point fails once here, before any evaluation
        adapter.params(point_values(idx))

    def evaluate(idx):
        values = point_values(idx)
        row = [float(grid[i]) for grid, i in zip(grids, idx)]
        try:
            mats = adapter.tensors(values, kinds, state, mu_reg)
            for kind in kinds:
                for z in mats[kind].ravel():  # row-major: (a, b) as in the columns
                    row += [z.real, z.imag]
            row.append("ok")
        except (NhgeoError, FloatingPointError) as exc:
            row.extend([np.nan] * (2 * len(kinds) * len(dirs) ** 2))
            row.append(type(exc).__name__)
        return row

    if nthreads > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            rows = list(pool.map(evaluate, points))
    else:
        rows = [evaluate(idx) for idx in points]

    meta_items = [f"model={model}"]
    meta_items += [f"{k}={v}" for k, v in sorted(fixed.items())]
    meta_items += [f"axis={a['name']}:{a['min']}:{a['max']}:{a['steps']}" for a in axes]
    meta_items += [f"tensors={','.join(kinds)}", f"state={state}", f"mu_reg={mu_reg}"]
    header = f"# nhgeo v{__version__} " + " ".join(meta_items)

    if fmt == "csv":
        lines = [header, ",".join(columns)]
        for row in rows:
            cells = [format(v, ".17g") if isinstance(v, float) else str(v) for v in row]
            lines.append(",".join(cells))
        with open(output, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        payload = {
            "meta": {"version": __version__, "model": model, "params": fixed,
                     "axes": axes, "tensors": kinds, "state": state, "mu_reg": mu_reg},
            "columns": columns,
            "rows": [[None if isinstance(v, float) and np.isnan(v) else v for v in row]
                     for row in rows],
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
