"""The four workloads: seeded inputs, the timed operation, and the untimed
correctness check of every operation's output.

``ssh-sweep`` and ``kitaev-sweep`` run fixed ``nhgeo sweep`` commands, so
their inputs do not depend on the seed; their outputs are compared with the
reference CSVs in ``reference/``, written by nhgeo 0.1.0 when the benchmark
was defined.
``dense-point`` and ``ness-real-space`` draw their inputs from the seed and
are checked against independent routes computed at check time.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

SWEEP_ARGS = {
    "ssh-sweep": ["sweep", "--model", "nh-ssh", "--set", "delta=0.5", "--set", "L=64",
                  "--axis", "t:0.05:1.95:20",
                  "--tensors", "zeta,eta,zeta_limited_rescaled"],
    "kitaev-sweep": ["sweep", "--model", "kitaev-dissipative", "--set", "weak_coupling=0",
                     "--set", "L=128", "--set", "gamma=1", "--axis", "h:0:2:21",
                     "--tensors", "zeta"],
}
DENSE_N = 128
DENSE_TENSORS = ("eta", "zeta", "zeta_limited")
NESS_L = 32
NESS_MODEL = (0.4, 1.0, 0.6)  # g, mu_plus, mu_minus

#: relative tolerance of every tensor comparison, against the largest
#: component of the same tensor.  The stencil routes differ from exact
#: sum-over-states values by up to ~1e-7 relative at N=128, so an exact
#: analytic route passes with a wide margin; a sign flip or a wrong
#: component does not.
RTOL = 1e-6

CLI_WORKLOADS = tuple(SWEEP_ARGS) + ("dense-point",)
WORKLOADS = CLI_WORKLOADS + ("ness-real-space",)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def dense_family(seed, n=DENSE_N):
    """K and two direction matrices, by the recipe of ``verify.random_family``."""
    rng = np.random.default_rng(seed)

    def dense(scale):
        return scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))

    k0 = dense(1.0) + np.diag(4.0 * np.arange(n))
    return k0, [dense(1.0) for _ in range(2)]


def ness_points(seed):
    """Three (h, gamma) points: one per side of h = 0.5 below the critical
    line h = 1 and one above it, gamma away from zero."""
    rng = np.random.default_rng(seed)
    hs = (rng.uniform(0.2, 0.5), rng.uniform(0.6, 0.85), rng.uniform(1.2, 1.5))
    return [[float(h), float(rng.uniform(0.5, 1.2))] for h in hs]


def _write_matrix(path, A):
    data = [[float(z.real), float(z.imag)] for z in np.asarray(A).ravel()]
    with open(path, "w") as fh:
        json.dump({"rows": A.shape[0], "cols": A.shape[1], "data": data}, fh)


def prepare(name, seed, workdir, n=DENSE_N):
    """Write the workload's input files into ``workdir``; return its spec."""
    spec = {"workload": name, "seed": seed}
    if name == "dense-point":
        k0, parts = dense_family(seed, n)
        files = [os.path.join(workdir, f) for f in ("K.json", "dK0.json", "dK1.json")]
        for path, A in zip(files, [k0, *parts]):
            _write_matrix(path, A)
        spec.update(n=n, state=n // 2, files=files)
    elif name == "ness-real-space":
        spec["points"] = ness_points(seed)
    return spec


# ---------------------------------------------------------------------------
# operations (run inside the workload process)
# ---------------------------------------------------------------------------

def _cli(args):
    from nhgeo import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(args, standalone_mode=False)
    return out.getvalue()


def make_op(spec, workdir):
    """Return ``op(i)``: run operation ``i`` and return what the check needs."""
    name = spec["workload"]
    if name in SWEEP_ARGS:
        def op(i):
            path = os.path.join(workdir, f"op{i}.csv")
            _cli(SWEEP_ARGS[name] + ["--output", path])
            return path
    elif name == "dense-point":
        k, d0, d1 = spec["files"]
        args = ["tensor", "--matrix-file", k, "--param-files", d0, "--param-files", d1,
                "--tensors", ",".join(DENSE_TENSORS), "--state", str(spec["state"])]

        def op(i):
            return _cli(args)
    elif name == "ness-real-space":
        # module attributes are looked up per call, so the tracer sees them
        from nhgeo import kitaev, liouville

        model = kitaev.DissipativeKitaevModel(*NESS_MODEL)
        points = spec["points"]

        def op(i):
            lam = points[i % len(points)]
            fam = liouville.real_space_family(model, NESS_L)
            vals = liouville.zeta_ness(fam, lam).values
            return {"point": i % len(points), "values": _pairs(vals)}
    else:
        raise ValueError(f"unknown workload {name!r}")
    return op


def _pairs(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def _unpairs(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


# ---------------------------------------------------------------------------
# checks (run after the workload process has exited)
# ---------------------------------------------------------------------------

def tensor_error(got, want, what):
    """None if ``got`` matches ``want`` within RTOL of want's largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    scale = max(float(np.abs(want).max()), 1e-300)
    dev = float(np.abs(got - want).max()) / scale
    if not dev <= RTOL:  # also catches NaN
        return f"{what}: relative deviation {dev:.3e} > {RTOL:g}"
    return None


def _read_csv(text):
    lines = text.splitlines()
    rows = list(csv.reader(lines[1:]))
    return lines[0] if lines else "", rows[0] if rows else [], rows[1:]


def _tensor_groups(header):
    """Column indices of each tensor's components, keyed by tensor name."""
    groups = {}
    for i, col in enumerate(header[1:-1], start=1):
        groups.setdefault(col.rsplit("_", 2)[0], []).append(i)
    return groups


def _row_tensors(row, groups):
    return {k: np.array([float(row[i]) for i in idx]) for k, idx in groups.items()}


def check_sweep_csv(text, ref_text, route_pairs=()):
    """Compare a sweep CSV with the reference; None if it matches.

    The meta line must match except for the version token, the header and
    the axis and status cells exactly, every tensor within RTOL per row.
    ``route_pairs`` lists (a, b) tensor names that must agree with each
    other on every ok row (an independent-route check).
    """
    meta, header, rows = _read_csv(text)
    ref_meta, ref_header, ref_rows = _read_csv(ref_text)
    if meta.split(" ")[2:] != ref_meta.split(" ")[2:]:
        return f"meta line differs: {meta!r}"
    if header != ref_header:
        return "header differs"
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference has {len(ref_rows)}"
    groups = _tensor_groups(header)
    for row, ref in zip(rows, ref_rows):
        where = f"{header[0]}={ref[0]}"
        if len(row) != len(header):
            return f"{where}: {len(row)} cells"
        if row[0] != ref[0] or row[-1] != ref[-1]:
            return f"{where}: axis/status {row[0]},{row[-1]} != {ref[0]},{ref[-1]}"
        got, want = _row_tensors(row, groups), _row_tensors(ref, groups)
        for kind in groups:
            if np.isnan(want[kind]).all():
                if not np.isnan(got[kind]).all():
                    return f"{where}: {kind} should be NaN"
                continue
            err = tensor_error(got[kind], want[kind], f"{where} {kind}")
            if err:
                return err
        if row[-1] == "ok":
            for a, b in route_pairs:
                err = tensor_error(got[b], got[a], f"{where} {b} vs {a}")
                if err:
                    return err
    return None


def reference_text(name):
    with open(os.path.join(HERE, "reference", f"{name}.csv")) as fh:
        return fh.read()


def sos_tensors(K, dKs, n):
    """eta, zeta, zeta_limited(_rescaled) of eigenstate ``n`` by sum over states.

    One eigensolve; eigenvector derivatives from the biorthogonal
    perturbation formula ``<m_L|d r_n> = <m_L|dK|n_R> / (w_n - w_m)``.
    States are ordered by (Re, Im) with unit-norm right vectors, as nhgeo
    orders them.  Independent of nhgeo.
    """
    w, R = np.linalg.eig(K)
    order = np.lexsort((w.imag, w.real))
    w, R = w[order], R[:, order]
    R = R / np.linalg.norm(R, axis=0)
    Lh = np.linalg.inv(R)  # row m is <m_L|
    gaps = w[None, :] - w[:, None]  # (m, n) -> w_n - w_m
    np.fill_diagonal(gaps, 1.0)
    A = []
    for dK in dKs:
        a = (Lh @ dK @ R) / gaps
        np.fill_diagonal(a, 0.0)
        A.append(a)
    C = R.conj().T @ R
    Cinv = Lh @ Lh.conj().T
    d = len(dKs)
    eta = np.empty((d, d), dtype=complex)
    zeta = np.empty((d, d), dtype=complex)
    zlim = np.empty((d, d), dtype=complex)
    for mu in range(d):
        for nu in range(d):
            eta[mu, nu] = -(A[mu][n, :] @ A[nu][:, n])
            zeta[mu, nu] = Cinv[n, :] @ A[mu].conj().T @ C @ A[nu][:, n]
            zlim[mu, nu] = Cinv[n, n].real * (A[mu][:, n].conj() @ C @ A[nu][:, n])
    return {"eta": eta, "zeta": zeta, "zeta_limited": zlim,
            "zeta_limited_rescaled": zlim / Cinv[n, n].real,  # |r_n| = 1
            "eigenvalues": w, "condition": float(np.linalg.cond(R))}


def check_dense_json(text, want, n_dim):
    """Check one ``nhgeo tensor`` JSON payload against ``sos_tensors`` output."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if out.get("model") != "matrix-file" or out.get("state") != str(want["state"]):
        return f"model/state {out.get('model')!r}/{out.get('state')!r}"
    tensors = out.get("tensors", {})
    if sorted(tensors) != sorted(DENSE_TENSORS):
        return f"tensor kinds {sorted(tensors)}"
    for kind in DENSE_TENSORS:
        if tensors[kind]["directions"] != ["lam0", "lam1"]:
            return f"{kind} directions {tensors[kind]['directions']}"
        got = np.array([[complex(c["re"], c["im"]) for c in row]
                        for row in tensors[kind]["components"]])
        err = tensor_error(got, want[kind], kind)
        if err:
            return err
    spec = out.get("eigenvalue_summary", {})
    ev = np.array([complex(c["re"], c["im"]) for c in spec.get("eigenvalues", [])])
    err = tensor_error(ev, want["eigenvalues"], "eigenvalues")
    if err:
        return err
    if spec.get("diagonalizable") is not True:
        return "diagonalizable flag is not true"
    # the condition number may be an estimate, but must be within a factor
    # N of the exact 2-norm value
    cond, exact = spec.get("condition", -1.0), want["condition"]
    if not exact / n_dim <= cond <= exact * n_dim:
        return f"condition {cond} far from exact {exact:.6g}"
    return None


def ness_reference(points):
    """zeta_ness_k at the same L for every point: the momentum-space route."""
    from nhgeo.kitaev import DissipativeKitaevModel
    from nhgeo.liouville import zeta_ness_k

    model = DissipativeKitaevModel(*NESS_MODEL)
    return [zeta_ness_k(model, lam, NESS_L).values for lam in points]


class Checker:
    """Checks op outputs of one run; the independent references are built once."""

    def __init__(self, spec):
        self.spec = spec
        name = spec["workload"]
        if name in SWEEP_ARGS:
            self.ref = reference_text(name)
        elif name == "dense-point":
            k0, parts = dense_family(spec["seed"], spec["n"])
            self.ref = {**sos_tensors(k0, parts, spec["state"]), "state": spec["state"]}
        else:
            self.ref = ness_reference(spec["points"])

    def __call__(self, output):
        """None if ``output`` (what ``op`` returned) is correct, else the reason."""
        name = self.spec["workload"]
        if name in SWEEP_ARGS:
            with open(output) as fh:
                text = fh.read()
            pairs = (("zeta", "zeta_limited_rescaled"),) if name == "ssh-sweep" else ()
            return check_sweep_csv(text, self.ref, pairs)
        if name == "dense-point":
            return check_dense_json(output, self.ref, self.spec["n"])
        return tensor_error(_unpairs(output["values"]), self.ref[output["point"]],
                            f"point {output['point']} zeta")
