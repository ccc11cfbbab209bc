"""Span tracer that wraps nhgeo functions from outside the package.

Every traced function is replaced, in every ``nhgeo.*`` module that binds
it, by a wrapper that records one span per call: id, name, start, end,
parent id, thread id, self time, a work count, the error class if the call
raised, and the operation index.  Self time is computed per thread from that
thread's own stack of open spans.  A span opened on a thread with an empty
stack (a sweep pool worker) takes the current operation's root span as its
parent.  Spans stay in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter


def _n3(args, kwargs):
    m = args[0] if args else kwargs["K"]
    return len(m) ** 3


def _kblocks(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["L"])


#: (span name, defining module, attribute, work count or None).  An attribute
#: of the form ``Class.method`` patches the class; any other attribute is
#: patched in every nhgeo module that binds the same object.
TARGETS = (
    ("linalg.eig_general", "nhgeo.linalg", "eig_general", _n3),
    ("linalg._eig_2x2", "nhgeo.linalg", "_eig_2x2", None),
    ("linalg.solve_sylvester_pair", "nhgeo.linalg", "solve_sylvester_pair", None),
    ("linalg.solve_sylvester", "nhgeo.linalg", "solve_sylvester", None),
    ("cli.load_matrix", "nhgeo.linalg", "load_matrix", None),
    ("biortho.build_biortho", "nhgeo.biortho", "build_biortho", None),
    ("tensors._stencil", "nhgeo.tensors", "_stencil", None),
    ("tensors.eta_tensor", "nhgeo.tensors", "eta_tensor", None),
    ("tensors.zeta_tensor", "nhgeo.tensors", "zeta_tensor", None),
    ("tensors.zeta_limited", "nhgeo.tensors", "zeta_limited", None),
    ("tensors.agp_elements", "nhgeo.tensors", "agp_elements", None),
    ("liouville.zeta_ness_k", "nhgeo.liouville", "zeta_ness_k", _kblocks),
    ("liouville.gamma_k", "nhgeo.liouville", "gamma_k", None),
    ("liouville.zeta_ness", "nhgeo.liouville", "zeta_ness", None),
    ("liouville.steady_state_dgamma", "nhgeo.liouville", "steady_state_dgamma", None),
    ("liouville.assemble_real_space", "nhgeo.liouville", "assemble_real_space", None),
    ("kitaev.blocks", "nhgeo.kitaev", "DissipativeKitaevModel.h_block", None),
    ("kitaev.blocks", "nhgeo.kitaev", "DissipativeKitaevModel.m_block", None),
    ("kitaev.blocks", "nhgeo.kitaev", "DissipativeKitaevModel.dh_block", None),
    ("kitaev.blocks", "nhgeo.kitaev", "DissipativeKitaevModel.dm_block", None),
    ("ssh.zeta_finite_sum", "nhgeo.ssh", "zeta_finite_sum", None),
    ("ssh.bloch_family", "nhgeo.ssh", "bloch_family", None),
    ("cli.adapter_tensors", "nhgeo.cli", "SSHAdapter.tensors", None),
    ("cli.adapter_tensors", "nhgeo.cli", "KitaevAdapter.tensors", None),
    ("cli.adapter_tensors", "nhgeo.cli", "QuadLiouvilleAdapter.tensors", None),
    ("cli.adapter_tensors", "nhgeo.cli", "MatrixFamilyAdapter.tensors", None),
)

TENSOR_SPANS = ("tensors.eta_tensor", "tensors.zeta_tensor", "tensors.zeta_limited")
POOL_WAIT = "cli.sweep.pool_wait"
ROOT = "op"


def nhgeo_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "nhgeo" or n.startswith("nhgeo."))]


def bindings(obj):
    """Every (module, attribute name) in the loaded nhgeo modules bound to ``obj``."""
    return [(mod, key) for mod in nhgeo_modules()
            for key, val in list(vars(mod).items()) if val is obj]


class Tracer:
    """Records spans of the wrapped functions; ``install``/``restore`` patch them."""

    def __init__(self):
        self.spans = []
        self.pool_sizes = []
        self.op = -1
        self.root_id = None
        self._local = threading.local()
        self._next_id = itertools.count(1).__next__
        self._patches = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _call(self, name, work, fn, args, kwargs, sid=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [sid or self._next_id(), 0.0]  # id, time covered by children
        stack.append(frame)
        w = work(args, kwargs) if work is not None else 0
        err = None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            err = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
                pid = parent[0]
            else:
                pid = None if sid else self.root_id
            self.spans.append((frame[0], name, t0, t1, pid, threading.get_ident(),
                               dur - frame[1], w, err, self.op))

    def wrap(self, fn, name, work=None):
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, work, fn, args, kwargs)

        return traced

    def run_op(self, index, fn):
        """Call ``fn()`` as operation ``index`` under a root span."""
        self.op = index
        self.root_id = self._next_id()
        try:
            return self._call(ROOT, None, fn, (), {}, sid=self.root_id)
        finally:
            self.root_id = None

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def install(self):
        import nhgeo.cli  # noqa: F401  (loads every module that binds a target)

        for name, modname, attr, work in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], name, work))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, name, work)
            for mod, key in bindings(orig):
                self._patch(mod, key, wrapped)
        self._install_pool(sys.modules["nhgeo.cli"])

    def _install_pool(self, cli):
        tracer = self
        base = cli.ThreadPoolExecutor

        class TracedPool(base):
            """Records the pool size and the main thread's wait for results."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pool_sizes.append(self._max_workers)

            def map(self, fn, *iterables, **kwargs):
                results = super().map(fn, *iterables, **kwargs)
                return iter(tracer.wrap(lambda: list(results), POOL_WAIT)())

        for mod, key in bindings(base):
            self._patch(mod, key, TracedPool)

    def restore(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)



SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "self_s", "work",
               "error", "op")
LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, max(0, -(-q * len(values) // 100) - 1))]


def _under(span, by_id, names):
    pid = span[4]
    while pid is not None:
        parent = by_id[pid]
        if parent[1] in names:
            return True
        pid = parent[4]
    return False


def summarize(spans, ops, pool_sizes, *, sweep, cli):
    """Per-layer metrics of the traced operations ``ops``, as means per operation.

    ``<layer>.calls`` and ``<layer>.self_s`` exist for every layer in LAYERS.
    Self times are thread-seconds: on a sweep both pool threads count, so
    they add up to ``trace.busy_thread_s``, not to the operation's wall time:
    ``busy_thread_s = sum(<layer>.self_s) + cli.other_s + trace.unlisted_s``,
    where the last two are the root span's self time: CLI code outside every
    layer on a ``cli`` workload, harness code on a library workload.
    Returns (metrics, error rows by error class, summed over ``ops``).
    """
    per = {name: [0, 0.0] for name in LAYERS}
    work = {"linalg.eig_general": 0, "liouville.zeta_ness_k": 0}
    root_self = pool_wait = busy = 0.0
    tensor_solves = 0
    points, errors = [], {}
    mine = set(ops)
    by_id = {s[0]: s for s in spans if s[9] in mine}
    for s in by_id.values():
        name = s[1]
        if name == ROOT:
            root_self += s[6]
        elif name == POOL_WAIT:
            pool_wait += s[6]
            continue
        else:
            per[name][0] += 1
            per[name][1] += s[6]
            if name in work:
                work[name] += s[7]
        busy += s[6]
        if name == "cli.adapter_tensors":
            points.append(s[3] - s[2])
            if s[8]:
                errors[s[8]] = errors.get(s[8], 0) + 1
        elif name == "biortho.build_biortho" and _under(s, by_id, TENSOR_SPANS):
            tensor_solves += 1
    n = max(len(ops), 1)
    out = {}
    for name, (calls, self_s) in per.items():
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_s"] = self_s / n
    tensor_calls = sum(per[t][0] for t in TENSOR_SPANS)
    out.update({
        "linalg.eig_general.sum_n3": work["linalg.eig_general"] / n,
        "liouville.kblocks": work["liouville.zeta_ness_k"] / n,
        "tensors.eigensolves_per_tensor":
            tensor_solves / tensor_calls if tensor_calls else 0.0,
        "liouville.assemblies_per_point":
            per["liouville.assemble_real_space"][0] / per["liouville.zeta_ness"][0]
            if per["liouville.zeta_ness"][0] else 0.0,
        "cli.point_s_p50": _percentile(points, 50),
        "cli.point_s_p90": _percentile(points, 90),
        "cli.sweep.threads": (max(pool_sizes) if pool_sizes else 1) if sweep else 0,
        "cli.sweep.error_rows": sum(errors.values()) / n,
        "cli.sweep.pool_wait_s": pool_wait / n,
        "cli.other_s": root_self / n if cli else 0.0,
        "trace.unlisted_s": 0.0 if cli else root_self / n,
        "trace.busy_thread_s": busy / n,
    })
    return out, errors
