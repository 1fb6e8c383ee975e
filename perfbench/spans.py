"""In-memory spans around simqp's public names, and self-time accounting.

The tracer lives entirely in the benchmark: it replaces each traced name
in every ``simqp`` module namespace that binds it with a wrapper that
records ``(name, operation id, parent span, start, end)``, and hooks the
constructors of the traced classes the same way.  Nothing is written
until :func:`save_spans` runs at the end of the traced pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, public name) pairs that get a span.  A dotted name is a method
# of a public class; a bare class name means its constructor.  The layer
# is the simqp module the name lives in when the benchmark was defined,
# so metric names stay put if a refactor moves the code.
TRACED = (
    ("phase_space", "MinUncertaintyParams"),
    ("phase_space", "GaussianState"),
    ("phase_space", "LinearObservable"),
    ("phase_space", "moments"),
    ("phase_space", "covariance"),
    ("phase_space", "tensor"),
    ("phase_space", "make_probe_state"),
    ("phase_space", "make_min_uncertainty_state"),
    ("dynamics", "SolvableGenerator.from_couplings"),
    ("dynamics", "propagate"),
    ("dynamics", "heisenberg_observables"),
    ("measurement", "build_model"),
    ("measurement", "measurement_from_parts"),
    ("measurement", "qrms_errors"),
    ("measurement", "check_theorem_conditions"),
    ("measurement", "branciard_ozawa_residual"),
    ("measurement", "ozawa_inequality_residual"),
    ("distributions", "JointGaussian"),
    ("distributions", "PosteriorFamily"),
    ("distributions", "OutcomeRegion"),
    ("distributions", "joint_distribution"),
    ("distributions", "conditional"),
    ("distributions", "meter_joint"),
    ("distributions", "q_pair_joint"),
    ("distributions", "p_pair_joint"),
    ("distributions", "sample"),
    ("distributions", "posterior_state"),
    ("distributions", "posterior_consistency"),
    ("distributions", "region_mixture_moments"),
    ("cli", "main"),
)

#: span name given to each operation the harness runs
OP_SPAN = "bench.op"


class Tracer:
    """Records nested spans while installed; restores every name on exit."""

    def __init__(self):
        self.names = []
        self.layers = []
        self._ids = {}
        self.spans = []  # (name id, op id, parent index, t0, t1)
        self._stack = []
        self.op_id = -1
        self._undo = []

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str):
        """Callable that runs ``fn`` inside a span called ``name``."""
        nid = self.name_id(name, layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, self.op_id, parent, t0, t1)

        return traced

    def run_op(self, op_id: int, fn):
        """Run one harness operation as a root span with its own id."""
        self.op_id = op_id
        return self.wrap(fn, OP_SPAN, "bench")()

    def install(self, package):
        """Patch every traced name in each loaded module of ``package``."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None
            and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for layer, name in TRACED:
            head, _, method = name.partition(".")
            home = sys.modules.get(f"{package.__name__}.{layer}")
            target = getattr(package, head, None) or getattr(home, head, None)
            if target is None:
                continue  # the name is gone; its metrics read zero
            if method:
                self._patch_method(target, method, name, layer)
            elif isinstance(target, type):
                self._patch_attr(target, "__init__", self.wrap(target.__init__, name, layer))
            else:
                wrapped = self.wrap(target, name, layer)
                for mod in modules:
                    if getattr(mod, head, None) is target:
                        self._patch_attr(mod, head, wrapped)

    def _patch_method(self, cls, method, name, layer):
        raw = cls.__dict__.get(method)
        if isinstance(raw, classmethod):
            self._patch_attr(cls, method, classmethod(self.wrap(raw.__func__, name, layer)))
        elif isinstance(raw, staticmethod):
            self._patch_attr(cls, method, staticmethod(self.wrap(raw.__func__, name, layer)))
        elif raw is not None:
            self._patch_attr(cls, method, self.wrap(raw, name, layer))

    def _patch_attr(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for nid, op, parent, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    return [
        (t1 - t0) - union_length(children.get(i, ()), t0, t1)
        for i, (nid, op, parent, t0, t1) in enumerate(spans)
    ]


def aggregate(tracer: Tracer) -> dict:
    """Per-name calls, inclusive and self seconds, per-layer self seconds,
    and each span's own self seconds."""
    selfs = self_times(tracer.spans)
    by_name = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in tracer.names
    }
    by_layer = defaultdict(float)
    roots = 0.0
    for (nid, op, parent, t0, t1), self_s in zip(tracer.spans, selfs):
        name = tracer.names[nid]
        row = by_name[name]
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += self_s
        by_layer[tracer.layers[nid]] += self_s
        if parent < 0:
            roots += t1 - t0
    return {"names": by_name, "layers": dict(by_layer), "root_s": roots, "self_s": selfs}


def save_spans(tracer: Tracer, path) -> None:
    """Write every span, with its name, op id and parent, as a compressed .npz."""
    arr = np.array(tracer.spans, dtype=float).reshape(-1, 5)
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        layers=np.array(tracer.layers),
        name_id=arr[:, 0].astype(np.int32),
        op_id=arr[:, 1].astype(np.int64),
        parent=arr[:, 2].astype(np.int64),
        start_s=arr[:, 3] - (arr[0, 3] if len(arr) else 0.0),
        end_s=arr[:, 4] - (arr[0, 3] if len(arr) else 0.0),
    )
