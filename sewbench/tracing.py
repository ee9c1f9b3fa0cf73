"""Span recorder for the traced run.

`Tracer.install()` replaces every public function of every sewkernel module
with a wrapper that records a span (name, start, end, parent).  The wrapper
is written into each module namespace that holds the function, so calls
made inside the library (which look names up in their own module globals)
are recorded as well.  Nothing in the package is edited; `uninstall()` puts
the original objects back.

Spans stay in memory and are written out by `dump()`.  A span's self time
is its duration minus the part of its interval that its child spans cover.
Spans opened in a thread with no open span (the CLI's worker threads) take
the innermost open span of the main thread as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

# per-layer metric group -> span names (module.function) it aggregates
LAYERS = {
    "elliptic.theta_g1": ("elliptic.theta_char_g1",),
    "elliptic.eisenstein": ("elliptic.eisenstein",),
    "elliptic.weierstrass_P": ("elliptic.weierstrass_P",),
    "elliptic.lattice": ("elliptic.nearest_lattice_point", "elliptic.lattice_min_distance"),
    "elliptic.prime_form": ("elliptic.prime_form_K",),
    "szego.moment_block": ("szego.moment_block",),
    "szego.build_T": ("szego.build_T",),
    "szego.half_diff": ("szego.half_diff", "szego.half_diff_bar"),
    "szego.s_kappa": ("szego.s_kappa",),
    "genus2.s2_eval": ("genus2.s2_eval",),
    "genus2.domain_check": ("genus2.domain_check",),
    "determinants.build_R": ("determinants.build_R",),
    "determinants.continuation": ("determinants.det_inv_sqrt_I_minus_R",),
    "determinants.det_I_minus": ("determinants.det_I_minus",),
    "modular.act_point": ("modular.act_point",),
    "modular.zhat": ("modular.zhat",),
    "cli": ("cli.main",),
}

# (layer, statistic) pairs reported as per-layer metrics
REPORTED = (
    ("elliptic.theta_g1", "calls"), ("elliptic.theta_g1", "points"),
    ("elliptic.theta_g1", "self_s"),
    ("szego.moment_block", "calls"), ("szego.moment_block", "self_s"),
    ("szego.build_T", "self_s"),
    ("elliptic.eisenstein", "calls"), ("elliptic.eisenstein", "self_s"),
    ("elliptic.weierstrass_P", "calls"), ("elliptic.weierstrass_P", "self_s"),
    ("determinants.build_R", "self_s"), ("determinants.continuation", "self_s"),
    ("szego.half_diff", "calls"), ("szego.half_diff", "self_s"),
    ("szego.s_kappa", "self_s"),
    ("genus2.s2_eval", "calls"), ("genus2.s2_eval", "self_s"),
    ("genus2.domain_check", "calls"), ("genus2.domain_check", "self_s"),
    ("elliptic.lattice", "calls"), ("elliptic.lattice", "self_s"),
    ("determinants.det_I_minus", "self_s"),
    ("modular.act_point", "calls"), ("modular.act_point", "self_s"),
    ("modular.zhat", "self_s"),
    ("elliptic.prime_form", "calls"), ("elliptic.prime_form", "self_s"),
    ("cli", "self_s"),
)


def _points(name, args, kwargs):
    """Evaluation points of a theta_char_g1 call (its z argument)."""
    if name != "elliptic.theta_char_g1":
        return 0
    z = args[2] if len(args) > 2 else kwargs.get("z")
    return int(np.size(z))


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, points)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = self._parent(stack)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, _points(name, args, kwargs)))

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-level span, such as one operation."""
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, 0))

    def install(self, modules):
        """Wrap every public function defined in sewkernel, in every given
        module namespace that holds it."""
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("sewkernel"):
                    continue
                if obj not in wrappers:
                    short = obj.__module__.split(".", 1)[-1]
                    wrappers[obj] = self.wrap(obj, f"{short}.{obj.__name__}")
                setattr(mod, attr, wrappers[obj])
                self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def self_times(self):
        """{span id: self time} with overlapping children (threads) merged."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, t0, t1, _, _ in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def layer_stats(self):
        """{layer: {"calls", "points", "self_s"}} summed over all spans."""
        name_to_layer = {n: layer for layer, names in LAYERS.items() for n in names}
        stats = {layer: {"calls": 0, "points": 0, "self_s": 0.0} for layer in LAYERS}
        selfs = self.self_times()
        for sid, name, _, _, _, pts in self.spans:
            layer = name_to_layer.get(name)
            if layer is None:
                continue
            s = stats[layer]
            s["calls"] += 1
            s["points"] += pts
            s["self_s"] += selfs[sid]
        return stats

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        if not self.spans:
            return
        origin = min(s[2] for s in self.spans)
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, pts in sorted(self.spans, key=lambda s: s[2]):
                rec = {"id": sid, "name": name, "start": t0 - origin,
                       "end": t1 - origin, "parent": parent}
                if pts:
                    rec["points"] = pts
                fh.write(json.dumps(rec) + "\n")
