"""Per-layer spans and counts, recorded from outside the library.

Every traced name is a public function of an ``oredecomp`` module.  A module
that did ``from .x import f`` holds its own binding of ``f`` from import
time, so the wrapper replaces every ``oredecomp.*`` module attribute that is
the original function object, not only the one in the defining module.  The
library itself is not modified; ``uninstall`` puts the originals back.

A span's inclusive time counts only its outermost activation (recursive
calls are not counted twice); its self time is its duration minus the time
covered by the spans it opened directly.  Spans and counts are aggregated in
memory and read out once, when the benchmark ends.
"""

from __future__ import annotations

import sys
import time

# (module, function): the layer boundaries, named "<module>.<function>"
SPANS = (
    ("decomp", "lclm_decompose"),
    ("decomp", "check_hypothesis"),
    ("decomp", "nice_repr"),
    ("decomp", "minimal_rational_multiple"),
    ("decomp", "hom_space"),
    ("decomp", "pick_iso"),
    ("decomp", "propagate"),
    ("decomp", "verify_decomposition"),
    ("decomp", "is_indecomposable"),
    ("asd", "central_operator_reducible"),
    ("ore", "gcrd"),
    ("ore", "lclm"),
    ("ore", "exact_right_quotient_central"),
    ("pcurv", "pcurv_data"),
    ("pcurv", "pcurvature_matrix"),
    ("linalg", "char_poly"),
    ("linalg", "invariant_factors"),
    ("linalg", "kernel_basis"),
    ("yfactor", "factor_monic_in_y"),
)
SPAN_NAMES = tuple("%s.%s" % mf for mf in SPANS)
OP_SPAN = "bench.op"

# RatFunc methods counted as fieldkit.ratfunc_ops (nested calls count too,
# e.g. a - b counts the subtraction and the addition it performs)
RATFUNC_OPS = ("__add__", "__sub__", "__mul__", "__truediv__")


class Tracer:
    """Wraps the layer functions of an imported ``oredecomp`` and aggregates
    calls, inclusive and self time per span, plus the layer counts."""

    def __init__(self):
        self.enabled = False
        self._stack = []          # open spans: [name, child seconds]
        self._undo = []           # (owner, attribute, original)
        self.calls = {n: 0 for n in SPAN_NAMES + (OP_SPAN,)}
        self.incl = {n: 0.0 for n in self.calls}
        self.self_s = {n: 0.0 for n in self.calls}
        self.ratfunc_ops = 0
        self.hom_dim_sum = 0
        self.nullity_sum = 0
        self.iso_samples = 0      # gcrd calls opened directly by pick_iso
        self.distinct_n = 0       # distinct N_* handed to the ASD, per op
        self._op_n_stars = set()

    # -- installation

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "oredecomp" or k.startswith("oredecomp."))]
        for (modname, fname), name in zip(SPANS, SPAN_NAMES):
            orig = getattr(sys.modules["oredecomp." + modname], fname)
            wrapper = self._wrap(name, orig)
            for mod in mods:
                if getattr(mod, fname, None) is orig:
                    self._undo.append((mod, fname, orig))
                    setattr(mod, fname, wrapper)
        ratfunc = sys.modules["oredecomp.fieldkit"].RatFunc
        for meth in RATFUNC_OPS:
            orig = ratfunc.__dict__[meth]
            self._undo.append((ratfunc, meth, orig))
            setattr(ratfunc, meth, self._count_ratfunc(orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _count_ratfunc(self, orig):
        tracer = self

        def counted(a, b):
            if tracer.enabled:
                tracer.ratfunc_ops += 1
            return orig(a, b)
        return counted

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            result = tracer._span(name, fn, args, kwargs)
            if name == "decomp.hom_space":
                L = args[1]
                tracer.hom_dim_sum += L.field.base.p * L.order
            elif name == "linalg.kernel_basis":
                tracer.nullity_sum += len(result)
            return result
        return wrapper

    # -- spans

    def _span(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        outermost = all(frame[0] != name for frame in stack)
        if name == "ore.gcrd" and parent is not None and parent[0] == "decomp.pick_iso":
            self.iso_samples += 1
        elif name == "asd.central_operator_reducible":
            self._op_n_stars.add(args[0])
        frame = [name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            if outermost:
                self.incl[name] += dt
            self.self_s[name] += dt - frame[1]
            if parent is not None:
                parent[1] += dt

    def run_op(self, fn, *args, **kwargs):
        """One benchmark call as the root span ``bench.op``."""
        self._op_n_stars = set()
        self.enabled = True
        try:
            return self._span(OP_SPAN, fn, args, kwargs)
        finally:
            self.enabled = False
            self.distinct_n += len(self._op_n_stars)

    # -- state, so a call stopped part-way can be dropped from the totals

    def state(self):
        return (dict(self.calls), dict(self.incl), dict(self.self_s), self.ratfunc_ops,
                self.hom_dim_sum, self.nullity_sum, self.iso_samples, self.distinct_n)

    def set_state(self, state):
        (calls, incl, self_s, self.ratfunc_ops, self.hom_dim_sum, self.nullity_sum,
         self.iso_samples, self.distinct_n) = state
        self.calls, self.incl, self.self_s = dict(calls), dict(incl), dict(self_s)

    # -- read-out

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        for name in (OP_SPAN,) + SPAN_NAMES:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".s"] = (self.incl[name], "s")
            out[name + ".self_s"] = (self.self_s[name], "s")

        def ratio(num, den):
            return num / den if den else 0.0

        ops = self.calls[OP_SPAN]
        hom = self.calls["decomp.hom_space"]
        kern = self.calls["linalg.kernel_basis"]
        asd = self.calls["asd.central_operator_reducible"]
        iso = self.calls["decomp.pick_iso"]
        out["fieldkit.ratfunc_ops"] = (self.ratfunc_ops, "count")
        out["decomp.hom_space.dim"] = (ratio(self.hom_dim_sum, hom), "count")
        out["linalg.kernel_basis.nullity"] = (ratio(self.nullity_sum, kern), "count")
        out["asd.distinct_N"] = (self.distinct_n, "count")
        out["asd.verdicts_per_N"] = (ratio(asd, self.distinct_n), "ratio")
        out["pcurv.pcurvature_matrix.per_op"] = (
            ratio(self.calls["pcurv.pcurvature_matrix"], ops), "ratio")
        out["decomp.pick_iso.samples"] = (ratio(self.iso_samples, iso), "ratio")
        return out
