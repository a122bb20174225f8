"""Per-layer call counts and self times for knotbench, from outside.

``Tracer.install()`` replaces each function in TRACED by a wrapper that
times its calls while the tracer is active.  A name bound by
``from .x import y`` is replaced in every ``knotbench.*`` module that
holds it, and methods are replaced on their class, so calls between the
modules go through the wrappers too.  Spans are aggregated in memory as
they close: a function's self time is its span's duration minus the time
covered by the spans opened inside it.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

TRACED = {
    "braids": ("seifert_matrix_from_braid",),
    "seifert": ("integer_determinant",),
    "polynomials": ("poly_matrix_det", "sturm_isolate", "count_real_roots",
                    "factor_integer_poly"),
    "intervals": ("cos_2pi", "AlgebraicAngle.enclosure",
                  "AlgebraicAngle.enclosure_to_width"),
    "hermitian": ("interval_symmetric_signature",),
    "invariants": ("alexander_polynomial", "arf", "levine_tristram",
                   "signature_function", "fox_milnor_test"),
    "rho": ("rho0_from_step_function",),
    "diagrams": ("enumerate_diagrams", "canonical_form", "relation_matrix",
                 "rank_over_q"),
    "gropes": ("magnus_depth", "bracket_to_grope", "class_of"),
    "cli": ("main",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# its results are counted, for generators kept per canonical_form call
_ENUMERATE = "diagrams.enumerate_diagrams"


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.total_s = dict.fromkeys(NAMES, 0.0)
        self.generators = 0
        self._open = []  # time covered by children, one entry per open span

    def merge(self, data: dict) -> None:
        """Add the aggregates another process wrote with ``dump()``."""
        for name in NAMES:
            self.calls[name] += data["calls"][name]
            self.self_s[name] += data["self_s"][name]
            self.total_s[name] += data["total_s"][name]
        self.generators += data["generators"]

    def dump(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "total_s": self.total_s, "generators": self.generators}

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.calls[name] += 1
                self.self_s[name] += dur - self._open.pop()
                self.total_s[name] += dur
                if self._open:
                    self._open[-1] += dur
            if name == _ENUMERATE:
                self.generators += len(out)
            return out

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod in TRACED:
            importlib.import_module(f"knotbench.{mod}")
        holders = [m for n, m in sys.modules.items()
                   if n == "knotbench" or n.startswith("knotbench.")]
        for mod, fns in TRACED.items():
            module = sys.modules[f"knotbench.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                orig = getattr(module, fn)
                wrapper = self._wrap(name, orig)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, attr, wrapper)
