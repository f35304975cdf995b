"""Per-module self times and call counts, recorded from outside lzi.

The tracer wraps public functions of lzi's modules for the length of a
traced pass.  A name is rebound in every lzi module namespace that holds it
(``gaudin`` binds its own ``dot_coupling``, ``cli`` reaches ``ado`` through
the module), so calls are caught whichever namespace they go through.

A span's self time is its duration minus the time of the spans it directly
encloses; the stack of open spans is kept in memory and folded into totals
as each span closes, so millions of integrand calls cost no memory.
Count-only names add a call count and no span: their time stays in the
caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) pairs timed as spans; "EKZSolution.scalar" is a method
SPANS = (
    ("cli", "main"),
    ("propagator", "transition_matrix"),
    ("propagator", "evolve_operator"),
    ("propagator", "population_trajectory"),
    ("ado", "time_domain_wavefunction"),
    ("ado", "EKZSolution.scalar"),
    ("ado", "ekz_residual_check"),
    ("ado", "zero_curvature_residual"),
    ("demkov_osherov", "track_spectral_flow"),
    ("demkov_osherov", "spectral_roots"),
    ("gaudin", "richardson_integral"),
    ("gaudin", "kz_flatness_residual"),
    ("gaudin", "verify_commuting"),
    ("spin", "dot_coupling"),
)
COUNTS = (("spin", "embed"), ("spin", "commutator"))


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = []  # per open span: time covered by its direct children
        self._horizons = []  # horizons of the open transition_matrix spans
        self._saved = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, window=None):
        self_s, calls, stack = self.self_s, self.calls, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - stack.pop()
                self_s[name] += own
                calls[name] += 1
                if window is not None:
                    label = window(args)
                    if label:
                        self_s[f"{name}.{label}"] += own
                if stack:
                    stack[-1] += duration

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _transition_span(self, name: str, fn):
        inner = self._span(name, fn)
        horizons = self._horizons

        def wrapper(model, horizon, *args, **kwargs):
            horizons.append(float(horizon))
            try:
                return inner(model, horizon, *args, **kwargs)
            finally:
                horizons.pop()

        return wrapper

    def _window_label(self, args):
        """at_T / at_2T for the two propagations inside transition_matrix."""
        if not self._horizons or len(args) < 2:
            return None
        reach = args[1].t1 / self._horizons[-1]
        if abs(reach - 1.0) < 1e-9:
            return "at_T"
        if abs(reach - 2.0) < 1e-9:
            return "at_2T"
        return None

    # -- installing -------------------------------------------------------

    def _rebind(self, module_name: str, attr: str, make):
        module = sys.modules[f"lzi.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:  # a method: one binding, on its class
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, make(name, original))
            return
        original = getattr(module, attr)
        wrapped = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lzi" or mod_name.startswith("lzi.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        for module_name, attr in SPANS:
            if (module_name, attr) == ("propagator", "transition_matrix"):
                make = self._transition_span
            elif (module_name, attr) == ("propagator", "evolve_operator"):
                make = lambda name, fn: self._span(name, fn, window=self._window_label)
            else:
                make = self._span
            self._rebind(module_name, attr, make)
        for module_name, attr in COUNTS:
            self._rebind(module_name, attr, self._count)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def snapshot(self) -> dict:
        out = {f"{k}.s": v for k, v in self.self_s.items()}
        out.update({f"{k}.calls": v for k, v in self.calls.items()})
        return out
