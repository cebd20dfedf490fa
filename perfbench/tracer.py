"""Call-boundary tracing for the traced runs.

``install()`` wraps the public functions of every weakforce module (those in
its ``__all__``, plus ``dynamics.potential_hessian_vec`` and ``cli.main``,
less ``fileio.format_float``) wherever a module binds them, so both
``from .x import f`` callers and ``module.f`` lookups go through the wrapper.
It also wraps the ``fun_grad`` and ``apply_h0`` callbacks that ``action``
passes to ``optimize.lbfgs``, which splits the L-BFGS loop from the objective
and the preconditioner without touching private functions. Library source is
not modified.

Spans are aggregated in memory per function as they close (calls,
inclusive time, self time = inclusive minus the time of directly nested
spans) together with a few counters, and handed over by ``summary()`` when
the run ends. No weakforce public function calls itself, so inclusive times
do not double count.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter
from types import FunctionType

EXTRA_PUBLIC = {"dynamics": ("potential_hessian_vec",), "cli": ("main",)}
# called once per number written; a span each would double the traced
# time of writing a trajectory CSV
UNTRACED = {"fileio.format_float"}
KERNEL = ("potential", "potential_gradient", "potential_hessian_vec")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive s, self s]
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [child time, key] of each open span

    def wrap(self, key: str, fn, pre=None, post=None):
        """Time ``fn`` under ``key``; ``pre`` may rewrite args, ``post`` sees the result."""
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            frame = [0.0, key]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    # -- hooks: counters measured at the boundary where the work happens

    def _kernel_pre(self, args, kwargs):
        x = args[0]
        configs = math.prod(x.shape[:-2])
        n = x.shape[-2]
        self.counters["configs"] += configs
        self.counters["pair_configs"] += configs * n * (n - 1) // 2
        return args, kwargs

    def _lbfgs_pre(self, args, kwargs):
        counters = self.counters

        def veto_post(_a, _k, result):
            if result[0] == math.inf:
                counters["vetoes"] += 1

        fun_grad, *rest = args
        args = (self.wrap("action.objective", fun_grad, post=veto_post), *rest)
        if kwargs.get("apply_h0") is not None:
            kwargs["apply_h0"] = self.wrap("action.precond", kwargs["apply_h0"])
        if any(frame[1] == "action.minimize_free_time" for frame in self._stack):
            counters["inner_in_free_time"] += 1
        return args, kwargs

    def _lbfgs_post(self, _args, _kwargs, outcome):
        self.counters["lbfgs_iterations"] += outcome.iterations
        self.counters["lbfgs_evals"] += outcome.n_evals
        self.counters["lbfgs_not_converged"] += not outcome.converged

    def _golden_pre(self, args, kwargs):
        counters = self.counters
        fun = args[0]

        def counted(t):
            counters["golden_evals"] += 1
            return fun(t)

        return (counted,) + tuple(args[1:]), kwargs

    def _status_post(self, _args, _kwargs, result):
        self.counters["status." + result.status] += 1

    def _construct_post(self, _args, _kwargs, run):
        self.counters["segments_total"] += sum(leg.path.n_segments for leg in run.legs)

    def _write_post(self, args, kwargs, _result):
        path = args[0] if args else kwargs["path"]
        self.counters["bytes_written"] += os.path.getsize(path)

    def hooks(self, key: str) -> dict:
        layer, name = key.split(".", 1)
        if layer == "dynamics" and name in KERNEL:
            return {"pre": self._kernel_pre}
        if key == "optimize.lbfgs":
            return {"pre": self._lbfgs_pre, "post": self._lbfgs_post}
        if key == "optimize.golden_section":
            return {"pre": self._golden_pre}
        if key in ("action.minimize_free_time", "action.minimize_fixed_time"):
            return {"post": self._status_post}
        if key == "hyperbolic.construct":
            return {"post": self._construct_post}
        if layer == "fileio" and name.startswith("write_"):
            return {"post": self._write_post}
        return {}

    def summary(self) -> dict:
        return {"stats": self.stats, "counters": dict(self.counters)}


def install() -> Tracer:
    """Wrap every public weakforce function in all loaded weakforce modules."""
    tracer = Tracer()
    modules = [
        m for name, m in sorted(sys.modules.items()) if name.startswith("weakforce.")
    ]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.split(".", 1)[1]
        names = list(getattr(mod, "__all__", ())) + list(EXTRA_PUBLIC.get(layer, ()))
        for name in names:
            fn = getattr(mod, name, None)
            key = f"{layer}.{name}"
            if (isinstance(fn, FunctionType) and fn.__module__ == mod.__name__
                    and key not in UNTRACED):
                wrappers[fn] = tracer.wrap(key, fn, **tracer.hooks(key))
    for mod in modules + [sys.modules["weakforce"]]:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, FunctionType) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    return tracer
