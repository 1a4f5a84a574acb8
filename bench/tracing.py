"""In-memory span tracer that wraps censem's public functions where they
are looked up.

censem modules import each other's functions by name (`from .rootfind
import solve_bracketed`), so a call is intercepted by replacing the
name in the calling module's namespace, not in the defining module.
Each wrapper records a span (name, start, end, parent) and adds its
duration to the parent's child time, so a span's self time is its
duration minus the part its children cover.  Hot leaf layers
(root solves, special functions, the final E-step) are only
aggregated; coarser spans are also kept for the span dump.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

# (attribute owner, attribute name, span name, keep raw spans)
_SITES = [
    ("cli", "read_censored_sample", "cli.read_censored_sample", True),
    ("cli", "read_integer_series", "cli.read_integer_series", True),
    ("cli", "fit", "em_core.fit", True),
    ("cli", "run_selection", "model_select.run_selection", True),
    ("cli", "profile_intraday", "model_select.profile_intraday", True),
    ("model_select", "fit", "em_core.fit", True),
    ("model_select", "bootstrap_resample", "sample_data.bootstrap_resample", True),
    ("model_select", "bucket_by_time", "sample_data.bucket_by_time", True),
    ("model_select", "build_sample", "sample_data.build_sample", True),
    ("model_select", "diff_and_round", "sample_data.diff_and_round", True),
    ("model_select", "subsample", "sample_data.subsample", True),
    ("model_select", "welch_t", "model_select.welch_t", True),
    ("em_core", "e_step", "em_core.e_step", False),
    ("em_core", "solve_bracketed", "rootfind.solve_bracketed", False),
    ("em_core", "golden_max", "rootfind.golden_max", False),
    ("em_core", "gamma_upper", "special_fn.gamma_upper", False),
    ("em_core", "gamma_lower", "special_fn.gamma_lower", False),
    ("em_core", "gamma_complete", "special_fn.gamma_complete", False),
    ("em_core", "d_series", "special_fn.d_series", False),
]


@dataclass
class FitRecord:
    shape: str
    ms: float
    iterations: int
    converged: bool
    degenerate: bool
    unique_ratio: float


@dataclass
class Tracer:
    """Collects per-name totals [calls, seconds, self seconds], kept spans,
    per-fit records and root-solve evaluation counts."""

    totals: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    fits: list = field(default_factory=list)
    fit_raised: int = 0
    root_evals: int = 0
    _stack: list = field(default_factory=list)  # [span id, child seconds]
    _next_id: int = 0
    _originals: list = field(default_factory=list)

    def install(self, modules: dict) -> None:
        for owner, attr, name, keep in _SITES:
            mod = modules[owner]
            orig = getattr(mod, attr)
            self._originals.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig, keep))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._originals):
            setattr(mod, attr, orig)
        self._originals.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a kept span named `name`."""
        return self._wrap(name, fn, True)(*args, **kwargs)

    def _wrap(self, name: str, fn, keep: bool):
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        is_fit = name == "em_core.fit"
        is_root = name == "rootfind.solve_bracketed"

        def wrapper(*args, **kwargs):
            if is_root:
                args = (self._counting(args[0]),) + args[1:]
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if keep:
                    self.spans.append((span_id, parent, name, t0, t1))
                if is_fit:
                    self._record_fit(args, result, dur)
                if stack:
                    # Bookkeeping after t1 counts as the parent's child
                    # time, so it never shows up as the parent's self time.
                    stack[-1][1] += time.perf_counter() - t0
            return result

        return wrapper

    def _counting(self, f):
        def counted(x):
            self.root_evals += 1
            return f(x)

        return counted

    def _record_fit(self, args, result, dur: float) -> None:
        if result is None:
            self.fit_raised += 1
            return
        sample, shape = args[0], args[1]
        n = sample.n
        ratio = np.unique(sample.uncensored).size / n if n else 0.0
        self.fits.append(
            FitRecord(
                shape=f"{shape[0]}-{shape[1]}",
                ms=1e3 * dur,
                iterations=result.iterations,
                converged=bool(result.converged),
                degenerate=bool(result.degenerate),
                unique_ratio=ratio,
            )
        )
