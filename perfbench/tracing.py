"""In-memory spans around calls into galp's modules, recorded from outside.

The solver's modules import their collaborators by name, so a call is only
seen if the wrapper sits at the binding the caller looks up.  ``BINDINGS``
lists every such site on the solve path; ``patched`` installs wrappers there
and restores the originals on exit.  Spans carry a parent index, so self
time is a span's duration minus the durations of its direct children (calls
are sequential, so children never overlap).
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import time
from collections import Counter

# module path -> attribute names the solve path looks up there
BINDINGS = {
    "galp.solver": (
        "descent_direction",
        "feasibility_direction",
        "reproject",
        "max_step",
        "scaling_diagonals",
        "primal_infeasibility",
        "iterate_once",
        "choose_start",
        "recover_duals",
    ),
    "galp.directions": ("solve", "scaling_diagonals", "assemble_normal", "factor"),
    "galp.linalg": ("assemble_normal", "factor", "solve"),
}


def span_name(fn) -> str:
    """'<defining module>.<function>', e.g. 'penalty.scaling_diagonals'."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Spans as [name, parent, t0, t1, note]; parent is an index or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.exceptions: Counter = Counter()  # (span name, exception class) -> count
        self._stack: list[int] = []

    def wrap(self, fn, name=None, note=None):
        """Wrapper that records one span per call; ``note(args, result)`` may attach data.

        Exceptions are counted by class and re-raised.  Kept free of context
        managers: it runs about 16 times per solver iteration.
        """
        name = name or span_name(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[4] = note(args, result)
                return result
            except Exception as exc:
                self.exceptions[(name, type(exc).__name__)] += 1
                raise
            finally:
                rec[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Spans as gzip CSV: index, parent, name, start and end in ns from the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("index,parent,name,start_ns,end_ns,note\n")
            for i, (name, parent, t0, t1, note) in enumerate(self.spans):
                note = "" if note is None else ":".join(repr(v) for v in note)
                fh.write(f"{i},{parent},{name},{round((t0 - base) * 1e9)},{round((t1 - base) * 1e9)},{note}\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the summed durations of its direct children."""
    out = [t1 - t0 for _, _, t0, t1, _ in spans]
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def totals(spans) -> dict:
    """Per span name: number of calls, total inclusive time and total self time (s)."""
    agg: dict = {}
    for (name, _, t0, t1, _), own in zip(spans, self_times(spans)):
        calls, incl, self_s = agg.get(name, (0, 0.0, 0.0))
        agg[name] = (calls + 1, incl + (t1 - t0), self_s + own)
    return agg


def _factor_note(args, result):
    # m and the regularization actually applied, for GFLOP/s and rho > 0 share
    return (args[0].shape[0], result.rho)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install span wrappers at every binding in BINDINGS; restore on exit."""
    saved = []
    wrappers: dict = {}
    try:
        for modname, attrs in BINDINGS.items():
            mod = importlib.import_module(modname)
            for attr in attrs:
                fn = getattr(mod, attr)
                if fn not in wrappers:
                    note = _factor_note if span_name(fn) == "linalg.factor" else None
                    wrappers[fn] = tracer.wrap(fn, note=note)
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
