"""Span tracing around the public functions of semfab's modules.

The tracer patches module attributes from the outside; nothing inside
``src/semfab`` knows about it.  Every wrapped call becomes one span
``(name, parent, start, end, attrs)`` kept in memory; :meth:`Tracer.write`
dumps them once, when the benchmark ends.  A few functions also get a hook
that records counts from their arguments and result at the same boundary
(PCG iterations and matrix size, solve fingerprints, plan results, print
outcomes, report sizes).
"""

import functools
import hashlib
import inspect
import json
import os
import time
from collections import defaultdict


def _pcg_attrs(a, result):
    return {"iters": int(result[1]), "nnz": int(a["data"].size),
            "n": int(a["b"].size)}


def _solve_attrs(a, result):
    digest = hashlib.blake2b(digest_size=16)
    digest.update(a["system"].K.data.tobytes())
    digest.update(a["system"].rhs.tobytes())
    return {"key": digest.hexdigest()}


def _plan_attrs(a, result):
    return {"iters": result.iterations, "fem_solves": result.fem_solves,
            "objective": result.objective, "feasible": bool(result.feasible)}


def _print_attrs(a, result):
    warm = sum(rec.strategy == "warm_start" for rec in result.history)
    steps = len(result.history) if a["policy"].strategy == "warm_start" else 0
    return {"seed": result.seed, "outcome": result.outcome,
            "fem_solves": result.fem_solves, "warm": warm,
            "warm_steps": steps}


def _report_attrs(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# counts recorded at a span's boundary: (bound arguments, result) -> attrs
HOOKS = {
    "_kernels.pcg_csr": _pcg_attrs,
    "fem.solve": _solve_attrs,
    "optimize.inversion_solve": _plan_attrs,
    "printsim.run_print": _print_attrs,
    "printsim.save_report": _report_attrs,
}

# the two boundaries the untraced run still needs: plan_s and print_s
BOUNDARY = ("optimize.inversion_solve", "printsim.run_print")


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def public_functions(module):
    """Callables defined in ``module`` under a public name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


class Tracer:
    """Wraps public functions of ``modules`` while installed.

    ``only`` restricts wrapping to the listed span names.  References a
    module imported by name from another module (``from .mesh import
    face_adjacency``) are patched too, so those calls are seen as well.
    """

    def __init__(self, modules, only=None):
        self.modules = list(modules)
        self.only = None if only is None else set(only)
        self.spans = []  # (name, parent, start, end, attrs); parent -1 = root
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end,
                              {"error": type(exc).__name__})
                raise
            end = clock()
            stack.pop()
            attrs = None
            if hook:
                attrs = hook(signature.bind(*args, **kwargs).arguments, result)
            spans[idx] = (name, parent, start, end, attrs)
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for module in self.modules:
            for attr, fn in public_functions(module).items():
                name = f"{_short(module)}.{attr}"
                if self.only is None or name in self.only:
                    wrappers[id(fn)] = self._wrap(name, fn)
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def write(self, path):
        """Write all spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, start, end, attrs) in enumerate(self.spans):
                doc = {"id": idx, "parent": parent, "name": name,
                       "start": start, "end": end}
                if attrs:
                    doc["attrs"] = attrs
                fh.write(json.dumps(doc) + "\n")


def self_times(spans, lo=0, hi=None):
    """Seconds of each span in ``spans[lo:hi]`` not covered by its children.

    Children of one parent never overlap in this single-threaded program,
    but the coverage is merged as intervals so that it never counts twice.
    """
    hi = len(spans) if hi is None else hi
    children = defaultdict(list)
    for idx in range(lo, hi):
        parent = spans[idx][1]
        if parent >= lo:
            children[parent].append((spans[idx][2], spans[idx][3]))
    out = {}
    for idx in range(lo, hi):
        _, _, start, end, _ = spans[idx]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[idx] = (end - start) - covered
    return out


def aggregate(spans, lo=0, hi=None):
    """Per span name: calls, inclusive seconds, self seconds, attrs list."""
    hi = len(spans) if hi is None else hi
    own = self_times(spans, lo, hi)
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                 "attrs": []})
    for idx in range(lo, hi):
        name, _, start, end, attrs = spans[idx]
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own[idx]
        if attrs:
            entry["attrs"].append(attrs)
    return stats
