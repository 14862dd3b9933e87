"""Spans and counters around the library's layers, installed from outside `src/`.

`install()` replaces each target function with a wrapper at every name under
which a `quivergrass` module holds it, so calls that go through a
`from .x import f` copy are seen as well as module-internal calls.  A target
that no longer exists is reported as absent.  Spans (name, start, end,
parent, job) stay in memory; `Tracer.write` stores them when the pass ends.

A layer is the module a span's name starts with.  Self time is a span's
duration minus the durations of its child spans.  `linalg` functions are
counted but not timed: they are called millions of times and a timer per
call would distort them.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable

# (module, function, kind): kind "span" times each call, "gen" times each
# resume of a generator, "count" only counts calls.
TARGETS = (
    ("subspaces", "count_subreps", "span"),
    ("subspaces", "count_subreps_profile", "span"),
    ("euler", "good_primes", "span"),
    ("euler", "interpolate_counting_polynomial", "span"),
    ("euler", "counting_polynomial", "span"),
    ("euler", "euler_characteristic", "span"),
    ("euler", "iter_box_chi", "gen"),
    ("euler", "f_polynomial", "span"),
    ("model", "reduce_mod", "span"),
    ("model", "hom_dim", "span"),
    ("model", "ext1_dim", "span"),
    ("fpoly", "poly_matmul", "span"),
    ("fpoly", "poly_det", "span"),
    ("fpoly", "f_poly_multiply", "span"),
    ("dynkin", "solve_gamma", "span"),
    ("dynkin", "minor_argument_matrix", "span"),
    ("dynkin", "generalized_minor_A", "span"),
    ("dynkin", "dynkin_indecomposable", "span"),
    ("dynkin", "f_polynomial_via_minor", "span"),
    ("kronecker", "kronecker_chi", "span"),
    ("sampler", "example4_quartic", "span"),
    ("sampler", "example4_verify", "span"),
    ("sampler", "positivity_scan", "span"),
    ("linalg", "rref_insert", "count"),
    ("linalg", "matvec_mod", "count"),
    ("linalg", "in_span_mod", "count"),
    ("linalg", "rank_mod", "count"),
    ("linalg", "rref_frac", "count"),
)

LAYERS = ("subspaces", "euler", "model", "fpoly", "dynkin", "kronecker", "sampler", "bench")

# Every per-layer metric a traced run reports: (name, unit, better).
_CALLS_AND_SELF = ("subspaces.count_subreps", "subspaces.count_subreps_profile",
                   "euler.good_primes", "euler.interpolate_counting_polynomial",
                   "model.reduce_mod", "model.hom_dim", "model.ext1_dim",
                   "fpoly.poly_matmul", "fpoly.poly_det", "dynkin.dynkin_indecomposable")
_SELF_ONLY = ("euler.counting_polynomial", "euler.iter_box_chi", "dynkin.solve_gamma",
              "dynkin.minor_argument_matrix", "dynkin.generalized_minor_A",
              "kronecker.kronecker_chi", "sampler.example4_verify", "sampler.positivity_scan")
METRICS = (
    [m for name in _CALLS_AND_SELF
     for m in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))]
    + [(f"{name}.self_s", "s", "lower") for name in _SELF_ONLY]
    + [("subspaces.candidate_bound", "count", "lower"),
       ("subspaces.candidates", "count", "lower"),
       ("subspaces.s_per_candidate", "s", "lower"),
       ("euler.primes_skipped", "count", "lower"),
       ("euler.prime_yield", "ratio", "higher"),
       ("euler.prime_max", "prime", "lower"),
       ("euler.samples", "count", "lower"),
       ("euler.rejections", "count", "lower")]
    + [(f"linalg.{fn}.calls", "count", "lower")
       for module, fn, kind in TARGETS if kind == "count"]
    + [(f"share.{layer}", "ratio", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower")]
)

# Counters that must repeat exactly for a given seed.
DETERMINISTIC = (["euler.samples", "euler.prime_max", "euler.primes_skipped",
                  "subspaces.candidate_bound", "subspaces.candidates", "model.reduce_mod.calls"]
                 + [f"linalg.{fn}.calls" for module, fn, kind in TARGETS if kind == "count"])


class Tracer:
    """In-memory span log plus the counters the wrappers derive from arguments."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, job id]
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.counts: dict[str, int] = {}
        self.extra = {"candidate_bound": 0, "primes_tried": 0,
                      "primes_accepted": 0, "prime_max": 0, "samples": 0, "rejections": 0}
        self.absent: list[str] = []
        self.budgets: list = []     # every search budget created, for candidates

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.child_time.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.child_time[span[3]] += span[2] - span[1]

    def top_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (spans, summed self seconds)."""
        out: dict[str, list] = {}
        for (name, start, end, _, _), child in zip(self.spans, self.child_time):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# ---------------------------------------------------------------------------
# Derived counters, computed from arguments and results outside the timed span
# ---------------------------------------------------------------------------

def _gauss(m: int, e: int, q: int) -> int:
    """Gaussian binomial; the library's own is cached, and calling it here
    would warm that cache for the traced code."""
    if e < 0 or e > m:
        return 0
    num = den = 1
    for k in range(e):
        num *= q ** (m - k) - 1
        den *= q ** (k + 1) - 1
    return num // den


def _search_bound(rep, e) -> int:
    """Product of Gaussian binomials over the searched vertices.

    The final vertex of the topological order is counted by a closed form,
    not searched, when the quiver is acyclic.
    """
    order = rep.quiver.topological_order()
    searched = order[:-1] if order else range(rep.n)
    bound = 1
    for v in searched:
        bound *= _gauss(rep.dims[v], int(e[v]), rep.field)
    return bound


def _odd_primes_upto(n: int) -> int:
    return sum(1 for k in range(3, n + 1, 2) if all(k % d for d in range(3, int(k ** 0.5) + 1, 2)))


def _after_search(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:  # a profile request the search declined returns None
        tracer.extra["candidate_bound"] += _search_bound(args[0], args[1])


def _after_good_primes(tracer: Tracer, args, kwargs, result) -> None:
    if result:
        top = max(result)
        tracer.extra["primes_accepted"] += len(result)
        tracer.extra["primes_tried"] += _odd_primes_upto(top)
        tracer.extra["prime_max"] = max(tracer.extra["prime_max"], top)


def _after_interpolate(tracer: Tracer, args, kwargs, result) -> None:
    samples = args[0] if args else kwargs["samples"]
    tracer.extra["samples"] += len(samples)


HOOKS: dict[str, Callable] = {
    "subspaces.count_subreps": _after_search,
    "subspaces.count_subreps_profile": _after_search,
    "euler.good_primes": _after_good_primes,
    "euler.interpolate_counting_polynomial": _after_interpolate,
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def _span_wrapper(tracer: Tracer, name: str, orig, hook, rejection_type):
    def wrapper(*args, **kwargs):
        if tracer.top_name() == name:  # recursion: one span per outermost call
            return orig(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = orig(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index)
            if rejection_type is not None and isinstance(exc, rejection_type):
                tracer.extra["rejections"] += 1
            raise
        tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


def _gen_wrapper(tracer: Tracer, name: str, orig):
    def wrapper(*args, **kwargs):
        inner = orig(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            yield item
    return wrapper


def _count_wrapper(counts: dict, name: str, orig):
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return orig(*args, **kwargs)
    return wrapper


def _modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "quivergrass" or key.startswith("quivergrass."))]


def _replace_everywhere(orig, wrapper) -> None:
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def _install_budget_probe(tracer: Tracer, subspaces) -> None:
    """Count generated candidates by reading each search budget's `used`."""
    budget_cls = getattr(subspaces, "_Budget", None)
    if budget_cls is None or not hasattr(budget_cls, "tick"):
        tracer.absent.append("subspaces._Budget")
        return
    live = tracer.budgets

    class ProbedBudget(budget_cls):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live.append(self)

    subspaces._Budget = ProbedBudget


def install(tracer: Tracer) -> None:
    import importlib

    import quivergrass
    rejection_type = getattr(getattr(quivergrass, "errors", None), "NonPolynomialCount", None)
    for module_name, fn, kind in TARGETS:
        qualified = f"{module_name}.{fn}"
        try:
            module = importlib.import_module(f"quivergrass.{module_name}")
        except ImportError:
            tracer.absent.append(qualified)
            continue
        orig = getattr(module, fn, None)
        if orig is None:
            tracer.absent.append(qualified)
            continue
        if kind == "count":
            wrapper = _count_wrapper(tracer.counts, qualified, orig)
        elif kind == "gen":
            wrapper = _gen_wrapper(tracer, qualified, orig)
        else:
            rejections = rejection_type if fn == "interpolate_counting_polynomial" else None
            wrapper = _span_wrapper(tracer, qualified, orig, HOOKS.get(qualified), rejections)
        _replace_everywhere(orig, wrapper)
    try:
        _install_budget_probe(tracer, importlib.import_module("quivergrass.subspaces"))
    except ImportError:
        tracer.absent.append("subspaces._Budget")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    selfs = tracer.self_times()
    out: dict[str, float] = {}
    for name in _CALLS_AND_SELF:
        calls, self_s = selfs.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in _SELF_ONLY:
        out[f"{name}.self_s"] = selfs.get(name, (0, 0.0))[1]
    x = tracer.extra
    search_s = out["subspaces.count_subreps.self_s"] + out["subspaces.count_subreps_profile.self_s"]
    out["subspaces.candidate_bound"] = x["candidate_bound"]
    out["subspaces.candidates"] = sum(b.used for b in tracer.budgets)
    bound = x["candidate_bound"]
    out["subspaces.s_per_candidate"] = search_s / bound if bound else 0.0
    out["euler.primes_skipped"] = x["primes_tried"] - x["primes_accepted"]
    tried = x["primes_tried"]
    out["euler.prime_yield"] = x["primes_accepted"] / tried if tried else 0.0
    out["euler.prime_max"] = x["prime_max"]
    out["euler.samples"] = x["samples"]
    out["euler.rejections"] = x["rejections"]
    for module_name, fn, kind in TARGETS:
        if kind == "count":
            out[f"linalg.{fn}.calls"] = tracer.counts.get(f"{module_name}.{fn}", 0)
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, (_, self_s) in selfs.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    for layer in LAYERS:
        out[f"share.{layer}"] = by_layer[layer] / total if total else 0.0
    return out
