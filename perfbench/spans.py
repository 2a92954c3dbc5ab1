"""Outside-in spans around the public functions at each hyperctrl module boundary.

A ``Tracer`` replaces each traced function by a wrapper in every
``hyperctrl`` module that holds a reference to it (so ``cli``'s own imported
names are covered), plus ``numpy.linalg.svd`` and the
``AdjacencyTensor.kernel`` method. Wrappers exist only between ``install``
and ``uninstall``; ``installed_wrappers`` lists any that are left, so an
untraced run can prove it ran on the unmodified program.

Spans are kept in memory for one pass and folded into per-layer metrics by
``end_pass``. A span's self time is its duration minus the durations of its
direct child spans.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

_MARK = "_perfbench_wrapper"

# (module, attribute, span name). The attribute is looked up in its defining
# module; the wrapper is bound wherever hyperctrl holds that same object.
FUNCTION_TARGETS = (
    ("hyperctrl.cli", "main", "cli.main"),
    ("hyperctrl.hypergraph", "from_json_dict", "hypergraph.load"),
    ("hyperctrl.hypergraph", "adjacency_auto", "hypergraph.tensor_build"),
    ("hyperctrl.controllability", "closure_basis", "controllability.closure"),
    ("hyperctrl.mcn", "mcn_greedy", "mcn.greedy"),
    ("hyperctrl.mcn", "mcn_exact", "mcn.exact"),
    ("hyperctrl.mcn", "connected_components", "mcn.components"),
    ("hyperctrl.ingest", "load_time_series_csv", "ingest.load"),
    ("hyperctrl.ingest", "build_hypergraph", "ingest.score"),
)
# Counted per call, without a span: it runs once per scored tuple.
COUNT_TARGETS = (("hyperctrl.ingest", "multi_correlation", "ingest.tuples_scored"),)

# Per-layer metrics folded from one traced pass, with their units. The
# worker adds ``op_s.<input>`` and ``trace_overhead``.
LAYER_METRICS = (
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("hypergraph.load_s", "s"),
    ("hypergraph.tensor_build_s", "s"),
    ("hypergraph.patterns", "count"),
    ("tensor.kernel_build_s", "s"),
    ("tensor.kernel_rows", "count"),
    ("controllability.closure_calls", "count"),
    ("controllability.closure_rounds", "count"),
    ("controllability.closure_s", "s"),
    ("controllability.svd_calls", "count"),
    ("controllability.svd_cols", "count"),
    ("controllability.svd_s", "s"),
    ("controllability.contract_s", "s"),
    ("mcn.greedy_candidates", "count"),
    ("mcn.greedy_pick_ratio", "ratio"),
    ("mcn.greedy_self_s", "s"),
    ("mcn.exact_subsets", "count"),
    ("mcn.exact_self_s", "s"),
    ("mcn.components_s", "s"),
    ("ingest.load_s", "s"),
    ("ingest.score_s", "s"),
    ("ingest.tuples_scored", "count"),
    ("ingest.edges", "count"),
)
# Counts that must repeat exactly from pass to pass on the same inputs.
REPEATING_COUNTS = (
    "cli.calls",
    "hypergraph.patterns",
    "tensor.kernel_rows",
    "controllability.closure_calls",
    "controllability.closure_rounds",
    "controllability.svd_calls",
    "controllability.svd_cols",
    "mcn.greedy_candidates",
    "mcn.exact_subsets",
    "ingest.tuples_scored",
    "ingest.edges",
)


class _Span:
    __slots__ = ("name", "parent", "request", "start", "end", "count")

    def __init__(self, name, parent, request, start):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.count = 0


def _hyperctrl_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hyperctrl" or name.startswith("hyperctrl."))
    ]


def _kernel_owner():
    tensor = sys.modules.get("hyperctrl.tensor")
    return getattr(tensor, "AdjacencyTensor", None)


def installed_wrappers() -> list:
    """Names bound to a tracer wrapper anywhere the tracer patches."""
    found = []
    for mod in _hyperctrl_modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
    linalg = sys.modules.get("numpy.linalg")
    if linalg is not None and getattr(linalg.svd, _MARK, False):
        found.append("numpy.linalg.svd")
    owner = _kernel_owner()
    if owner is not None and getattr(owner.__dict__.get("kernel"), _MARK, False):
        found.append("hyperctrl.tensor.AdjacencyTensor.kernel")
    return found


class Tracer:
    """Installs span wrappers and folds each pass's spans into metrics."""

    def __init__(self):
        self.request = None
        self.missing: list[str] = []
        self._spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._undo: list[tuple] = []
        self._counts: dict = defaultdict(int)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, attr, name in FUNCTION_TARGETS:
            self._rebind(module, attr, self._span_wrapper(name, module, attr))
        for module, attr, name in COUNT_TARGETS:
            self._rebind(module, attr, self._count_wrapper(name, module, attr))
        self._patch_svd()
        self._patch_kernel()

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, module, attr, make_wrapper):
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(original)
        for holder in _hyperctrl_modules():
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, name, wrapper)

    def _patch_svd(self):
        import numpy.linalg as linalg

        original = linalg.svd
        tracer = self

        def svd(a, *args, **kwargs):
            # Only SVDs issued by a closure belong to the controllability layer.
            if not tracer._stack or tracer._stack[-1].name != "controllability.closure":
                return original(a, *args, **kwargs)
            span = tracer._open("controllability.svd")
            try:
                return original(a, *args, **kwargs)
            finally:
                span.count = a.shape[-1] if getattr(a, "ndim", 0) >= 2 else 0
                tracer._close(span)

        setattr(svd, _MARK, True)
        self._set(linalg, "svd", svd)

    def _patch_kernel(self):
        owner = _kernel_owner()
        original = owner.__dict__.get("kernel") if owner is not None else None
        if original is None:
            self.missing.append("hyperctrl.tensor.AdjacencyTensor.kernel")
            return
        tracer = self

        def kernel(tensor_self):
            # Only the first call per tensor builds; cached hits are not spans.
            if getattr(tensor_self, "_kernel", None) is not None:
                return original(tensor_self)
            span = tracer._open("tensor.kernel_build")
            try:
                built = original(tensor_self)
                span.count = int(built.coefs.size)
                return built
            finally:
                tracer._close(span)

        setattr(kernel, _MARK, True)
        self._set(owner, "kernel", kernel)

    def _span_wrapper(self, name, module, attr):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                    span.count = _result_count(name, result)
                    return result
                finally:
                    tracer._close(span)

            wrapper.__name__ = attr
            wrapper.__qualname__ = f"{module}.{attr}"
            setattr(wrapper, _MARK, True)
            return wrapper

        return make

    def _count_wrapper(self, name, module, attr):
        counts = self._counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            wrapper.__name__ = attr
            setattr(wrapper, _MARK, True)
            return wrapper

        return make

    # -- spans -------------------------------------------------------------

    def _open(self, name) -> _Span:
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, parent, self.request, time.perf_counter())
        self._spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def end_pass(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call."""
        spans, self._spans = self._spans, []
        counts = dict(self._counts)
        self._counts.clear()  # the count wrappers hold this same dict
        child_time: dict = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.end - span.start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        summed = defaultdict(int)
        closures_under = defaultdict(int)
        for span in spans:
            dur = span.end - span.start
            total[span.name] += dur
            self_time[span.name] += dur - child_time[id(span)]
            calls[span.name] += 1
            summed[span.name] += span.count
            if span.name == "controllability.closure" and span.parent is not None:
                closures_under[span.parent.name] += 1
        candidates = closures_under["mcn.greedy"]
        return {
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_time["cli.main"],
            "hypergraph.load_s": total["hypergraph.load"],
            "hypergraph.tensor_build_s": total["hypergraph.tensor_build"],
            "hypergraph.patterns": summed["hypergraph.tensor_build"],
            "tensor.kernel_build_s": total["tensor.kernel_build"],
            "tensor.kernel_rows": summed["tensor.kernel_build"],
            "controllability.closure_calls": calls["controllability.closure"],
            "controllability.closure_rounds": summed["controllability.closure"],
            "controllability.closure_s": total["controllability.closure"],
            "controllability.svd_calls": calls["controllability.svd"],
            "controllability.svd_cols": summed["controllability.svd"],
            "controllability.svd_s": total["controllability.svd"],
            # Closure self time: contraction plus stacking, without the SVDs
            # and the one-off kernel build that happen inside it.
            "controllability.contract_s": self_time["controllability.closure"],
            "mcn.greedy_candidates": candidates,
            "mcn.greedy_pick_ratio": (
                summed["mcn.greedy"] / candidates if candidates else 0.0
            ),
            "mcn.greedy_self_s": self_time["mcn.greedy"],
            "mcn.exact_subsets": closures_under["mcn.exact"],
            "mcn.exact_self_s": self_time["mcn.exact"],
            "mcn.components_s": total["mcn.components"],
            "ingest.load_s": total["ingest.load"],
            "ingest.score_s": total["ingest.score"],
            "ingest.tuples_scored": counts.get("ingest.tuples_scored", 0),
            "ingest.edges": summed["ingest.score"],
        }


def _result_count(name, result) -> int:
    """The count a span carries, read from the traced function's result."""
    if name == "hypergraph.tensor_build":
        return len(result.entries)
    if name == "controllability.closure":
        return int(result.iterations)
    if name == "mcn.greedy":
        return len(result.witness)
    if name == "ingest.score":
        return len(result.edges)
    return 0
