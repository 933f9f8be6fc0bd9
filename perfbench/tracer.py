"""Outside-in span recorder for traced benchmark passes.

``install`` wraps the public names of the hyperquot modules at their call
sites (the module globals the callers look up), so no file of the package
changes.  A span is a list ``[name, start, end, parent, case, leaf_s]``; its
id is its index in ``Recorder.spans`` and ``parent`` is the id of the
enclosing span (-1 for none).  Spans stay in memory until the pass ends.

``EPoly`` arithmetic and the steps of the fixed-component generator run far
too often for one span each.  They are leaves: the recorder sums their calls
and time into counters and adds their time to ``leaf_s`` of the span they
ran in, so that span's self time excludes them.

``self_times`` and ``layer_metrics`` turn one pass's spans and counters into
the per-layer metrics; they need no hyperquot import.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

# Span names whose self time and call count become ``<name>_s`` and
# ``<name>_calls``.  ``cli.case`` is the root span of one case; its self time
# is the CLI's own overhead.
SPAN_METRIC = {"cli.case": "cli.overhead"}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = [["root", 0.0, 0.0, -1, None, 0.0]]
        self.ids: list[int] = [-1]
        self.case = None
        self.counters: dict[str, float] = defaultdict(int)
        self.max_abs_coeff = 0

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.ids[-1], self.case, 0.0]
        self.ids.append(len(self.spans))
        self.spans.append(span)
        self.stack.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list):
        span[2] = time.perf_counter()
        self.stack.pop()
        self.ids.pop()

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call is one span."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapped

    def work(self, name: str, fn, amount=lambda *args: 1):
        """Wrap ``fn`` to add ``amount(*args)`` (by default 1) to counter
        ``name`` per call; its time stays with the caller."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counters[name] += amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapped

    def leaf(self, name: str, fn, pairs=None):
        """Wrap a binary ``EPoly`` operator as a leaf."""
        stack = self.stack
        counters = self.counters
        perf = time.perf_counter
        calls, seconds = f"{name}_calls", f"{name}_s"

        @functools.wraps(fn)
        def wrapped(a, b):
            t0 = perf()
            res = fn(a, b)
            dt = perf() - t0
            stack[-1][5] += dt
            counters[calls] += 1
            counters[seconds] += dt
            if pairs is not None:
                counters[pairs] += len(a.terms) * len(getattr(b, "terms", (0,)))
                values = res.terms.values()
                if values:
                    m = max(max(values), -min(values))
                    if m > self.max_abs_coeff:
                        self.max_abs_coeff = m
            return res

        return wrapped

    def leaf_generator(self, name: str, fn, items: str):
        """Wrap a generator function; time is taken around each ``next()``,
        which is where a generator's body runs."""
        stack = self.stack
        counters = self.counters
        perf = time.perf_counter
        seconds = f"{name}_s"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    dt = perf() - t0
                    stack[-1][5] += dt
                    counters[seconds] += dt
                    return
                dt = perf() - t0
                stack[-1][5] += dt
                counters[seconds] += dt
                counters[items] += 1
                yield item

        return wrapped

    def totals(self, block_permutations) -> dict[str, float]:
        """The counters of the pass, with the cache statistics of
        ``block_permutations`` and the largest coefficient seen."""
        info = block_permutations.cache_info()
        calls = info.hits + info.misses
        out = dict(self.counters)
        out["combinat.block_permutations_calls"] = calls
        out["combinat.block_permutations_hit_ratio"] = info.hits / calls if calls else 0.0
        out["epoly.max_coeff_bits"] = self.max_abs_coeff.bit_length()
        return out


def _window_cells(a, *_args) -> int:
    return math.prod(h - l + 1 for l, h in zip(a.window.lo, a.window.hi))


def _term_pairs(a, terms) -> int:
    """Coefficient products of ``multiply_sparse``; every caller passes
    ``terms`` as a list, so counting does not consume it."""
    return len(a.coeffs) * sum(1 for _, c in terms if c)


def install(rec: Recorder):
    """Wrap every traced name of the hyperquot modules."""
    from hyperquot import cli, curve_motives, formulas, oracle, qseries
    from hyperquot.epoly import EPoly

    EPoly.__mul__ = EPoly.__rmul__ = rec.leaf("epoly.mul", EPoly.__mul__, "epoly.mul_pairs")
    EPoly.__add__ = EPoly.__radd__ = rec.leaf("epoly.add", EPoly.__add__)
    qseries.MSeries.__add__ = rec.work("qseries.add_calls", qseries.MSeries.__add__)

    geometric_divide = rec.work(
        "qseries.geometric_divide_cells",
        rec.span("qseries.geometric_divide", qseries.geometric_divide),
        _window_cells,
    )
    multiply_sparse = rec.work(
        "qseries.multiply_sparse_pairs",
        rec.span("qseries.multiply_sparse", qseries.multiply_sparse),
        _term_pairs,
    )
    shift_rewindow = rec.span("qseries.shift_rewindow", qseries.shift_rewindow)
    enumerate_components = rec.leaf_generator(
        "oracle.enumerate", oracle.enumerate_fixed_components, "oracle.components"
    )

    curve_motives.geometric_divide = geometric_divide
    curve_motives.multiply_sparse = multiply_sparse
    formulas.geometric_divide = geometric_divide
    formulas.multiply_sparse = multiply_sparse
    formulas.shift_rewindow = shift_rewindow
    formulas.zeta_divide = rec.span("curve_motives.zeta_divide", curve_motives.zeta_divide)
    formulas._sigma_series = rec.span("formulas.sigma", formulas._sigma_series)
    oracle.nested_hilb_class = rec.span("curve_motives.nested_hilb", curve_motives.nested_hilb_class)
    oracle.enumerate_fixed_components = enumerate_components

    cli.motivic_partition_function = rec.span("formulas.motivic", formulas.motivic_partition_function)
    cli.euler_partition_function = rec.span("formulas.euler", formulas.euler_partition_function)
    cli.genus0_closed_form = rec.span("formulas.genus0", formulas.genus0_closed_form)
    cli.oracle_partition_function = rec.span("oracle.partition", oracle.oracle_partition_function)
    cli.enumerate_fixed_components = enumerate_components
    cli.shift_rewindow = shift_rewindow
    cli.series_to_json = rec.span("qseries.to_json", qseries.series_to_json)
    cli.smoothness_status = rec.work("smoothness.status_calls", cli.smoothness_status)
    cli._emit = rec.span("cli.emit", cli._emit)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover and
    minus the leaf time recorded in it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, case, leaf_s) in enumerate(spans):
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(max(0.0, end - start - covered - leaf_s))
    return out


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one pass: ``<span>_s`` (summed self time) and
    ``<span>_calls`` for every span name, the counters, and the longest
    single block-permutation span as ``formulas.sigma_max_s``."""
    out: dict[str, float] = defaultdict(int)
    for (name, start, end, *_), own in zip(spans, self_times(spans)):
        key = SPAN_METRIC.get(name, name)
        out[f"{key}_s"] += own
        out[f"{key}_calls"] += 1
        if name == "formulas.sigma":
            out["formulas.sigma_max_s"] = max(out["formulas.sigma_max_s"], end - start)
    out.update(counters)
    return out
