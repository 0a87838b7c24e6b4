"""Span recorder for the traced benchmark run.

``Tracer.install()`` replaces each public function named in ``LAYERS`` with
a wrapper, in every loaded ``pzeta`` module that holds it, so calls made
inside the package are caught as well as the benchmark's own.  Nothing under
``src/`` changes, and ``uninstall()`` puts the originals back.

Each call is a span.  A span's self time is its duration minus the time its
child spans cover.  A generator (partition enumeration) is timed one
``next()`` at a time, so only the time spent producing partitions counts,
and it yields one span per generator with the number of items it produced.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from collections import defaultdict
from time import perf_counter

#: (module, public function) -> layer metric prefix.
LAYERS = {
    ("partitions", "enumerate_partitions_of_size"): "partitions",
    ("exact", "partition_zeta_exact"): "exact.partition_zeta_exact",
    ("exact", "bernoulli_numbers"): "exact.bernoulli_numbers",
    ("numeric", "riemann_zeta"): "numeric.riemann_zeta",
    ("numeric", "partition_zeta_family"): "numeric.partition_zeta_family",
    ("numeric", "direct_sum_truncated"): "numeric.direct_sum_truncated",
    ("numeric", "euler_product_eval"): "numeric.euler_product_eval",
    ("numeric", "pole_order_estimate"): "numeric.pole_order_estimate",
    ("qseries", "macmahon_exact_identity"): "qseries.macmahon_exact_identity",
    ("qseries", "macmahon_lhs"): "qseries.macmahon_series",
    ("qseries", "macmahon_rhs"): "qseries.macmahon_series",
    ("qseries", "faa_di_bruno_check"): "qseries.faa_di_bruno_check",
    ("qseries", "restricted_genfun_coeffs"): "qseries.restricted_genfun_coeffs",
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, layer, start, end, self seconds, items)
        self._open: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _enter(self) -> tuple[int, float]:
        span_id = next(self._ids)
        self._open.append([span_id, 0.0])
        return span_id, perf_counter()

    def _leave(self, layer: str, start: float) -> tuple[int, int | None, float, float]:
        end = perf_counter()
        span_id, covered = self._open.pop()
        self_s = end - start - covered
        self.self_s[layer] += self_s
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[1] += end - start
        return span_id, parent[0] if parent else None, end, self_s

    def _wrap_function(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, start = tracer._enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = getattr(exc, "partial", None)
                raise
            finally:
                sid, parent, end, self_s = tracer._leave(layer, start)
                tracer.spans.append((sid, parent, layer, start, end, self_s, 1))
                tracer.counts[layer + ".calls"] += 1
                if layer == "numeric.riemann_zeta" and result is not None:
                    tracer.counts["numeric.riemann_zeta.terms"] += result.terms_used

        return wrapper

    def _wrap_generator(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = last = None
            busy = 0.0
            items = 0
            span_id = next(tracer._ids)
            parent = tracer._open[-1][0] if tracer._open else None
            try:
                while True:
                    _, start = tracer._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        _, _, last, self_s = tracer._leave(layer, start)
                        first = start if first is None else first
                        busy += self_s
                    items += 1
                    yield item
            finally:
                tracer.counts[layer + ".enumerated"] += items
                tracer.spans.append((span_id, parent, layer, first, last, busy, items))

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        import pzeta

        modules = [m for name, m in sys.modules.items() if name == "pzeta" or name.startswith("pzeta.")]
        for (module, name), layer in LAYERS.items():
            original = getattr(getattr(pzeta, module), name)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(layer, original)
            else:
                wrapper = self._wrap_function(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ results

    def summary(self) -> dict:
        """Per-layer self seconds and counts, keyed by metric name."""
        out = {f"{layer}.self_s": s for layer, s in self.self_s.items()}
        out.update(self.counts)
        return out
