"""Spans around fptkit's layers, installed from outside the package.

`Tracer.install` replaces each traced function by a wrapper in every
fptkit module that holds it, under whatever name: modules bind imported
names at import time (`frobenius` holds `truncated_power`, `polymul_mod` and
`is_prime`; `bounds` holds `dset_below` and `largest_below`; `pairs` holds
`nu` as `frobenius_nu`), so rebinding only the defining module would lose
calls.  `uninstall` puts the originals back.

A span is a name, its parent span, the request it belongs to, start and end
times, and two integer attributes (operand products and packed bytes for a
multiply, the level e for a nu call, and so on).  Spans live in flat arrays
in memory and are aggregated after the traced pass.  Cache hit ratios come
from `cache_info()` deltas of the package's `lru_cache` functions, not from
wrapping them.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# the oracle's short operand is g(t), at most d + 1 coefficients; the
# largest arrangement any workload sends has d = 36
SHORT_OPERAND = 40
ROUTES = ("schoolbook", "kronecker", "compiled")
SHAPES = ("square", "dense_x_short", "other")
# certify's degenerate_lemma rule is a backstop no klt input reaches (a
# degenerate model fails boundary reduction only with a weight above 1), so
# it has no row
CERTIFY_REASONS = ("boundary_reduction", "hara_monsky_rule", "oracle_escalation", "not_klt",
                   "inconclusive")
NU_LEVELS = 5


def polymul_shape(la: int, lb: int) -> str:
    if la == lb:
        return "square"
    if min(la, lb) <= SHORT_OPERAND:
        return "dense_x_short"
    return "other"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def fptkit_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "fptkit" or n.startswith("fptkit.")]


def cache_stats() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every lru_cache function in the package, by name."""
    out = {}
    for mod in fptkit_modules():
        for attr, value in vars(mod).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == mod.__name__:
                ci = info()
                out[f"{mod.__name__}.{attr}"] = (ci.hits, ci.misses)
    return out


def clear_caches() -> None:
    for mod in fptkit_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []
        self._patched: list = []

    # -------------------------------------------------------------- recording

    def _open(self) -> int:
        idx = len(self.start)
        self.name.append(-1)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.a.append(0)
        self.b.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx, name, a=0, b=0):
        self.end[idx] = perf_counter()
        self._stack.pop()
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name[idx] = nid
        self.a[idx] = a
        self.b[idx] = b

    def _span(self, fn, describe):
        def traced(*args, **kwargs):
            idx = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, *describe(args, kwargs, None, exc))
                raise
            self._close(idx, *describe(args, kwargs, result, None))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """targets: (module, attribute, describe) triples.

        describe(args, kwargs, result, exc) -> (span name, a, b).
        """
        wrappers = {}
        for mod, attr, describe in targets:
            orig = getattr(mod, attr)
            wrappers[id(orig)] = (orig, self._span(orig, describe))
        for mod in fptkit_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        for mod, attr, _ in targets:
            if getattr(getattr(mod, attr), "__wrapped__", None) is None:
                raise RuntimeError(f"{mod.__name__}.{attr} was not rebound")

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -------------------------------------------------------------- reading

    def __len__(self):
        return len(self.start)

    def summary(self):
        """Per-name calls, inclusive and self seconds, attribute sums, and
        per-span helpers the metrics need."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
        return _Summary(self, dur, child)


class _Summary:
    def __init__(self, tracer: Tracer, dur, child):
        self.t = tracer
        self.dur = dur
        self.child = child
        self.by_name: dict[str, list[int]] = {}
        for i in range(len(dur)):
            self.by_name.setdefault(tracer.names[tracer.name[i]], []).append(i)

    def spans(self, name):
        return self.by_name.get(name, [])

    def prefixed(self, prefix):
        return [i for n, ix in self.by_name.items() if n.startswith(prefix) for i in ix]

    def calls(self, name) -> int:
        return len(self.spans(name))

    def ms(self, name) -> float:
        return 1e3 * sum(self.dur[i] for i in self.spans(name))

    def self_ms(self, name) -> float:
        return 1e3 * sum(self.dur[i] - self.child[i] for i in self.spans(name))

    def attr_sum(self, name, attr="a") -> int:
        col = getattr(self.t, attr)
        return sum(col[i] for i in self.spans(name))

    def _layer(self, i) -> str:
        return self.t.names[self.t.name[i]].split(".", 1)[0]

    def layer_ms(self, layer) -> float:
        """Time inside the layer's outermost spans (nested ones not re-counted)."""
        total = 0.0
        t = self.t
        for i in self.prefixed(layer + "."):
            par = t.parent[i]
            while par >= 0 and self._layer(par) != layer:
                par = t.parent[par]
            if par < 0:
                total += self.dur[i]
        return 1e3 * total

    def under(self, name, ancestor) -> int:
        """Number of `name` spans with an `ancestor` span above them."""
        t, target = self.t, self.t._ids.get(ancestor)
        count = 0
        for i in self.spans(name):
            par = t.parent[i]
            while par >= 0 and t.name[par] != target:
                par = t.parent[par]
            count += par >= 0
        return count

    def per_request(self, name) -> Counter:
        return Counter(self.t.request[i] for i in self.spans(name))
