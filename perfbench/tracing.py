"""Outside-in tracing of the library's layers.

``Tracer.install`` wraps every public function and public method of each
layer module (one module per layer, named in ``LAYERS``) and rebinds the
wrappers wherever the package holds the originals, so calls between
modules pass through them too.  Nothing inside the library changes.

A span ``(name, start, end, parent, query id)`` is recorded when a call
crosses into a layer from another layer or from the benchmark; a call
that stays inside its caller's layer is only counted.  Spans stay in
memory, in flat arrays, until the run ends.  A layer's self time is the
duration of its spans minus the duration of their child spans.
"""

from __future__ import annotations

import enum
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("surd", "chern", "exceptional", "frontier", "helix", "decompose", "render", "cli")

# Functions whose call counts are reported on their own (see README.md).
COUNTED = {
    "exceptional.locate_calls": "exceptional.locate_exceptional",
    "exceptional.contains_slope_calls": "exceptional.ExceptionalBundle.contains_slope",
    "exceptional.compose_calls": "exceptional.compose",
    "chern.twist_calls": "chern.twist",
    "chern.normalize_calls": "chern.normalize",
    "surd.compare_calls": "surd.QuadSurd.compare",
    "helix.children_calls": "helix.children",
    "frontier.delta_calls": "frontier.delta",
}


def cache_stats(package) -> dict:
    """Summed ``cache_info()`` of the public cached functions of the
    exceptional layer: hits, misses and current entries."""
    hits = misses = entries = 0
    for attr, obj in vars(package.exceptional).items():
        original = getattr(obj, "__traced__", obj)
        if not attr.startswith("_") and hasattr(original, "cache_info"):
            info = original.cache_info()
            hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
    return {"hits": hits, "misses": misses, "entries": entries}


def _targets(module):
    """(qualified name, owner, attribute, function, is_classmethod) per public callable."""
    layer = module.__name__.rsplit(".", 1)[1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if issubclass(obj, (enum.Enum, BaseException)):
                continue
            for name, member in list(vars(obj).items()):
                if name.startswith("_"):
                    continue
                if isinstance(member, classmethod):
                    yield f"{layer}.{attr}.{name}", obj, name, member.__func__, True
                elif inspect.isfunction(member):
                    yield f"{layer}.{attr}.{name}", obj, name, member, False
        elif callable(obj):
            yield f"{layer}.{attr}", module, attr, obj, False


class Tracer:
    """Wraps the layers of one imported package at a time; spans and
    counts accumulate across installs until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.calls: list[int] = []
        self._index: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_query = array("l")
        self.query = -1
        self.max_rank_bits = 0
        self.cache = {"hits": 0, "misses": 0, "entries": 0}
        self.import_s = 0.0
        self.children: list[dict] = []
        self._stack: list[tuple[int, int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name(self, qualified: str, layer: int) -> int:
        if qualified not in self._index:
            self._index[qualified] = len(self.names)
            self.names.append(qualified)
            self.name_layer.append(layer)
            self.calls.append(0)
        return self._index[qualified]

    def _wrap(self, fn, ni: int, li: int, observe_rank: bool):
        stack, calls = self._stack, self.calls
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, queries = self.span_parent, self.span_query
        tracer = self

        def traced(*args, **kwargs):
            calls[ni] += 1
            if stack and stack[-1][1] == li:
                result = fn(*args, **kwargs)
            else:
                i = len(starts)
                names.append(ni)
                parents.append(stack[-1][0] if stack else -1)
                queries.append(tracer.query)
                starts.append(0.0)
                ends.append(0.0)
                stack.append((i, li))
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = perf_counter()
                    starts[i] = t0
                    stack.pop()
            if observe_rank:
                rank = getattr(result, "rank", None)
                if isinstance(rank, int) and rank.bit_length() > tracer.max_rank_bits:
                    tracer.max_rank_bits = rank.bit_length()
            return result

        traced.__traced__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the layers of ``package`` that are already imported."""
        prefix = package.__name__
        wrappers: dict[int, object] = {}
        for li, layer in enumerate(LAYERS):
            module = sys.modules.get(f"{prefix}.{layer}")
            if module is None:
                continue
            for qualified, owner, attr, fn, is_classmethod in _targets(module):
                wrapper = self._wrap(fn, self._name(qualified, li), li, layer == "exceptional")
                if owner is module:
                    wrappers[id(fn)] = wrapper
                    continue
                self._undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == prefix or name.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and not attr.startswith("__"):
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def count(self, qualified: str) -> int:
        i = self._index.get(qualified)
        return self.calls[i] if i is not None else 0

    def add_cache(self, before: dict, after: dict) -> None:
        """Account the cache activity between two ``cache_stats`` readings."""
        self.cache["hits"] += after["hits"] - before["hits"]
        self.cache["misses"] += after["misses"] - before["misses"]
        self.cache["entries"] = max(self.cache["entries"], after["entries"])

    def absorb(self, child: dict) -> None:
        """Keep the summary of a traced child process."""
        self.children.append(child)

    def summary(self) -> dict:
        """Raw totals over this process and absorbed children: self seconds
        and calls per layer, counted calls, triangle locates, largest rank
        seen, spans, import seconds and cache activity."""
        total = self._own_summary()
        for child in self.children:
            for key in ("self_s", "calls", "counted", "cache"):
                for name, value in child[key].items():
                    if key == "cache" and name == "entries":
                        total[key][name] = max(total[key][name], value)
                    else:
                        total[key][name] += value
            for key in ("triangle_locates", "spans", "import_s"):
                total[key] += child[key]
            total["max_rank_bits"] = max(total["max_rank_bits"], child["max_rank_bits"])
        return total

    def _own_summary(self) -> dict:
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            layer = LAYERS[self.name_layer[self.span_name[i]]]
            self_s[layer] += self.span_end[i] - self.span_start[i] - child[i]
        layer_calls = dict.fromkeys(LAYERS, 0)
        for ni, calls in enumerate(self.calls):
            layer_calls[LAYERS[self.name_layer[ni]]] += calls
        return {
            "self_s": self_s,
            "calls": layer_calls,
            "counted": {key: self.count(name) for key, name in COUNTED.items()},
            "triangle_locates": self.count("helix.locate_triangle"),
            "max_rank_bits": self.max_rank_bits,
            "spans": n,
            "import_s": self.import_s,
            "cache": dict(self.cache),
        }
