"""Span tracing of deltalens from outside the package.

`Tracer.install` replaces each listed public function, in every
`deltalens.*` module namespace that binds it, with a wrapper that opens a
span around the call.  Because modules call each other through those
namespaces, calls made inside the package are traced too.  Spans are
aggregated in memory into one call tree per operation (node = call path,
with calls, total and self time); `Tracer.dump` writes them out when the
run ends.  A span's self time is its duration minus the durations of its
child spans, so within one operation the self times add up to the
operation's traced duration.

Counters that the package does not expose are derived from arguments and
results at the same boundaries:

* `kernel.validate_category.pairs` sums the composable pairs of every
  category validated (the size of its composition table);
* `semimonad.j_object.built` and `awfs.e_object.built` count calls that
  returned an object never returned before, i.e. cache misses;
* tower depth of a built category is 1 + the depth of the functor's
  domain and codomain, fixtures having depth 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, function) pairs that get a span; the module is the defining one.
TRACED = {
    "kernel": (
        "tag",
        "validate_category",
        "validate_functor",
        "compose_functors",
        "same_functor",
        "enumerate_functors",
        "comma_to_object",
    ),
    "factorization": (
        "is_initial",
        "is_discrete_opfibration",
        "orthogonal_lift",
        "comprehensive_factorise",
    ),
    "lens": ("validate_lens", "lambda_presentation"),
    "semimonad": ("j_object", "j_square", "nu", "validate_semimonad"),
    "awfs": (
        "e_object",
        "e_square",
        "mu",
        "copair",
        "comonad_data",
        "free_lens",
        "cofree_coalgebra",
        "validate_monad",
        "validate_comonad",
        "validate_distributive_law",
        "validate_l_coalgebra",
    ),
    "search": (
        "enumerate_lens_structures",
        "enumerate_r_algebra_structures",
        "enumerate_l_coalgebras",
    ),
    "laws": ("corpus_functors", "corpus_squares"),
    "serialization": (
        "save_payload",
        "load_payload",
        "category_to_json",
        "category_from_json",
        "export_dot",
    ),
    "cli": ("main",),
}

# Tower depths reported separately for `awfs.e_object`; deeper levels are
# folded into the last bucket, named `d4plus`.
DEPTH_BUCKETS = ("d1", "d2", "d3", "d4plus")

EXTRA_COUNTERS = (
    "kernel.validate_category.pairs",
    "kernel.enumerate_functors.found",
    "semimonad.j_object.built",
    "awfs.e_object.built",
    *(f"awfs.e_object.{d}.built" for d in DEPTH_BUCKETS),
    "awfs.e_object.max_pairs",
    "serialization.save_payload.bytes",
    "serialization.load_payload.bytes",
    "cli.main.exit0",
    "cli.main.exit1",
    "cli.main.exit2",
    "cli.main.crash",
)


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out: list[tuple[str, str]] = []
    for module, names in TRACED.items():
        for name in names:
            out.append((f"{module}.{name}.calls", "count"))
            out.append((f"{module}.{name}.self_s", "s"))
    out.extend((name, "count") for name in EXTRA_COUNTERS)
    out.append(("awfs.e_object.hit_ratio", "ratio"))
    out.extend((f"awfs.e_object.{d}.self_s", "s") for d in DEPTH_BUCKETS)
    return out


class _Node:
    __slots__ = ("calls", "total", "self_s", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.children: dict[str, _Node] = {}

    def to_json(self, name: str) -> dict:
        return {
            "name": name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_s,
            "children": [c.to_json(n) for n, c in sorted(self.children.items())],
        }

    def self_sum(self) -> float:
        return self.self_s + sum(c.self_sum() for c in self.children.values())


class Tracer:
    """Aggregated span trees, one per operation, plus layer counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {name: 0 for name in EXTRA_COUNTERS}
        self.depth_self_s = {d: 0.0 for d in DEPTH_BUCKETS}
        self.ops: list[tuple[str, _Node]] = []
        self.built_ef: list[dict] = []
        self._stack: list[list] = []
        self._depth: dict[int, tuple[int, object]] = {}
        self._seen: set[int] = set()
        self._keep: list = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        importlib.import_module("deltalens.cli")  # imports every module
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "deltalens"]
        for module, names in TRACED.items():
            home = sys.modules[f"deltalens.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._originals.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._originals):
            setattr(mod, name, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                node = _Node()  # outside any operation: counted, not kept
            else:
                node = parent[0].children.get(name)
                if node is None:
                    node = parent[0].children[name] = _Node()
            frame = [node, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = _Raised(exc)
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    node.calls += 1
                    node.total += dur
                    node.self_s += own
                calls[name] += 1
                self_s[name] += own
                if after is not None:
                    after(args, result, own)
            return result

        return wrapper

    # -- per-operation roots ---------------------------------------------

    def run_op(self, label: str, fn):
        """Run fn() as the root span of one operation; returns
        (result, traced duration, sum of self times in its tree)."""
        root = _Node()
        frame = [root, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return_value = fn()
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            root.calls = 1
            root.total = dur
            root.self_s = dur - frame[1]
            self.ops.append((label, root))
        return return_value, dur, root.self_sum()

    # -- counters -----------------------------------------------------------

    def _register(self, cat, depth: int) -> None:
        self._depth[id(cat)] = (depth, cat)

    def depth_of(self, cat) -> int:
        entry = self._depth.get(id(cat))
        return entry[0] if entry is not None and entry[1] is cat else 0

    def _tower_depth(self, fun) -> int:
        return 1 + max(self.depth_of(fun.dom), self.depth_of(fun.cod))

    def _is_new(self, result) -> bool:
        if id(result) in self._seen:
            return False
        self._seen.add(id(result))
        self._keep.append(result)
        return True

    def _after_kernel_validate_category(self, args, result, own):
        self.counters["kernel.validate_category.pairs"] += len(args[0].compose)

    def _after_kernel_enumerate_functors(self, args, result, own):
        if not isinstance(result, _Raised):
            self.counters["kernel.enumerate_functors.found"] += len(result)

    def _after_semimonad_j_object(self, args, result, own):
        if not isinstance(result, _Raised) and self._is_new(result):
            self.counters["semimonad.j_object.built"] += 1
            self._register(result.j, self._tower_depth(args[0]))

    def _after_awfs_e_object(self, args, result, own):
        if isinstance(result, _Raised):
            return
        depth = self._tower_depth(args[0])
        bucket = DEPTH_BUCKETS[min(depth, len(DEPTH_BUCKETS)) - 1]
        self.depth_self_s[bucket] += own
        if self._is_new(result):
            e = result.e
            self._register(e, depth)
            pairs = len(e.compose)
            self.counters["awfs.e_object.built"] += 1
            self.counters[f"awfs.e_object.{bucket}.built"] += 1
            self.counters["awfs.e_object.max_pairs"] = max(
                self.counters["awfs.e_object.max_pairs"], pairs
            )
            self.built_ef.append(
                {
                    "depth": depth,
                    "objects": len(e.objects),
                    "morphisms": len(e.morphisms),
                    "pairs": pairs,
                }
            )

    def _after_serialization_save_payload(self, args, result, own):
        if not isinstance(result, _Raised):
            self.counters["serialization.save_payload.bytes"] += os.path.getsize(args[0])

    def _after_serialization_load_payload(self, args, result, own):
        if not isinstance(result, _Raised):
            self.counters["serialization.load_payload.bytes"] += os.path.getsize(args[0])

    def _after_cli_main(self, args, result, own):
        if isinstance(result, _Raised):
            code = result.exc.code if isinstance(result.exc, SystemExit) else None
            kind = "exit2" if code == 2 else "crash"
        else:
            kind = f"exit{result}" if result in (0, 1, 2) else "crash"
        self.counters[f"cli.main.{kind}"] += 1

    # -- output -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counters)
        calls = self.calls["awfs.e_object"]
        built = self.counters["awfs.e_object.built"]
        out["awfs.e_object.hit_ratio"] = 1 - built / calls if calls else 0.0
        for d, s in self.depth_self_s.items():
            out[f"awfs.e_object.{d}.self_s"] = s
        return out

    def dump(self, path: str, extra: dict) -> None:
        doc = {
            **extra,
            "metrics": self.metrics(),
            "built_ef": self.built_ef,
            "ops": [node.to_json(label) for label, node in self.ops],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _Raised:
    """Stands for the result of a call that raised."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc
