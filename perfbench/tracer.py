"""Spans around calls into forestsmith's public functions, kept in memory.

While installed, every wrapped function records a span: its duration and its
place in the calling context (the chain of wrapped callers above it). Spans
are aggregated per calling context into a tree of call counts, total time and
self time, where self time is a span's duration minus that of its child
spans. Code that is not wrapped, private helpers included, counts toward the
self time of the nearest wrapped caller. Nothing is patched while the tracer
is not installed, so untraced jobs run the program unchanged.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from math import comb

MODULES = ("cli", "io_formats", "trees", "kofn", "majority", "lossy", "verify")


def _table_bits(counts, args, kwargs, result):
    subject = args[0]
    width = args[1] if len(args) > 1 and args[1] is not None else subject.n_vars
    trees = len(subject.trees) if hasattr(subject, "trees") else 1
    counts["trees.table_bits"] += trees << width


def _bytes_in(counts, args, kwargs, result):
    counts["io_formats.bytes_in"] += len(args[0].encode())


def _bytes_out(counts, args, kwargs, result):
    counts["io_formats.bytes_out"] += len(result.encode())


def _profiles(counts, args, kwargs, result):
    counts["lossy.profiles_distinct"] += len(result.weights)


def _subsets(counts, args, kwargs, result):
    positions, subset_size = args[1], args[2]
    counts["lossy.subsets_scanned"] += comb(len(positions), subset_size)


def _inputs_checked(counts, args, kwargs, result):
    if result is None:
        counts["verify.inputs_checked"] += 1 << args[2]
    else:
        counts["verify.inputs_checked"] += 1 + sum(b << j for j, b in enumerate(result.input))


def _count_oracle(counts, args, kwargs):
    oracle = args[1]

    def counted(bits):
        counts["verify.oracle_calls"] += 1
        return oracle(bits)

    return (args[0], counted, *args[2:]), kwargs


# (module, function or Class.method, span group, counted calls, before, after, error count)
# "*" stands for every public function the module defines.
SPANS = (
    ("cli", "*", "cli.self", None, None, None, None),
    ("io_formats", "deserialize_bag", "io_formats.parse", None, None, _bytes_in, None),
    ("io_formats", "deserialize_distribution", "io_formats.parse", None, None, _bytes_in, None),
    ("io_formats", "serialize_bag", "io_formats.write", None, None, _bytes_out, "io_formats.refused"),
    ("io_formats", "serialize_distribution", "io_formats.write", None, None, _bytes_out, "io_formats.refused"),
    ("io_formats", "serialize_report", "io_formats.write", None, None, _bytes_out, "io_formats.refused"),
    ("trees", "truth_table", "trees.truth_table", "trees.truth_table_calls", None, _table_bits, None),
    ("trees", "bag_eval", "trees.bag_eval", "trees.bag_eval_calls", None, None, None),
    ("trees", "negate", "trees.compose", "trees.compose_calls", None, None, None),
    ("trees", "conjoin", "trees.compose", "trees.compose_calls", None, None, None),
    ("trees", "disjoin", "trees.compose", "trees.compose_calls", None, None, None),
    ("trees", "prefix_graft", "trees.compose", "trees.compose_calls", None, None, None),
    ("trees", "tree_size", "trees.tree_size", None, None, None, None),
    ("trees", "Bag.__post_init__", "trees.bag_init", None, None, None, None),
    ("kofn", "build_choose_bag", "kofn.build", "kofn.build_calls", None, None, None),
    ("kofn", "build_choose_bag_naive", "kofn.build", "kofn.build_calls", None, None, None),
    ("majority", "build_reduced_majority", "majority.build", None, None, None, None),
    ("lossy", "weight_profile", "lossy.weight_profile", "lossy.weight_profile_calls", None, _profiles, None),
    ("lossy", "select_designated_subset", "lossy.subset_search", None, None, _subsets, None),
    ("lossy", "measure_error", "lossy.measure_error", None, None, None, None),
    ("lossy", "Distribution.zero_out", "lossy.zero_out", None, None, None, None),
    ("lossy", "reduce_once", "lossy.reduce_self", None, None, None, None),
    ("lossy", "reduce_repeated", "lossy.reduce_self", None, None, None, None),
    ("verify", "exhaustive_equiv", "verify.exhaustive_equiv", "verify.exhaustive_equiv_calls",
     _count_oracle, _inputs_checked, None),
)  # fmt: skip


class SpanNode:
    __slots__ = ("calls", "total", "own", "children")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.children: dict[str, SpanNode] = {}

    def to_doc(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.own,
            "children": {name: child.to_doc() for name, child in self.children.items()},
        }

    def walk(self, name: str = ""):
        yield name, self
        for child_name, child in self.children.items():
            yield from child.walk(child_name)


class Tracer:
    """Installs span wrappers into the forestsmith modules; one job at a time."""

    def __init__(self) -> None:
        self.modules = {name: importlib.import_module(f"forestsmith.{name}") for name in MODULES}
        self.counts: Counter = Counter()
        self.root = SpanNode()
        self._stack: list[SpanNode] = [self.root]
        self._inner: list[float] = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self.groups: dict[str, str] = {}  # span name -> span group
        self.call_counts: dict[str, str] = {}  # span name -> counted-calls metric

    def begin_job(self) -> None:
        self.counts = Counter()
        self.root = SpanNode()
        self._stack[:] = [self.root]
        self._inner[:] = [0.0]

    def _targets(self, module_name: str, spec: str):
        module = self.modules[module_name]
        if spec == "*":
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    yield module, name, value
        elif "." in spec:
            cls_name, attr = spec.split(".")
            cls = getattr(module, cls_name)
            yield cls, attr, cls.__dict__[attr]
        else:
            yield module, spec, getattr(module, spec)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, spec, group, calls, before, after, on_error in SPANS:
            for owner, attr, original in list(self._targets(module_name, spec)):
                name = f"{module_name}.{spec if '.' in spec else attr}"
                self.groups[name] = group
                if calls:
                    self.call_counts[name] = calls
                wrapper = self._wrap(name, original, before, after, on_error)
                if inspect.isclass(owner):
                    self._patch(owner, attr, original, wrapper)
                    continue
                # Modules import each other's functions by name, so every
                # module-level reference to the function is replaced.
                for module in self.modules.values():
                    for ref, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, ref, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, before, after, on_error):
        stack, inner, clock = self._stack, self._inner, time.perf_counter

        def span(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self.counts, args, kwargs)
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = SpanNode()
            stack.append(node)
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    self.counts[on_error] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                node.calls += 1
                node.total += duration
                node.own += duration - inner.pop()
                inner[-1] += duration
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return span

    def job_summary(self) -> dict:
        """Self time and calls per span group, plus the job's counts."""
        summary: Counter = Counter(self.counts)
        for name, node in self.root.walk():
            if node is self.root:
                continue
            summary[self.groups[name] + "_s"] += node.own
            if name in self.call_counts:
                summary[self.call_counts[name]] += node.calls
        return dict(summary)
