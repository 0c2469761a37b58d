"""In-memory span tracer for the benchmark's traced run.

`Tracer.install()` replaces each traced function of the chromexp package
with a wrapper, in every module namespace (or class) that binds it, and
`uninstall()` puts the originals back. A wrapper records one span per
call (name, start, end, parent span, job id) and keeps per-name totals:
call count, self time (duration minus the time covered by child spans)
and the extra counts listed in EXTRA_COUNTS. Wrapper bookkeeping after a
call returns is charged to neither the call nor its parent.

Spans are kept in memory, up to SPAN_CAP of them; the totals cover every
call. `write_spans` dumps them when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

PACKAGE = "chromexp"

# "module.attr" or "module.Class.attr", relative to the package.
TRACED = (
    "cli.main",
    "graph.parse_dsl",
    "graph.digraph_from_json",
    "graph.contract",
    "graph.closed_subsets",
    "chromatic.expand",
    "chromatic.coproduct_digraph",
    "ncqsym.expand_nc",
    "ncqsym.ncqsym_to_json",
    "ncqsym.ncqsym_tensor_to_json",
    "ncqsym.NCQSymExpr.__mul__",
    "ncqsym.NCQSymTensor.__mul__",
    "ncqsym.coproduct_nc",
    "ncqsym.rho",
    "ncqsym.to_ncqsym_basis",
    "qsym.QSymExpr.__mul__",
    "qsym.QSymTensor.__mul__",
    "qsym.coproduct",
    "qsym.to_qsym_basis",
    "qsym.to_sym_basis",
    "qsym.basis_F",
    "qsym.qsym_to_json",
    "combinat.shifted_quasi_shuffle",
    "combinat.quasi_shuffle",
    "combinat.standardize_set_composition",
    "combinat.set_composition",
    "linalg.solve_combination",
    "linalg.exact_rank",
    "verify.verify_hopf",
)

# Functions whose calls are only counted: no span, no self time.
COUNTED = (
    "tpoly.TPoly.__add__",
    "tpoly.TPoly.__mul__",
)

LAYERS = ("combinat", "graph", "chromatic", "tpoly", "qsym", "ncqsym",
          "linalg", "verify", "cli")

# The oracle is the correctness reference; its namespace is never patched.
UNTOUCHED_MODULES = ("chromexp.oracle",)

SPAN_CAP = 50_000


def _patterns(result) -> int:
    return int(sum(c.evaluate(1) for c in result.terms.values()))


def _cells(args, kwargs) -> int:
    columns = kwargs.get("columns", args[0] if args else ())
    target = kwargs.get("target", args[1] if len(args) > 1 else {})
    rows = set(target).union(*(col.keys() for col in columns)) if columns else set(target)
    return len(rows) * len(columns)


# name -> {count name: f(args, kwargs, result)}
EXTRA_COUNTS = {
    "chromatic.expand": {
        "terms_out": lambda a, k, r: len(r.terms),
        "patterns_out": lambda a, k, r: _patterns(r),
    },
    "graph.closed_subsets": {"subsets_out": lambda a, k, r: len(r)},
    "ncqsym.expand_nc": {"terms_out": lambda a, k, r: len(r.terms)},
    "linalg.solve_combination": {"cells": lambda a, k, r: _cells(a, k)},
    "verify.verify_hopf": {"checks": lambda a, k, r: r.checks},
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for name in TRACED:
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    names += [(f"{name}.calls", "count") for name in COUNTED]
    names += [(f"{name}.{count}", "count")
              for name, counts in EXTRA_COUNTS.items() for count in counts]
    names.append(("cli.stdout_bytes", "bytes"))
    names += [(f"share.{layer}", "fraction") for layer in LAYERS]
    names.append(("trace_overhead_frac", "fraction"))
    return names


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # [span id, child seconds]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.job = None
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self._patches: list[tuple] = []

    def _span_wrapper(self, name: str, fn):
        tracer = self
        stack = self.stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        extra = self.extra
        extras = EXTRA_COUNTS.get(name, {})
        for count in extras:
            extra[f"{name}.{count}"] = 0
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            tracer.next_id += 1
            frame = [tracer.next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                calls[name] += 1
                self_s[name] += (end - start) - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((name, start, end, frame[0], parent, tracer.job))
                else:
                    tracer.dropped += 1
                if returned:
                    for count, measure in extras.items():
                        extra[f"{name}.{count}"] += measure(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - start
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
                and key not in UNTOUCHED_MODULES]

    def _bind(self, name: str, make) -> None:
        module_name, *owner_path, attr = name.split(".")
        owner = sys.modules[f"{PACKAGE}.{module_name}"]
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = make(name, original)
        if owner_path:
            # a method: patch every name of the class that binds it
            # (for example __radd__ = __add__)
            targets = [owner]
        else:
            targets = self._modules()
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, key, value))
                    setattr(target, key, wrapper)

    def install(self) -> None:
        for name in TRACED:
            self._bind(name, self._span_wrapper)
        for name in COUNTED:
            self._bind(name, self._count_wrapper)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"dropped": self.dropped, "cap": SPAN_CAP,
                                 "fields": ["name", "start", "end", "id",
                                            "parent", "job"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
