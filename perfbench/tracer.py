"""Per-layer tracing of lopcsim from outside the program.

``install`` wraps every public function of the six modules, and
``ElementSpec.build``, in a recording wrapper.  Because ``gates`` and ``cli``
bind ``fock``, ``netlist``, ``oracle`` and ``gates`` functions by name at
import time, the wrapper replaces the original under every name that refers
to it in every loaded ``lopcsim`` module.  Spans stay in memory until
``write_spans``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("cli", "netlist", "elements", "fock", "gates", "oracle")


class Tracer:
    """Spans (id, name, start, end, parent id, op id) plus per-call counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.built: set = set()
        self.op = 0
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call; ``hook(tracer, args, result, exc)``
        runs after the span closes, so its cost stays out of the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.op))
                if hook:
                    hook(self, args, None, exc)
                raise
            end = perf_counter()
            stack.pop()
            spans.append((span_id, name, start, end, parent, self.op))
            if hook:
                hook(self, args, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _apply_hook(tracer, args, result, exc):
    if result is not None:
        tracer.counts["fock.apply_element.terms_in"] += len(args[0].amplitudes)
        tracer.counts["fock.apply_element.terms_out"] += len(result.amplitudes)


def _post_select_hook(tracer, args, result, exc):
    if result is not None:
        tracer.counts["fock.post_select.terms_in"] += len(args[0].amplitudes)
        tracer.counts["fock.post_select.terms_kept"] += len(result[0].amplitudes)


def _build_hook(tracer, args, result, exc):
    tracer.built.add(args[0])


def _parse_hook(tracer, args, result, exc):
    if exc is not None:
        tracer.counts["netlist.rejected"] += 1


def _validate_hook(tracer, args, result, exc):
    if result:
        tracer.counts["netlist.rejected"] += 1


HOOKS = {
    "fock.apply_element": _apply_hook,
    "fock.post_select": _post_select_hook,
    "elements.build": _build_hook,
    "netlist.parse": _parse_hook,
    "netlist.validate": _validate_hook,
}


def install(tracer: Tracer):
    """Wrap the public functions of lopcsim; returns a function that undoes it."""
    modules = {short: importlib.import_module(f"lopcsim.{short}") for short in MODULES}
    owners = [m for name, m in sorted(sys.modules.items())
              if m is not None and (name == "lopcsim" or name.startswith("lopcsim."))]
    undo: list[tuple[object, str, object]] = []
    for short, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            traced = tracer.wrap(name, fn, HOOKS.get(name))
            for owner in owners:
                for owner_attr, value in list(vars(owner).items()):
                    if value is fn:
                        undo.append((owner, owner_attr, value))
                        setattr(owner, owner_attr, traced)
    spec = modules["elements"].ElementSpec
    build = vars(spec)["build"]
    undo.append((spec, "build", build))
    spec.build = tracer.wrap("elements.build", build, HOOKS["elements.build"])

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def wrapped_names() -> set[str]:
    """Names of every function ``install`` wraps (for tests)."""
    names = {"elements.build"}
    for short in MODULES:
        module = importlib.import_module(f"lopcsim.{short}")
        for attr, fn in vars(module).items():
            fn = getattr(fn, "__wrapped__", fn)
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                names.add(f"{short}.{attr}")
    return names


def layer_metrics(tracer: Tracer, ops: int, items: int) -> dict[str, float]:
    """Per-layer figures over every span the tracer holds.

    ``ops`` and ``items`` are the bases of the per-op and per-item ratios.
    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap because the program is
    single-threaded.
    """
    calls: Counter[str] = Counter()
    busy: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    child: Counter[int] = Counter()
    for span_id, name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    for span_id, name, start, end, parent, _ in tracer.spans:
        duration = end - start
        calls[name] += 1
        busy[name] += duration
        own = duration - child[span_id]
        self_s[name] += own
        self_s[name.split(".", 1)[0]] += own

    counts = tracer.counts
    builds = calls["elements.build"]
    applies = calls["fock.apply_element"]
    evolved = counts["fock.post_select.terms_in"]
    m = {
        "elements.build.calls": builds,
        "elements.build.busy_s": busy["elements.build"],
        "elements.build_per_op": builds / ops,
        "elements.build.unique_ratio": len(tracer.built) / builds if builds else 0.0,
        "netlist.validate.calls": calls["netlist.validate"],
        "netlist.validate.self_s": self_s["netlist.validate"],
        "netlist.validate_per_op": calls["netlist.validate"] / ops,
        "netlist.parse.busy_s": busy["netlist.parse"],
        "netlist.render.busy_s": busy["netlist.render"],
        "netlist.rejected": counts["netlist.rejected"],
        "fock.apply_element.calls": applies,
        "fock.apply_element.busy_s": busy["fock.apply_element"],
        "fock.apply_element.terms_in": counts["fock.apply_element.terms_in"],
        "fock.apply_element.terms_out": counts["fock.apply_element.terms_out"],
        "fock.apply_element.calls_per_phase": applies / items,
        "fock.make_photon_state.busy_s": busy["fock.make_photon_state"],
        "fock.post_select.busy_s": busy["fock.post_select"],
        "fock.post_select.kept_ratio": counts["fock.post_select.terms_kept"] / evolved
        if evolved else 0.0,
        "fock.project_detector.busy_s": busy["fock.project_detector"],
        "fock.two_qubit_amplitudes.busy_s": busy["fock.two_qubit_amplitudes"],
        "gates.run.self_s": self_s["gates.run"],
        "gates.conditional_gate.self_s": self_s["gates.conditional_gate"],
        "gates.hom_scan.self_s": self_s["gates.hom_scan"],
        "oracle.branch_table.busy_s": busy["oracle.branch_table"],
    }
    for short in MODULES:
        m[f"{short}.self_s"] = self_s[short]
    m["trace.spans"] = len(tracer.spans)
    return m
