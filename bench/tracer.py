"""Spans around calls into the gkheat layers, installed from outside the package.

The traced child process wraps, after import and before set-up:

* every public function defined in ``gkheat.<layer>`` for each layer in
  LAYERS (span name ``<layer>.<function>``), rebinding every name in the
  package that refers to it, so calls between modules go through the wrapper;
* the seven ``cmd_verify`` checks (``cli.check.<check name>``);
* ``TraceAccumulator.record_step`` and ``.build``
  (``diagnostics.record_step``, ``diagnostics.trace_build``);
* ``scipy.linalg.solve_banded``, which only ``gkheat.scheme`` calls
  (``scheme.solve_banded``).

A span is (id, name, parent id, start ns, end ns, phase); the parent is the
span open when it started, -1 for a root.  Spans stay in memory and are
written to one ``.npz`` file when the child ends.  ``summarize`` turns such a
file into per-name call counts, inclusive and self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "scheme", "diagnostics", "linalg", "discretization", "model")

#: verify check name -> the cli function that computes it
CHECKS = {
    "energy_monotone": "_check_monotone",
    "dissipation_inequality": "_check_dissipation",
    "heat_conservation": "_check_heat",
    "lyapunov_sandwich": "_check_sandwich",
    "decay_envelope": "_check_envelope",
    "oracle_equivalence": "_check_oracle",
    "mode_rate_fit": "_check_rate_fit",
}

PHASES = ("setup", "command")


def _steps_of_run(params, config, *args, **kwargs) -> int:
    # scheme.run(params, config, init, stride): t_final/dt time steps
    return round(config.t_final / config.dt)


#: span name -> (count name, function of the call's arguments)
COUNTERS = {"scheme.run": ("scheme.steps", _steps_of_run)}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.counts: dict[str, dict[str, int]] = {p: {} for p in PHASES}
        self.phase = 0
        self.missing: list[str] = []
        self._stack = [-1]
        self._next_id = 0

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            if counter is not None:
                counts = tracer.counts[PHASES[tracer.phase]]
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, index, parent, start, end, tracer.phase))

        return traced

    def install(self) -> None:
        import scipy.linalg

        package = importlib.import_module("gkheat")
        modules = [importlib.import_module(f"gkheat.{layer}") for layer in LAYERS]
        namespaces = [package, *modules]

        def rebind(original, replacement):
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, replacement)

        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and (layer, name) != ("cli", "main")):
                    rebind(obj, self.wrap(f"{layer}.{name}", obj))
        cli, diagnostics = modules[0], modules[2]
        for check, fname in CHECKS.items():
            fn = getattr(cli, fname, None)
            if fn is None:
                self.missing.append(f"cli.{fname}")
            else:
                rebind(fn, self.wrap(f"cli.check.{check}", fn))
        acc = getattr(diagnostics, "TraceAccumulator", None)
        if acc is None:
            self.missing.append("diagnostics.TraceAccumulator")
        else:
            acc.record_step = self.wrap("diagnostics.record_step", acc.record_step)
            acc.build = self.wrap("diagnostics.trace_build", acc.build)
        scipy.linalg.solve_banded = self.wrap("scheme.solve_banded",
                                              scipy.linalg.solve_banded)

    def dump(self, path) -> None:
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 6)
        np.savez(path, id=arr[:, 0], name=arr[:, 1], parent=arr[:, 2],
                 start=arr[:, 3], end=arr[:, 4], phase=arr[:, 5],
                 names=np.array(self.names or [""]))


def summarize(path) -> dict:
    """Per phase: {"names": {name: [calls, inclusive s, self s]}, "root_s", "spans"}.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process nest, so the children never overlap.
    """
    with np.load(path) as z:
        order = np.argsort(z["id"])
        name, parent, phase = z["name"][order], z["parent"][order], z["phase"][order]
        dur = (z["end"][order] - z["start"][order]).astype(float) * 1e-9
        names = [str(s) for s in z["names"]]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = dur - child
    out = {}
    for p, label in enumerate(PHASES):
        sel = phase == p
        calls = np.bincount(name[sel], minlength=len(names))
        incl = np.bincount(name[sel], weights=dur[sel], minlength=len(names))
        excl = np.bincount(name[sel], weights=self_s[sel], minlength=len(names))
        out[label] = {
            "names": {names[i]: [int(calls[i]), float(incl[i]), float(excl[i])]
                      for i in np.nonzero(calls)[0]},
            "root_s": float(dur[sel & ~has_parent].sum()),
            "spans": int(sel.sum()),
        }
    return out
