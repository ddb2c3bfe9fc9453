"""gkheat benchmark: ``gkheat run``, ``verify`` and ``sweep`` end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing, the
package is imported from ``src/``.  Load is a closed loop with one client:
the three commands run in turn, one at a time, each in a fresh interpreter
(bench/child.py) with BLAS/OpenMP held to one thread, while the next one is
expected to end within S seconds (the first cycle always runs).  Every
command's output is checked (bench/check.py); a nonzero exit code or a
failed check counts as a failed command.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced cycles and prints the per-layer metrics of the traced ones (spans
around calls into each gkheat layer, bench/tracer.py) plus the tracing
overhead against the untraced ones.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Samples,
environment and metrics are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_out"

COMMANDS = ("run", "verify", "sweep")
#: the README reference material; the workloads vary only the mesh
MATERIAL = {"rho": 2e3, "c": 5e2, "tau_q": 8e-3, "mu2": 2.8e-3, "k": 2e3, "l": 0.1}
DT = 1.2e-2
STRIDE = 25
#: workload -> (dx, t_final); "smoke" is the shrunken case of selftest.py
WORKLOADS = {
    "reference": (2e-4, 30.0),        # J=499, 2500 steps
    "long_horizon": (1.5625e-3, 240.0),  # J=63, 20000 steps
    "fine_mesh": (1.25e-5, 30.0),     # J=7999, 2500 steps
    "smoke": (5e-3, 6.0),             # J=19, 500 steps
}
#: given to every child process; one BLAS thread keeps the load to one core
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
#: every command must end by then, so that a run exits within 180 s
HARD_LIMIT_S = 165.0

END_TO_END = {
    "setup_s": "s", "run_s": "s", "verify_s": "s", "sweep_s": "s",
    "cell_steps_per_s": "1/s", "peak_rss_mb": "MB",
}

#: per-layer metric -> span names whose inclusive times it sums over a cycle
SPAN_SECONDS = {
    "scheme.solve_banded.s": ("scheme.solve_banded",),
    "scheme.step_coupled_reference.s": ("scheme.step_coupled_reference",),
    "diagnostics.record_step.s": ("diagnostics.record_step",),
    "diagnostics.trace_build.s": ("diagnostics.trace_build",),
    "diagnostics.checks.s": ("diagnostics.lyapunov_sandwich_check",
                             "diagnostics.envelope_check",
                             "diagnostics.fit_energy_decay_rate"),
    "linalg.dense_solve.s": ("linalg.dense_solve",),
    **{f"cli.check.{name}.s": (f"cli.check.{name}",) for name in tracer.CHECKS},
    "cli.write_trace_csv.s": ("cli.write_trace_csv",),
    "cli.write_profiles_csv.s": ("cli.write_profiles_csv",),
}
#: per-layer metric -> span name whose calls it counts over a cycle
SPAN_CALLS = {
    "scheme.run.calls": "scheme.run",
    "scheme.solve_banded.calls": "scheme.solve_banded",
    "diagnostics.record_step.calls": "diagnostics.record_step",
    "linalg.dense_solve.calls": "linalg.dense_solve",
}
#: set-up metric -> span names timed in the set-up phase of one process
SETUP_SPANS = {
    "cli.parse_config.s": ("cli.parse_config",),
    "discretization.build_grid.s": ("discretization.build_grid",),
    "discretization.initial.s": ("discretization.cosine_initial",
                                 "discretization.zero_mean_initial"),
    "scheme.assemble.s": ("scheme.assemble",),
}

PER_LAYER = {
    "setup.interpreter_s": "s", "setup.import_s": "s",
    **{name: "s" for name in SETUP_SPANS},
    "scheme.run.self_s": "s", "scheme.us_per_step": "us",
    "scheme.run.us_per_step_incl": "us",
    "scheme.solve_banded.us_per_call": "us",
    "diagnostics.record_step.us_per_call": "us",
    **{name: "s" for name in SPAN_SECONDS},
    **{name: "count" for name in SPAN_CALLS},
    "scheme.steps": "count", "scheme.cells": "count",
    "scheme.bytes_per_step_computed": "bytes", "cli.bytes_written": "bytes",
    "trace.spans": "count",
    **{f"{cmd}.self.{layer}.s": "s" for cmd in COMMANDS
       for layer in (*tracer.LAYERS, "untraced")},
    **{f"{cmd}.traced_s": "s" for cmd in COMMANDS},
    **{f"trace.overhead_frac.{cmd}": "ratio" for cmd in COMMANDS},
}


class Workload:
    """The generated inputs of one (workload, seed) and where outputs go."""

    def __init__(self, name: str, seed: int):
        dx, t_final = WORKLOADS[name]
        rng = random.Random(f"{name}/{seed}")
        self.name = name
        self.work = WORK_ROOT / name
        self.out = self.work / "out"
        self.spans = self.work / "spans"
        self.J = round(MATERIAL["l"] / dx) - 1
        self.steps = round(t_final / DT)
        self.values = {**MATERIAL, "dx": dx, "dt": DT, "t_final": t_final,
                       "T_b": round(rng.uniform(10.0, 20.0), 3),
                       "T_f": round(rng.uniform(20.0, 40.0), 3),
                       "stepper": "coupled_implicit", "stride": STRIDE,
                       "out_dir": self.out.relative_to(ROOT).as_posix()}
        tau_q, mu2 = MATERIAL["tau_q"], MATERIAL["mu2"]
        self.pairs = [(tau_q, mu2), (tau_q / 2.0, mu2 / 2.0), (0.0, 0.0)]
        self.config = self.work / "config.ini"

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.spans.mkdir(parents=True)
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in self.values.items()),
                               encoding="utf-8")

    @property
    def cell_steps(self) -> int:
        """(J+1)*(N+1): temperature nodes times time steps of one run."""
        return (self.J + 1) * self.steps

    @property
    def bytes_per_step(self) -> int:
        """float64 bytes one coupled step reads and writes, from array sizes.

        Reads e (J+1), q (J), the 3 x J band and the right-hand side (J);
        writes the right-hand side, q (J) and e (J+1).  Trace bookkeeping and
        temporaries inside numpy and LAPACK are not counted.
        """
        return 8 * (9 * self.J + 2)


class Bench:
    def __init__(self, wl: Workload):
        self.wl = wl
        self.started = time.monotonic()
        self.env = {**os.environ, **CHILD_ENV}
        self.versions: dict = {}

    def spawn(self, command: str, tag: str, traced: bool = False) -> dict:
        """Run one command in a fresh process and collect its timings."""
        wl = self.wl
        result, stdout = wl.work / f"{tag}.json", wl.work / f"{tag}.out"
        spans = wl.spans / f"{tag}.npz"
        argv = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
                "--result", str(result)]
        if traced:
            argv += ["--spans", str(spans)]
        argv += ["--", command, "-c", str(wl.config)]
        timeout = max(5.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        t_spawn = time.monotonic_ns()
        try:
            with open(stdout, "wb") as f:
                rc = subprocess.run(argv, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT,
                                    env=self.env, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            rc = f"killed after {timeout:.0f} s"
        sample = {"cmd": command, "rc": rc, "traced": traced,
                  "stdout": stdout.read_text(encoding="utf-8", errors="replace")}
        if result.is_file():
            r = json.loads(result.read_text(encoding="utf-8"))
            self.versions = r["versions"]
            sample.update(
                setup_s=(r["t_ready"] - t_spawn) * 1e-9,
                cmd_s=(r["t_done"] - r["t_ready"]) * 1e-9,
                interpreter_s=(r["t_start"] - t_spawn) * 1e-9,
                import_s=(r["t_import"] - r["t_import0"]) * 1e-9,
                rss_mb=r["maxrss_kb"] * 1024 / 1e6,
                counts=r.get("counts"), missing=r.get("missing"))
            if traced and spans.is_file():
                sample["trace"] = tracer.summarize(spans)
        return sample

    def command(self, command: str, tag: str, traced: bool) -> dict:
        """One command with its output checked; failures land in "problems"."""
        wl = self.wl
        shutil.rmtree(wl.out, ignore_errors=True)
        s = self.spawn(command, tag, traced)
        problems = [] if s["rc"] == 0 else [f"exit code {s['rc']}: {s['stdout'][-300:]}"]
        if "cmd_s" not in s:
            problems.append("the child wrote no result")
        if traced and "trace" not in s:
            problems.append("the child wrote no spans")
        if not problems:
            if command == "run":
                problems = check.check_run(wl.out, wl.J, wl.steps + 1, STRIDE)
            elif command == "verify":
                problems = check.check_verify(s["stdout"])
            else:
                problems = check.check_sweep(wl.out, MATERIAL, wl.pairs)
        s["problems"] = problems
        s["bytes"] = sum(p.stat().st_size for p in wl.out.iterdir()) if wl.out.is_dir() else 0
        return s

    def measure(self, seconds: float, traced: bool) -> list[dict]:
        """Commands in turn while the next is expected to end within `seconds`.

        Untraced, the turn is run, verify, sweep, and the loop may stop
        after any command of it.  Traced, an untraced cycle and a traced
        cycle alternate, and the loop stops only after whole rounds.  The
        first round always runs.  A command is expected to take as long as
        its earlier runs took on average.
        """
        self.spawn("setup", "warmup")  # compiles bytecode and fills the page cache
        kinds = [(cmd, False) for cmd in COMMANDS]
        if traced:
            kinds += [(cmd, True) for cmd in COMMANDS]
        stop_every = len(kinds) if traced else 1
        took: dict[tuple, list[float]] = {k: [] for k in kinds}
        samples = []
        start = time.monotonic()
        while True:
            command, with_spans = kind = kinds[len(samples) % len(kinds)]
            tag = f"c{len(samples) // len(kinds)}-{command}{'-traced' if with_spans else ''}"
            t0 = time.monotonic()
            samples.append(self.command(command, tag, with_spans))
            took[kind].append(time.monotonic() - t0)
            if len(samples) < len(kinds) or len(samples) % stop_every:
                continue
            first = len(samples) % len(kinds)
            expected = sum(statistics.mean(took[k]) for k in kinds[first:first + stop_every])
            now = time.monotonic()
            if (now + expected - start > seconds
                    or now + expected - self.started > HARD_LIMIT_S):
                return samples


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def _timed(samples, key):
    return [s[key] for s in samples if key in s]


def _cycles(samples: list[dict]) -> list[list[dict]]:
    """Consecutive run, verify, sweep triples; a trailing partial cycle is dropped."""
    return [samples[i:i + len(COMMANDS)]
            for i in range(0, len(samples) - len(COMMANDS) + 1, len(COMMANDS))]


def _of(samples: list[dict], command: str) -> list[dict]:
    return [s for s in samples if s["cmd"] == command]


def end_to_end(wl: Workload, plain: list[dict]) -> dict[str, list[float]]:
    """Samples of each end-to-end metric.

    One per command for the command times, one per process for setup_s and
    one per complete cycle for peak_rss_mb.
    """
    out = {"setup_s": _timed(plain, "setup_s")}
    for cmd in COMMANDS:
        out[f"{cmd}_s"] = _timed(_of(plain, cmd), "cmd_s")
    out["cell_steps_per_s"] = [wl.cell_steps / t for t in out["run_s"]]
    out["peak_rss_mb"] = [max(rss) for rss in (_timed(c, "rss_mb") for c in _cycles(plain))
                          if rss]
    return out


def per_layer(wl: Workload, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over traced cycles (set-up: over processes).

    The `<cmd>.self.*` and `<cmd>.traced_s` values are one cycle's, see below.
    """
    rows = []
    for cyc in _cycles(traced):
        if any("trace" not in s for s in cyc):
            continue
        names: dict[str, list] = {}
        row = {}
        for s in cyc:
            cmd_phase = s["trace"]["command"]
            for name, (calls, incl, excl) in cmd_phase["names"].items():
                acc = names.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += incl
                acc[2] += excl
            for layer in tracer.LAYERS:
                row[f"{s['cmd']}.self.{layer}.s"] = sum(
                    v[2] for n, v in cmd_phase["names"].items()
                    if n.split(".")[0] == layer)
            row[f"{s['cmd']}.self.untraced.s"] = s["cmd_s"] - cmd_phase["root_s"]
            row[f"{s['cmd']}.traced_s"] = s["cmd_s"]
        for metric, span_names in SPAN_SECONDS.items():
            row[metric] = sum(names.get(n, (0, 0.0, 0.0))[1] for n in span_names)
        for metric, name in SPAN_CALLS.items():
            row[metric] = names.get(name, (0, 0.0, 0.0))[0]
        steps = sum(s["counts"]["command"].get("scheme.steps", 0) for s in cyc)
        run_span = names.get("scheme.run", (0, 0.0, 0.0))
        row["scheme.steps"] = steps
        row["scheme.run.self_s"] = run_span[2]
        row["scheme.us_per_step"] = 1e6 * run_span[2] / max(steps, 1)
        row["scheme.run.us_per_step_incl"] = 1e6 * run_span[1] / max(steps, 1)
        row["scheme.solve_banded.us_per_call"] = (
            1e6 * row["scheme.solve_banded.s"] / max(row["scheme.solve_banded.calls"], 1))
        row["diagnostics.record_step.us_per_call"] = (
            1e6 * row["diagnostics.record_step.s"]
            / max(row["diagnostics.record_step.calls"], 1))
        row["cli.bytes_written"] = sum(s.get("bytes", 0) for s in cyc)
        row["trace.spans"] = sum(s["trace"][p]["spans"] for s in cyc for p in tracer.PHASES)
        rows.append(row)
    metrics = {name: _median([r[name] for r in rows]) for name in rows[0]} if rows else {}
    for cmd in COMMANDS:
        # one command's breakdown comes from a single cycle, so that it adds up
        # exactly: the cycle with the (lower) median traced time of that command
        if rows:
            mid = sorted(rows, key=lambda r: r[f"{cmd}.traced_s"])[(len(rows) - 1) // 2]
            metrics.update({k: v for k, v in mid.items() if k.startswith(f"{cmd}.")})

    metrics["setup.interpreter_s"] = _median(_timed(plain + traced, "interpreter_s"))
    metrics["setup.import_s"] = _median(_timed(plain + traced, "import_s"))
    setups = [s["trace"]["setup"]["names"] for s in traced if "trace" in s]
    for metric, span_names in SETUP_SPANS.items():
        metrics[metric] = _median([sum(t.get(n, (0, 0.0, 0.0))[1] for n in span_names)
                                   for t in setups])
    for cmd in COMMANDS:
        base = _median(_timed(_of(plain, cmd), "cmd_s"))
        with_spans = _median(_timed(_of(traced, cmd), "cmd_s"))
        metrics[f"trace.overhead_frac.{cmd}"] = (with_spans - base) / base if base else 0.0
    metrics["scheme.cells"] = wl.J + 1
    metrics["scheme.bytes_per_step_computed"] = wl.bytes_per_step
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "child_env": CHILD_ENV}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gkheat" / "cli.py").is_file():
        print(f"error: no gkheat sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed)
    wl.prepare()
    bench = Bench(wl)
    commands = bench.measure(args.seconds, bool(args.trace))
    plain = [s for s in commands if not s["traced"]]
    traced = [s for s in commands if s["traced"]]
    failed = [s for s in commands if s["problems"]]

    if args.trace:
        values = per_layer(wl, plain, traced)
        units, samples = PER_LAYER, {}
    else:
        samples = end_to_end(wl, plain)
        values = {name: _median(samples[name]) for name in END_TO_END}
        units = END_TO_END

    env = {**environment(), **bench.versions}
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed}: config "
          + ", ".join(f"{k}={v}" for k, v in wl.values.items() if k != "out_dir"))
    print(f"closed loop, 1 client: {len(plain)} untraced and {len(traced)} traced commands, "
          f"{len(commands)} attempted, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(commands):g} (ratio, base {len(commands)} commands)")
    for s in failed:
        print(f"FAILED {s['cmd']}{' (traced)' if s['traced'] else ''}: "
              + "; ".join(s["problems"]))
    for name, unit in units.items():
        line = f"{name:40s} {values[name]:14.6g} {unit}"
        if samples.get(name):
            line += f"   median of n={len(samples[name])}, max {max(samples[name]):.6g}"
        print(line)
    if args.trace:
        self_sum = sum(values[f"run.self.{layer}.s"] for layer in tracer.LAYERS)
        print(f"run: layer self times sum to {self_sum:.6g} s, untraced remainder "
              f"{values['run.self.untraced.s']:.6g} s, traced run_s "
              f"{values['run.traced_s']:.6g} s (the traced cycle with the median run time)")
        missing = sorted({m for s in commands for m in s.get("missing") or []})
        if missing:
            print("not traced (absent from the package): " + ", ".join(missing))

    WORK_ROOT.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "env": env, "config": wl.values, "values": values, "samples": samples,
              "commands": [{k: v for k, v in s.items() if k != "stdout"} for s in commands]}
    (WORK_ROOT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": not failed, "attempted": len(commands), "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
