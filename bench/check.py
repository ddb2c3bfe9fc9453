"""Output checks for the three gkheat commands, made without importing gkheat.

Each check returns a list of problems; an empty list means the output is
correct.  The decay-rate oracle is the 2x2 mode system of the continuum
equations, solved here with numpy alone.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TRACE_HEADER = "n,t,E,diss_lhs,diss_rhs,heat,C_T,lyapunov,Z"
SUMMARY_HEADER = "tau_q,mu2,fitted_rate,omega,M,E_final,monotone"
RUN_FILES = ("trace.csv", "profiles.csv", "constants.txt", "plot.gp")
VERIFY_CHECKS = ("energy_monotone", "dissipation_inequality", "heat_conservation",
                 "lyapunov_sandwich", "decay_envelope", "oracle_equivalence",
                 "mode_rate_fit")
#: heat is conserved to round-off; trace.csv carries 17 significant digits
HEAT_RTOL = 1e-12
#: fitted energy decay rate against the continuum oracle, as gkheat verify uses
RATE_RTOL = 0.02


def stored_levels(levels: int, stride: int) -> int:
    """Snapshots in profiles.csv: every stride-th level, plus the last one."""
    last = levels - 1
    return last // stride + 1 + (1 if last % stride else 0)


def check_run(out: Path, J: int, levels: int, stride: int) -> list[str]:
    problems = [f"{name} missing" for name in RUN_FILES if not (out / name).is_file()]
    if problems:
        return problems
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        problems.append("trace.csv header differs from the schema")
    if len(lines) != levels + 1:
        problems.append(f"trace.csv has {len(lines) - 1} rows, expected {levels}")
    else:
        try:
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        except ValueError as exc:
            rows = None
            problems.append(f"trace.csv: {exc}")
        if rows is not None and rows.shape != (levels, 9):
            problems.append(f"trace.csv rows have {rows.shape} fields, expected 9")
        elif rows is not None:
            if not np.array_equal(rows[:, 0], np.arange(levels)):
                problems.append("trace.csv step column is not 0..N+1")
            heat = rows[:, 5]
            drift = float(np.max(np.abs(heat - heat[0])))
            if not drift <= HEAT_RTOL * abs(heat[0]):
                problems.append(f"trace.csv heat drifts by {drift:.3e} "
                                f"(bound {HEAT_RTOL:g} x |{heat[0]:.6g}|)")
    n_stored = stored_levels(levels, stride)
    n_rows, widths = 0, set()
    with open(out / "profiles.csv", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        for line in f:
            n_rows += 1
            widths.add(line.count(",") + 1)
    expected = ["x"] + ["T_t"] * n_stored + ["q_t"] * n_stored
    if [h if h == "x" else h[:3] for h in header] != expected:
        problems.append(f"profiles.csv header is not x + {n_stored} T_t* + {n_stored} q_t*")
    if n_rows != J + 1:
        problems.append(f"profiles.csv has {n_rows} rows, expected {J + 1}")
    if widths != {1 + 2 * n_stored}:
        problems.append(f"profiles.csv rows have {sorted(widths)} fields, "
                        f"expected {1 + 2 * n_stored}")
    return problems


def check_verify(stdout: str) -> list[str]:
    passed = [line.split()[1].rstrip(":") for line in stdout.splitlines()
              if line.startswith("PASS ")]
    problems = [line for line in stdout.splitlines() if line.startswith("FAIL ")]
    if sorted(passed) != sorted(VERIFY_CHECKS):
        problems.append(f"verify printed PASS for {passed}, expected {list(VERIFY_CHECKS)}")
    return problems


def energy_decay_rate(rho: float, c: float, k: float, l: float,
                      tau_q: float, mu2: float) -> float:
    """Energy decay rate 2|Re lambda| of the slowest cosine mode.

    Mode 1 amplitudes (a, b) of T ~ cos(pi x/l), q ~ sin(pi x/l) obey
    a' = -kappa b/(rho c) and tau_q b' = -(1 + mu2 kappa^2) b + k kappa a.
    For tau_q = 0 the flux is slaved to a and the rate follows from the
    single remaining equation.
    """
    kappa = math.pi / l
    damping = 1.0 + mu2 * kappa**2
    if tau_q == 0.0:
        return 2.0 * k * kappa**2 / (rho * c * damping)
    a = np.array([[0.0, -kappa / (rho * c)],
                  [k * kappa / tau_q, -damping / tau_q]])
    eig = np.linalg.eigvals(a)
    return float(2.0 * np.min(np.abs(eig.real)))


def check_sweep(out: Path, material: dict, pairs: list[tuple[float, float]]) -> list[str]:
    path = out / "summary.csv"
    if not path.is_file():
        return ["summary.csv missing"]
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = []
    if not lines or lines[0] != SUMMARY_HEADER:
        problems.append("summary.csv header differs from the schema")
    if len(lines) != len(pairs) + 1:
        return problems + [f"summary.csv has {len(lines) - 1} rows, expected {len(pairs)}"]
    for line, (tau_q, mu2) in zip(lines[1:], pairs):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            problems.append(f"summary.csv: {exc}")
            continue
        if len(row) != 7 or row[0] != tau_q or row[1] != mu2:
            problems.append(f"summary.csv row {line!r} is not for pair ({tau_q}, {mu2})")
            continue
        target = energy_decay_rate(material["rho"], material["c"], material["k"],
                                   material["l"], tau_q, mu2)
        rel = abs(row[2] / target - 1.0)
        if not rel <= RATE_RTOL:
            problems.append(f"pair ({tau_q}, {mu2}): fitted rate {row[2]:.6g} is "
                            f"{100 * rel:.2f}% from the oracle {target:.6g}")
        if row[6] != 1.0:
            problems.append(f"pair ({tau_q}, {mu2}): energy not monotone")
    return problems
