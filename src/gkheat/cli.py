"""Configuration parsing, reference runs, verification suites, and sweeps.

Config files are UTF-8 ``key = value`` lines ('#' starts a comment).  Keys:
rho, c, tau_q, mu2, k, l, dx, dt, t_final, T_b, T_f, stepper, stride,
out_dir.  Missing keys fall back to the reference case defaults below, and
a key whose default is a float takes a number; a repeated key, a
non-finite number or a fourier_limit stepper with a nonzero tau_q or mu2 is
a ParseError.  fourier_limit names no stepper of its own: it is
coupled_implicit, checked to run at tau_q = mu2 = 0.

Exit codes: 0 success / all checks pass, 1 usage or configuration error
(a mesh over discretization.MAX_MESH_POINTS or with l outside [1e-50, 1e50],
or a run over scheme.MAX_RUN_BYTES, included), 2 numerical failure
(errors.NumericalFailure: a non-finite state, a singular matrix, a rate fit
without data, a decay rate omega that underflows to 0), 3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks, csvtext, diagnostics, scheme
from .discretization import build_grid, cosine_initial
from .errors import GKHeatError, MeshTooLarge, NumericalFailure, ParseError
from .model import MaterialParams, SimulationConfig, StepperKind

#: reference case: cosine initial profile on a 0.1 m conductor
REFERENCE_DEFAULTS: dict[str, object] = {
    "rho": 2e3,        # [kg/m^3]
    "c": 5e2,          # [J/(kg K)]
    "tau_q": 8e-3,     # [s]
    "mu2": 2.8e-3,     # [m^2]
    "k": 2e3,          # [W/(m K)]
    "l": 0.1,          # [m]
    "dx": 2e-4,        # [m]
    "dt": 1.2e-2,      # [s]
    "t_final": 30.0,   # [s]
    "T_b": 15.0,       # [degC]
    "T_f": 30.0,       # [degC]
    "stepper": "coupled_implicit",
    "stride": 25,
    "out_dir": "out",
}

#: previously reported equilibrium level for the reference configuration,
#: emitted next to the closed form (rho*c/2)*l*T_b^2 for comparison
REPORTED_EQUILIBRIUM_REFERENCE = 1.24e7

TRACE_COLUMNS = ("n", "t", "E", "diss_lhs", "diss_rhs", "heat", "C_T",
                 "lyapunov", "Z")

#: the stepper spellings a config accepts and the stepper each selects
_STEPPERS = {**{kind.value: kind for kind in StepperKind},
             "fourier_limit": StepperKind.COUPLED_IMPLICIT}


def _fmt(x: float) -> str:
    """17 significant digits, '.' decimal separator, bit-faithful round trip."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RunManifest:
    """Everything one command needs: material, numerics, and output routing."""

    params: MaterialParams
    config: SimulationConfig
    out_dir: Path
    stride: int
    stepper: StepperKind


def parse_config(text: str) -> RunManifest:
    """Parse key = value lines into a manifest, defaulting to the reference case."""
    values = dict(REFERENCE_DEFAULTS)
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in REFERENCE_DEFAULTS:
            raise ParseError(lineno, f"unknown configuration key {key!r}")
        if key in seen:
            raise ParseError(lineno, f"duplicate key {key!r}, first set on line {seen[key]}")
        seen[key] = lineno
        if not val:
            raise ParseError(lineno, f"empty value for key {key!r}")
        if isinstance(REFERENCE_DEFAULTS[key], float):
            try:
                values[key] = float(val)
            except ValueError:
                raise ParseError(lineno, f"{key!r} needs a number, got {val!r}")
            if not np.isfinite(values[key]):
                raise ParseError(lineno, f"{key!r} must be finite, got {val!r}")
        elif key == "stride":
            try:
                values[key] = int(val)
            except ValueError:
                raise ParseError(lineno, f"stride needs an integer, got {val!r}")
            if values[key] < 1:
                raise ParseError(lineno, "stride must be >= 1")
        elif key == "stepper" and val not in _STEPPERS:
            raise ParseError(lineno, f"stepper must be one of: {', '.join(_STEPPERS)}")
        else:
            values[key] = val
    params = MaterialParams(rho=values["rho"], c=values["c"],
                            tau_q=values["tau_q"], mu2=values["mu2"],
                            k=values["k"], l=values["l"])
    if values["stepper"] == "fourier_limit" and not params.is_fourier:
        raise ParseError(seen["stepper"], "stepper fourier_limit needs tau_q = mu2 = 0, "
                         f"got tau_q = {params.tau_q:g}, mu2 = {params.mu2:g}")
    config = SimulationConfig(dx=values["dx"], dt=values["dt"], t_final=values["t_final"],
                              T_b=values["T_b"], T_f=values["T_f"])
    return RunManifest(params=params, config=config, out_dir=Path(str(values["out_dir"])),
                       stride=int(values["stride"]), stepper=_STEPPERS[values["stepper"]])


def write_trace_csv(path: Path, trace: diagnostics.EnergyTrace,
                    dc: diagnostics.DecayConstants, sup_ct: float) -> None:
    """One row per level, every number (n too) as _fmt writes it.  The last,
    Z, is plot.gp's envelope over its decaying term (NaN when E0 = 0)."""
    Z = np.full(len(trace), np.nan)
    if trace.E[0] > 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(np.multiply(dc.omega, trace.t, out=Z), out=Z)
            Z *= dc.M1 * sup_ct / (dc.M * trace.E[0])
            Z += 1.0
    csvtext.write_csv(path, ",".join(TRACE_COLUMNS), [
        np.arange(len(trace), dtype=float), trace.t, trace.E, trace.diss_lhs,
        trace.diss_rhs, trace.heat, trace.C_T, trace.lyapunov, Z])


def write_profiles_csv(path: Path, traj: scheme.Trajectory) -> None:
    """Strided T and q snapshots, wide format, every number as _fmt writes it.

    Rows are nodes j = 0..J; the final flux node q_{J+1} = 0 is implied and
    not written, so temperature and flux columns share the x column.
    """
    times = [traj.trace.t[n] for n in traj.stored_steps]
    header = (["x"] + [f"T_t{t:.6g}" for t in times]
              + [f"q_t{t:.6g}" for t in times])
    csvtext.write_csv(path, ",".join(header),
                      [traj.grid.x[:traj.grid.J + 1], traj.T, traj.q[:, :-1]])


def _write_constants(path: Path, manifest: RunManifest, traj: scheme.Trajectory,
                     dc: diagnostics.DecayConstants, sup_ct: float) -> None:
    params, trace = manifest.params, traj.trace
    closed = 0.5 * params.rho_c * params.l * manifest.config.T_b**2
    lines = {
        "beta": dc.beta,
        "omega": dc.omega,
        "M0": dc.M,
        "gamma0": dc.gamma0,
        "M1": dc.M1,
        "sup_CT": sup_ct,
        "E0": trace.E[0],
        "E_final": trace.E[-1],
        "heat_initial": trace.heat[0],
        "heat_drift_max_abs": checks.heat_drift(trace),
        "E_equilibrium_closed_form": closed,
    }
    if closed > 0.0:
        lines["E_final_vs_closed_form_rel"] = trace.E[-1] / closed - 1.0
    reference_case = all(
        getattr(params, name) == REFERENCE_DEFAULTS[name]
        for name in ("rho", "c", "l")) and manifest.config.T_b == REFERENCE_DEFAULTS["T_b"]
    if reference_case:
        # a previously reported level for this configuration; differs from
        # the closed form above and is listed for comparison only
        lines["E_equilibrium_reference_reported"] = REPORTED_EQUILIBRIUM_REFERENCE
        lines["closed_form_vs_reported_rel"] = closed / REPORTED_EQUILIBRIUM_REFERENCE - 1.0
    path.write_text(
        "".join(f"{k} = {_fmt(v)}\n" for k, v in lines.items()), encoding="utf-8")


def _write_plot_script(path: Path, traj: scheme.Trajectory,
                       dc: diagnostics.DecayConstants, sup_ct: float) -> None:
    envelope = (f"envelope(t) = {_fmt(dc.M)}*{_fmt(traj.trace.E[0])}"
                f"*exp(-{_fmt(dc.omega)}*t) + {_fmt(dc.M1 * sup_ct)}")
    text = f"""\
# generated by gkheat; feed to gnuplot from the output directory
set datafile separator ','
set terminal pngcairo size 960,640

set output 'temperature_waterfall.png'
set xlabel 'x [m]'
set ylabel 'T [degC]'
plot for [i=2:{len(traj.stored_steps) + 1}] 'profiles.csv' skip 1 using 1:i with lines notitle

set output 'energy.png'
set xlabel 't [s]'
set ylabel 'E'
plot 'trace.csv' skip 1 using 2:3 with lines title 'E(t)'

set output 'energy_log.png'
set logscale y
{envelope}
plot 'trace.csv' skip 1 using 2:3 with lines title 'E(t)', \\
     envelope(x) with lines dashtype 2 title 'decay envelope'
unset logscale y
"""
    path.write_text(text, encoding="utf-8")


def cmd_run(manifest: RunManifest) -> int:
    """Simulate, then write trace.csv, profiles.csv, constants.txt, plot.gp."""
    params, config = manifest.params, manifest.config
    grid = build_grid(params, config)
    traj = scheme.run(params, config, cosine_initial(grid, config.T_b, config.T_f),
                      stride=manifest.stride, kind=manifest.stepper)
    dc = diagnostics.decay_constants(params)
    sup_ct = diagnostics.supremum_boundary_term(traj.trace)
    out = manifest.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / "trace.csv", traj.trace, dc, sup_ct)
    write_profiles_csv(out / "profiles.csv", traj)
    _write_constants(out / "constants.txt", manifest, traj, dc, sup_ct)
    _write_plot_script(out / "plot.gp", traj, dc, sup_ct)
    print(f"wrote {out}/trace.csv profiles.csv constants.txt plot.gp ({grid.N + 1} "
          f"steps, J={grid.J}, case={'fourier' if params.is_fourier else 'gk'})")
    return 0


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def cmd_verify(manifest: RunManifest) -> int:
    """Run the property suite and print one pass/fail line per property.

    The suite checks the reference coupled scheme (the proved properties
    are about that solve); a manifest selecting the as-printed stepper
    additionally gets its per-step gap to the coupled solve reported,
    informational and non-fatal.
    """
    params, config = manifest.params, manifest.config
    grid = build_grid(params, config)
    try:  # refuse the rate fit's mesh before the first run
        build_grid(params, checks.rate_fit_config(config))
    except MeshTooLarge as exc:
        raise MeshTooLarge(f"mode_rate_fit's mesh at dt/8 = {config.dt / 8:.6g}: {exc}") from None
    trace = scheme.run(params, config, cosine_initial(grid, config.T_b, config.T_f),
                       stride=grid.N + 1).trace
    results = [
        checks.energy_monotone(trace),
        checks.dissipation_inequality(trace),
        checks.heat_conservation(trace),
        checks.lyapunov_sandwich(trace, params),
        checks.decay_envelope(trace, params),
        checks.oracle_equivalence(params, config),
        checks.mode_rate_fit(params, config),
    ]
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    if manifest.stepper == StepperKind.VECTORIAL_AS_PRINTED:
        gaps = checks.printed_gaps(params, config)
        for dt, gap in gaps:
            print(f"INFO printed-vs-coupled gap at dt={dt:.6g}: {gap:.6e}")
        print("INFO gap halving ratios: "
              + ", ".join(f"{b / a:.4f}" for (_, a), (_, b) in zip(gaps, gaps[1:])))
    return 0 if all(r.ok for r in results) else 3


def cmd_sweep(manifest: RunManifest,
              pairs: list[tuple[float, float]]) -> int:
    """Run zero-mean decay cases over (tau_q, mu2) pairs; write summary.csv.

    Each pair uses the manifest numerics with T_b forced to zero so the
    fitted rate is a clean exponential, and its run traces the energy
    alone; rows list the fitted rate next to the proven lower bound omega.
    """
    out = manifest.out_dir
    out.mkdir(parents=True, exist_ok=True)
    lines = ["tau_q,mu2,fitted_rate,omega,M,E_final,monotone"]
    for tau_q, mu2 in pairs:
        params = dataclasses.replace(manifest.params, tau_q=tau_q, mu2=mu2)
        trace = checks.zero_mean_decay(params, manifest.config)
        dc = diagnostics.decay_constants(params)
        fitted = diagnostics.fit_energy_decay_rate(trace, params)
        monotone = checks.energy_monotone(trace).ok
        lines.append(",".join([
            _fmt(tau_q), _fmt(mu2), _fmt(fitted), _fmt(dc.omega), _fmt(dc.M),
            _fmt(trace.E[-1]), "1" if monotone else "0"]))
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}/summary.csv ({len(pairs)} rows)")
    return 0


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected TAU_Q,MU2")
    return float(parts[0]), float(parts[1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gkheat",
        description="Implicit finite-difference solver and verifier for the "
                    "1-D Guyer-Krumhansl heat equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "simulate and write trace/profile files"),
                        ("verify", "run the property suite"),
                        ("sweep", "decay-rate sweep over (tau_q, mu2) pairs")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("-c", "--config", type=Path, default=None,
                        help="key = value config file (defaults: reference case)")
        if name == "sweep":
            sp.add_argument("--pair", action="append", type=_parse_pair,
                            metavar="TAU_Q,MU2", default=None,
                            help="sweep point; repeatable")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is exit 1 here; --help 0
        return 1 if exc.code else 0
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        manifest = parse_config(text)
        if args.command == "run":
            return cmd_run(manifest)
        if args.command == "verify":
            return cmd_verify(manifest)
        pairs = args.pair
        if pairs is None:
            p = manifest.params
            pairs = [(p.tau_q, p.mu2), (p.tau_q / 2.0, p.mu2 / 2.0), (0.0, 0.0)]
        return cmd_sweep(manifest, pairs)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (GKHeatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
