"""Mutation suite: slips put into the trace weights, the step matrices or
the group hop, each run through `gkheat verify`, which must exit 3 on all
but SURVIVORS.

Each slip wraps scheme.modal_trace_weights, scheme.assemble or
scheme._power_table, which run calls through its module, so that every
run verify makes sees it.  A slip that no check catches yet is listed in
SURVIVORS, and the test holds it to exit 0 there: a new check that
catches one must shrink the set, and a regression that lets a caught slip
through fails.  The kept levels' offset in their chunk has no such hook;
test_checks pins that slip against oracle_equivalence.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from gkheat import scheme
from gkheat.cli import main


def scaled(array: np.ndarray, index, factor: float) -> np.ndarray:
    """A copy of array with array[index] times factor."""
    out = array.copy()
    out[index] *= factor
    return out


def weights_slip(**fields):
    """A slip of modal_trace_weights: each field replaced by fields[name](w)."""
    return scheme, "modal_trace_weights", lambda w: dataclasses.replace(
        w, **{name: change(w) for name, change in fields.items()})


def hop_slip(factor: float):
    """A slip of the group hop: the result of the second _power_table call
    of each block, the powers of G^K that carry a chunk's base to the
    next, times factor.  run's blocks make two calls each."""
    calls = itertools.count(1)
    return scheme, "_power_table", lambda table: (
        table * factor if next(calls) % 2 == 0 else table)


def high_modes_slip(GD):
    """assemble's G and D with D, and G's matching entries, times 1 + 1e-9
    in modes 9..J alone (the last axis holds the modes m = 1..J)."""
    G, D = GD
    slip = np.zeros_like(D)
    slip[..., 8:] = 1e-9 * D[..., 8:]
    return G + slip, D + slip


#: name -> (module, function, change made to the function's result); the
#: quadratic weights' rows are E, diss_rhs and F, on y_0^2, y_1^2, y_0 y_1,
#: and the linear weights' are F/m and C_T/heat
SLIPS = {
    "diss_rhs x0.97": weights_slip(quadratic=lambda w: scaled(w.quadratic, 1, 0.97)),
    "diss_rhs x1.03": weights_slip(quadratic=lambda w: scaled(w.quadratic, 1, 1.03)),
    "E b^2 x(1+1e-6)": weights_slip(
        quadratic=lambda w: scaled(w.quadratic, (0, 1), 1.0 + 1e-6)),
    "increments x(1+1e-9)": weights_slip(increment=lambda w: w.increment * (1.0 + 1e-9)),
    "F x1.05": weights_slip(quadratic=lambda w: scaled(w.quadratic, 2, 1.05),
                            linear=lambda w: scaled(w.linear, 0, 1.05),
                            F_mean=lambda w: 1.05 * w.F_mean),
    "C_T x1.05": weights_slip(linear=lambda w: scaled(w.linear, 1, 1.05),
                              boundary_mean=lambda w: 1.05 * w.boundary_mean),
    "lyapunov weight x1.05": weights_slip(
        lyapunov_weight=lambda w: 1.05 * w.lyapunov_weight),
    "coupled D x(1+1e-9)": (scheme, "assemble",
                            lambda GD: (GD[0] + 1e-9 * GD[1], (1.0 + 1e-9) * GD[1])),
    "group hop G^K x(1+1e-9)": hop_slip(1.0 + 1e-9),
    "modes 9..J D x(1+1e-9)": (scheme, "assemble", high_modes_slip),
}

#: the slips that verify passes today
SURVIVORS = {"diss_rhs x0.97", "E b^2 x(1+1e-6)", "increments x(1+1e-9)",
             "F x1.05", "C_T x1.05", "lyapunov weight x1.05"}


@pytest.fixture
def config(tmp_path):
    # J = 49, 2500 steps of the reference dt
    path = tmp_path / "slip.cfg"
    path.write_text("dx = 2e-3\n")
    return str(path)


def test_survivors_are_slips():
    assert SURVIVORS < set(SLIPS)


def test_verify_passes_without_a_slip(config, capsys):
    assert main(["verify", "-c", config]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("name", SLIPS)
def test_verify_fails_on_every_slip_but_the_survivors(monkeypatch, capsys, config, name):
    module, function, change = SLIPS[name]
    original, calls = getattr(module, function), []

    def slipped(*args):
        calls.append(args)
        return change(original(*args))

    monkeypatch.setattr(module, function, slipped)
    code = main(["verify", "-c", config])
    assert calls
    assert code == (0 if name in SURVIVORS else 3), capsys.readouterr().out
