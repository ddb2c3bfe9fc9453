"""Operator assembly and the implicit time steppers.

The implicit step couples the temperature update and the flux law

    T_j^n = T_j^{n-1} - (dt/(rho c dx)) (q_{j+1}^n - q_j^n),        j = 0..J,
    (I - c_B L) q^n = c_r q^{n-1} - c_Q A_T T^n,                    j = 1..J,

with L the second-difference stencil, A_T the first-difference map on
temperatures, and boundary fluxes pinned to zero.  Substituting the first
relation into the second eliminates T^n exactly (A_T A_q = L), leaving one
tridiagonal system

    [I - (c_B + c_T dt) L] q^n = c_r q^{n-1} - c_Q A_T T^{n-1}

per step; the temperature update is then explicit.  (The interleaved
assembly is retained, solved densely, as the brute-force reference.)

step_vectorial_as_printed instead applies the closed-form update

    T^n = C T^{n-1} - c_q A_q B^{-1} q^{n-1},
    q^n = c_r B^{-1} q^{n-1} - c_Q B^{-1} A_T T^{n-1},
    C   = I + c_T A_q B^{-1} A_T,      B = I - c_B L,

verbatim.  That variant advances both fields from level n-1 and carries a
dt/dx^2 (not dt^2/dx^2) correction factor, so it is not equivalent to the
coupled solve at finite dt; it is kept as a comparison mode and the gap is
measured, never hidden.

Both steppers are diagonal in the scheme's exact eigenbasis (see linalg):
A_T maps cosine mode m of the temperatures to -s_m times sine mode m of the
interior fluxes, A_q maps it back with +s_m, and L has the eigenvalues
-s_m^2.  With a_m, b_m the cosine and sine amplitudes (m = 1..J), a coupled
step is

    b' = (c_r b + c_Q s a) / (1 + (c_B + c_T dt) s^2),    a' = a - c_flux s b',

and an as-printed step, with beta = 1/(1 + c_B s^2), is

    a' = (1 - c_T s^2 beta) a - c_q s beta b,    b' = c_r beta b + c_Q s beta a:

one 2x2 update per mode.  The mean, mode 0, is a fixed point of both, so it
is carried outside the step (T = m + e) and its heat is conserved exactly.
assemble stores the per-mode 2x2 increment matrices (new minus old
amplitudes); run transforms the initial state once, steps the amplitudes
a chunk of levels at a time, computes the trace from them, and rebuilds
physical states only at the stored levels.  The single-step functions take
the same path for one step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .discretization import Grid, State, _require_on_grid, build_grid
from .errors import InvalidLimit, MeshTooLarge, NonFiniteState
from .linalg import dct, dense_solve, difference_symbols, dst, idct
from .model import MaterialParams, SimulationConfig, StepperKind


#: float64 values per chunk of modal levels (128 KiB, cache-sized); a level
#: holds 2J amplitudes
TRACE_CHUNK_ELEMENTS = 2**14
#: largest number of bytes run() and the run command's writers may hold
#: (about 40x the 26 MB of a J=7999, 2500-step run storing every 25th
#: level); checked by run() before anything is allocated
MAX_RUN_BYTES = 2**30


@dataclass(frozen=True)
class AssembledOperators:
    """Mesh-and-material dependent operators, immutable after assembly.

    Scalar factors (s := tau_q + dt):

        c_B = mu2*dt/(s*dx^2)          flux-Laplacian weight in B
        c_T = k*dt/(rho*c*s*dx^2)      printed temperature-correction factor
        c_q = tau_q*dt/(rho*c*s*dx)    printed flux-history factor
        c_Q = k*dt/(s*dx)              temperature-gradient weight
        c_r = tau_q/s                  flux relaxation weight
        c_flux = dt/(rho*c*dx)         flux-divergence weight of the T update

    All factors use (tau_q + dt), so tau_q = 0 needs no special casing.
    (The field s is not this s but the symbols s_m of linalg.)
    coupled and printed are the per-mode 2x2 increment matrices D, shape
    (2, 2, J): a step maps the cosine amplitude a_m and the sine amplitude
    b_m of mode m = 1..J to (a, b) + D (a, b).  D is kept rather than
    I + D so that the trace gets each step's change to full precision.
    """

    J: int
    dx: float
    dt: float
    c_B: float
    c_T: float
    c_q: float
    c_Q: float
    c_r: float
    c_flux: float
    s: np.ndarray        # s_m = 2 sin(pi m/(2(J+1))), m = 1..J
    coupled: np.ndarray  # D of the coupled (and fourier_limit) stepper
    printed: np.ndarray  # D of the as-printed stepper


def assemble(params: MaterialParams, grid: Grid) -> AssembledOperators:
    """Build the scalar weights and the per-mode step matrices of both
    steppers for one (params, grid) pair."""
    J, dx, dt = grid.J, grid.dx, grid.dt
    s = params.tau_q + dt
    rc = params.rho_c
    c_B = params.mu2 * dt / (s * dx * dx)
    c_T = params.k * dt / (rc * s * dx * dx)
    c_q = params.tau_q * dt / (rc * s * dx)
    c_Q = params.k * dt / (s * dx)
    c_r = params.tau_q / s
    c_flux = dt / (rc * dx)
    sm = difference_symbols(J)
    # coupled: b' = g_ba a + g_bb b, then a' = a - c_flux s b'; 1 - c_r = dt/s
    w = c_B + c_T * dt
    reduced = 1.0 + w * sm * sm
    g_ba, g_bb = c_Q * sm / reduced, c_r / reduced
    coupled = np.array([[-c_flux * sm * g_ba, -c_flux * sm * g_bb],
                        [g_ba, -(dt / s + w * sm * sm) / reduced]])
    beta = 1.0 / (1.0 + c_B * sm * sm)
    printed = np.array([[-c_T * sm * sm * beta, -c_q * sm * beta],
                        [c_Q * sm * beta, -(dt / s + c_B * sm * sm) * beta]])
    return AssembledOperators(J=J, dx=dx, dt=dt, c_B=c_B, c_T=c_T, c_q=c_q,
                              c_Q=c_Q, c_r=c_r, c_flux=c_flux, s=sm,
                              coupled=coupled, printed=printed)


def _modes(state: State, m: float) -> np.ndarray:
    # (2, J): cosine amplitudes of the fluctuation T - m (mode 0, which
    # only rounding fills, is dropped) and sine amplitudes of q_1..q_J
    return np.stack((dct(state.T - m)[1:], dst(state.q_interior)))


def _states(m: float, x: np.ndarray) -> list[State]:
    """States T = m + e of the (P, 2, J) amplitudes x."""
    P, _, J = x.shape
    cos = np.zeros((P, J + 1))
    cos[:, 1:] = x[:, 0]
    q = np.zeros((P, J + 2))
    q[:, 1:-1] = dst(x[:, 1])
    return [State(T=m + e, q=qn) for e, qn in zip(idct(cos), q)]


def _kernel(D: np.ndarray) -> np.ndarray:
    # (2, 2, J): row 0 the diagonal of D, row 1 its off-diagonal in swapped
    # order, so that D (a, b) = k[0]*(a, b) + swap(k[1]*(a, b))
    return np.array([[D[0, 0], D[1, 1]], [D[1, 0], D[0, 1]]])


def _step_kernel(D: np.ndarray) -> np.ndarray:
    kernel = _kernel(D)
    kernel[0] += 1.0
    return kernel


def _increments(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """D x for the (K, 2, J) levels x, kernel = _kernel(D)."""
    return kernel[0] * x + kernel[1, ::-1] * x[:, ::-1]


def _advance(kernel: np.ndarray, buf: np.ndarray, count: int,
             first_step: int) -> None:
    """Fill buf[1..count] with the levels after buf[0], two whole-array
    operations per step.

    The as-printed update can overflow, so the loop runs with overflow and
    invalid-value warnings off and the levels are checked for non-finite
    values afterwards; step first_step writes buf[1].
    """
    levels = list(buf[:count + 1])
    products = np.empty((2,) + buf.shape[1:])
    diagonal, swapped = products[0], products[1, ::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, cur in zip(levels, levels[1:]):
            np.multiply(kernel, prev, out=products)
            np.add(diagonal, swapped, out=cur)
    finite = np.isfinite(buf[1:count + 1]).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteState(f"step {first_step + int(np.argmin(finite))} produced "
                             "a non-finite temperature or flux")


def _step(D: np.ndarray, prev: State) -> State:
    m = float(np.mean(prev.T))
    buf = np.empty((2, 2, D.shape[-1]))
    buf[0] = _modes(prev, m)
    _advance(_step_kernel(D), buf, 1, 1)
    return _states(m, buf[1:])[0]


def step_coupled(ops: AssembledOperators, params: MaterialParams, grid: Grid,
                 prev: State) -> State:
    """Advance one step by the exact coupled solve; the default stepper.

    With tau_q = mu2 = 0 this is implicit Euler for rho*c*T_t = -q_x,
    q = -k*T_x, the fourier_limit stepper.
    """
    _require_on_grid(prev, grid, "prev")
    return _step(ops.coupled, prev)


def step_vectorial_as_printed(ops: AssembledOperators, params: MaterialParams,
                              grid: Grid, prev: State) -> State:
    """Advance one step by the closed-form vectorial update, verbatim.

    Both updates read level n-1 only.  Not equivalent to step_coupled at
    finite dt; use for gap measurement.  In the Fourier limit the explicit
    temperature correction is unstable at practical meshes, so long runs
    can overflow (NonFiniteState).
    """
    _require_on_grid(prev, grid, "prev")
    return _step(ops.printed, prev)


def assemble_coupled_system(params: MaterialParams, grid: Grid,
                            prev: State) -> tuple[np.ndarray, np.ndarray]:
    """Verbatim interleaved assembly of the implicit step equations.

    Unknowns are ordered (T_0, q_1, T_1, q_2, ..., T_J); rows are the
    untransformed step equations (bandwidth 2), returned as a dense
    (2J+1) x (2J+1) matrix and right-hand side: the brute-force route
    that step_coupled is checked against.
    """
    _require_on_grid(prev, grid, "prev")
    J, dx, dt = grid.J, grid.dx, grid.dt
    rc = params.rho_c
    n = 2 * J + 1
    a = np.zeros((n, n))
    b = np.zeros(n)

    def i_T(j: int) -> int:
        return 2 * j

    def i_q(j: int) -> int:
        return 2 * j - 1

    for j in range(J + 1):
        r = i_T(j)
        a[r, i_T(j)] = rc / dt
        if j + 1 <= J:
            a[r, i_q(j + 1)] += 1.0 / dx
        if j >= 1:
            a[r, i_q(j)] -= 1.0 / dx
        b[r] = rc / dt * prev.T[j]
    for j in range(1, J + 1):
        r = i_q(j)
        a[r, i_q(j)] = params.tau_q / dt + 1.0 + 2.0 * params.mu2 / dx**2
        if j + 1 <= J:
            a[r, i_q(j + 1)] = -params.mu2 / dx**2
        if j >= 2:
            a[r, i_q(j - 1)] = -params.mu2 / dx**2
        a[r, i_T(j)] += params.k / dx
        a[r, i_T(j - 1)] -= params.k / dx
        b[r] = params.tau_q / dt * prev.q[j]
    return a, b


def step_coupled_reference(params: MaterialParams, grid: Grid,
                           prev: State) -> State:
    """Brute-force coupled step: dense solve of the interleaved system.

    O(J^3); intended for small J cross-checks of step_coupled.
    """
    system, b = assemble_coupled_system(params, grid, prev)
    x = dense_solve(system, b)
    q = np.zeros(grid.J + 2)
    q[1:-1] = x[1::2]
    return State(T=x[0::2], q=q)


@dataclass(frozen=True)
class Trajectory:
    """A completed run: strided state snapshots plus per-step diagnostics."""

    states: list[State]
    stored_steps: list[int]   # time indices of the stored states
    grid: Grid
    params: MaterialParams
    stepper_kind: StepperKind
    trace: diagnostics.EnergyTrace

    @property
    def final_state(self) -> State:
        return self.states[-1]


def run_memory_bytes(grid: Grid, stride: int) -> int:
    """Bytes run() and the run command's writers hold for grid and stride.

    Counts the time axis and its copy in the trace, the trace rows (as
    computed and once concatenated), Z, and the trace writer's table (8
    columns), all N+2 long; the states kept every stride steps, 2J+3 values
    each, and the profiles writer's table of them; and the chunk buffer.
    """
    levels, J = grid.N + 2, grid.J
    kept = len(range(0, grid.N + 2, stride)) + ((grid.N + 1) % stride != 0)
    chunk = max(1, TRACE_CHUNK_ELEMENTS // (2 * J))
    values = (levels * (2 + 2 * 6 + 1 + 8)
              + kept * (2 * J + 3) + (J + 1) * (1 + 2 * kept)
              + (chunk + 1) * 2 * J)
    return 8 * values


def run(params: MaterialParams, config: SimulationConfig, init: State,
        stride: int = 1) -> Trajectory:
    """Advance init over the full time mesh with the configured stepper.

    States are stored every `stride` steps (level 0 and the final level
    always included); energy diagnostics are recorded at every step
    regardless of stride, a chunk of levels at a time.  Every stepper
    advances the modal amplitudes of the fluctuation e of T = m + e around
    the conserved mean m, and of the interior flux.  Raises MeshTooLarge,
    before allocating, if run_memory_bytes exceeds MAX_RUN_BYTES, and
    NonFiniteState if a step overflows.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    grid = build_grid(params, config)
    _require_on_grid(init, grid, "init")
    kind = config.stepper_kind
    if kind == StepperKind.FOURIER_LIMIT and not params.is_fourier:
        raise InvalidLimit("fourier_limit stepper needs tau_q = mu2 = 0")
    need = run_memory_bytes(grid, stride)
    if need > MAX_RUN_BYTES:
        raise MeshTooLarge(f"a run on J={grid.J}, N={grid.N} with stride {stride} "
                           f"would hold {need:.3g} bytes, more than "
                           f"MAX_RUN_BYTES = {MAX_RUN_BYTES}")
    ops = assemble(params, grid)
    D = ops.printed if kind == StepperKind.VECTORIAL_AS_PRINTED else ops.coupled
    step, increment = _step_kernel(D), _kernel(D)
    weights = diagnostics.modal_trace_weights(params, grid)
    J, last = grid.J, grid.N + 1
    chunk = max(1, TRACE_CHUNK_ELEMENTS // (2 * J))
    m = float(np.mean(init.T))
    # row 0 holds the level before the chunk
    buf = np.empty((chunk + 1, 2, J))
    buf[0] = _modes(init, m)
    states, stored, rows = [init], [0], []
    for start in range(1, last + 1, chunk):
        count = min(chunk, last + 1 - start)
        _advance(step, buf, count, start)
        # the first chunk also gives level 0 its row
        rows.append(diagnostics.modal_trace_rows(
            weights, m, buf[:count + 1], _increments(increment, buf[:count]),
            first=0 if start == 1 else 1))
        keep = np.arange(start, start + count)
        keep = keep[(keep % stride == 0) | (keep == last)]
        if keep.size:
            states.extend(_states(m, buf[keep - start + 1]))
            stored.extend(keep.tolist())
        buf[0] = buf[count]
    trace = diagnostics.build_trace(params, grid.t, np.concatenate(rows))
    return Trajectory(states=states, stored_steps=stored, grid=grid,
                      params=params, stepper_kind=kind, trace=trace)
