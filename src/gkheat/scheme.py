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
assemble stores the per-mode 2x2 increment matrices D (new minus old
amplitudes).  With G = I + D, level s + k is G^k times level s, and each
of its trace terms is a quadratic or linear form in level s.  So run
transforms the initial state once and works through the modes a block at
a time: from a block's powers G^k and G^(k-1) D (the step increments),
k = 0..K, it builds one trace table (diagnostics.modal_trace_table), and
every row of the run gets the block's share from one matrix product of
the table with the features of the chunk bases, the levels 0, K, 2K, ...
A run with energy_only (the decay-rate fits of sweep and verify) traces E
and heat alone: its table is E's weights on the quadratic features, 3
values per level and mode instead of 25, built from the powers G^k
alone, and its blocks are longer and wider (_block_shape).  Only the
stored levels are formed, and their T and q are rebuilt from them into
two arrays, a batch of levels per transform, after the last block.  The
single-step functions apply the table of one power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csvtext, diagnostics
from .discretization import Grid, State, _require_on_grid, build_grid
from .errors import InvalidLimit, MeshTooLarge, NonFiniteInput, NonFiniteState
from .linalg import dct, dense_solve, difference_symbols, dst, idct
from .model import MaterialParams, SimulationConfig, StepperKind


#: float64 values in one block's trace table (256 KiB): run traces the
#: modes a block at a time, each block's share of every trace row a matrix
#: product with this table; it sets the shape of the blocks (_block_shape),
#: and a block's buffers hold about 4x as many values in all.  An
#: energy-only block is shaped from the same budget, with the 9 values per
#: level and mode of the products that form E's table in place of the 25
#: of the full table.  It also sets how many kept levels are rebuilt from
#: their amplitudes at a time
TRACE_CHUNK_ELEMENTS = 2**15
#: largest number of bytes run() and the run command's writers may hold
#: (about 40x the 27 MB of a J=7999, 2500-step run storing every 25th
#: level); checked by run() before anything is allocated
MAX_RUN_BYTES = 2**30


@dataclass(frozen=True)
class AssembledOperators:
    """The per-mode 2x2 increment matrices D of both steppers, shape
    (2, 2, J): a step maps the cosine amplitude a_m and the sine amplitude
    b_m of mode m = 1..J to (a, b) + D (a, b).  D is kept rather than
    I + D so that the trace gets each step's change to full precision.
    """

    coupled: np.ndarray  # D of the coupled (and fourier_limit) stepper
    printed: np.ndarray  # D of the as-printed stepper


def assemble(params: MaterialParams, grid: Grid) -> AssembledOperators:
    """Build the per-mode step matrices of both steppers for one
    (params, grid) pair from the scalar factors (s := tau_q + dt)

        c_B = mu2*dt/(s*dx^2)          flux-Laplacian weight in B
        c_T = k*dt/(rho*c*s*dx^2)      printed temperature-correction factor
        c_q = tau_q*dt/(rho*c*s*dx)    printed flux-history factor
        c_Q = k*dt/(s*dx)              temperature-gradient weight
        c_r = tau_q/s                  flux relaxation weight
        c_flux = dt/(rho*c*dx)         flux-divergence weight of the T update

    and the symbols s_m of linalg.difference_symbols (sm here).  All
    factors use (tau_q + dt), so tau_q = 0 needs no special casing.
    """
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
    return AssembledOperators(coupled=coupled, printed=printed)


def _modes(state: State, m: float) -> np.ndarray:
    # (2, J): cosine amplitudes of the fluctuation T - m (mode 0, which
    # only rounding fills, is dropped) and sine amplitudes of q_1..q_J
    return np.stack((dct(state.T - m)[1:], dst(state.q_interior)))


def _levels(m: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T = m + e (P, J + 1) and q (P, J + 2) of the (P, 2, J) amplitudes x."""
    P, _, J = x.shape
    cos = np.zeros((P, J + 1))
    cos[:, 1:] = x[:, 0]
    q = np.zeros((P, J + 2))
    q[:, 1:-1] = dst(x[:, 1])
    return m + idct(cos), q


def _times(cols: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = M x per mode, broadcast: cols[j] is column j of the 2x2
    matrices M and x[..., i, :] component i of the vectors."""
    np.multiply(cols[0], x[..., :1, :], out=out)
    out += cols[1] * x[..., 1:, :]
    return out


def _power_table(cols: np.ndarray, K: int) -> np.ndarray:
    """(2, c, K', 2, n): [j, i, k-1] = G^(k-1) cols[j, i], k = 1..K', per
    mode; cols (2, c, 2, n) holds c vectors per column j, cols[:, 0] the
    columns of G.  Built by doubling (G^p applied to the first p entries
    gives the next p), not from an eigendecomposition: a mode's
    eigenvectors are ill-conditioned where it passes from over- to
    under-damped.  K' is K cut at the first non-finite entry (at least 1),
    which the unstable as-printed Fourier-limit stepper reaches within a
    few dozen levels.
    """
    table = np.empty(cols.shape[:2] + (K,) + cols.shape[2:])
    table[:, :, 0] = cols
    p = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while p < K:
            count = min(p, K - p)
            _times(table[:, 0, p - 1], table[:, :, :count],
                   out=table[:, :, p:p + count])
            p += count
    finite = np.isfinite(table).all(axis=(0, 1, 3, 4))
    return table if finite.all() else table[:, :, :max(1, int(np.argmin(finite)))]


def _chunk_table(D: np.ndarray, K: int, increments: bool = True) -> np.ndarray:
    """(2, c, K', 2, J) columns of the step powers for k = 1..K', G = I + D
    per mode: [j, 0, k-1] is column j of G^k and, with increments (c = 2),
    [j, 1, k-1] column j of G^(k-1) D; cut as _power_table cuts."""
    cols = D.swapaxes(0, 1)
    steps = np.eye(2)[:, :, None] + cols
    return _power_table(np.stack((steps, cols) if increments else (steps,), axis=1), K)


def _require_finite(ok: np.ndarray, first_step: int) -> None:
    """Raise NonFiniteState naming the first step whose flag in ok is False;
    ok[0] belongs to step first_step."""
    if not ok.all():
        raise NonFiniteState(f"step {first_step + int(np.argmin(ok))} produced a "
                             "non-finite temperature, flux or energy")


def _step(D: np.ndarray, prev: State) -> State:
    m = float(np.mean(prev.T))
    x = np.empty((1, 2, D.shape[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        _times(_chunk_table(D, 1)[:, 0], _modes(prev, m), out=x)
    _require_finite(np.isfinite(x).all(axis=(1, 2)), 1)
    T, q = _levels(m, x)
    return State(T=T[0], q=q[0])


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
    """A completed run: the kept levels, a row each, and per-step diagnostics."""

    T: np.ndarray             # (S, J+1) temperatures of the kept levels
    q: np.ndarray             # (S, J+2) fluxes, q[:, 0] = q[:, -1] = 0
    stored_steps: list[int]   # time indices of the S kept levels
    grid: Grid
    trace: diagnostics.EnergyTrace


def _block_shape(grid: Grid, energy_only: bool = False) -> tuple[int, int, int]:
    """(K, n, M): levels per chunk, modes per block, chunks per group.

    A block's trace table, 25 (K + 1) n <= TRACE_CHUNK_ELEMENTS values, is
    32 times as wide in modes as in levels, n = 32 (K + 1), unless the mesh
    has fewer modes; K then fills the budget, but is at most N + 1.  A
    group's features, 5 M n values, are as many as the table's, M =
    5 (K + 1), unless the run has fewer chunks.  These shapes fix the
    order of the trace's sums, and so the bytes of trace.csv.

    With energy_only the table is E's alone, 3 (K + 1) n values, and its
    largest array is the 9 (K + 1) n monomials it is formed from: the
    budget bounds those, and n and K follow as above.  A group's features
    in the product, 3 M n values, are as many as the table's, M = K + 1.
    At J = 499 and 7999 over 2,500 steps that is (10, 320, 11) against
    (5, 192, 30), and an energy-only block holds fewer buffer values than
    a full one on the same mesh (the tests measure both).
    """
    columns, per_level = (1, 9) if energy_only else (5, 25)
    n = min(grid.J, max(1, 32 * math.isqrt(TRACE_CHUNK_ELEMENTS // (32 * per_level))))
    K = min(grid.N + 1, max(1, TRACE_CHUNK_ELEMENTS // (per_level * n) - 1))
    return K, n, min(columns * (K + 1), -(-(grid.N + 1) // K))


def _level_batch(grid: Grid) -> int:
    """Kept levels rebuilt from their amplitudes at a time: their
    transforms' temporaries, about 8 (J + 1) values per level, are at most
    TRACE_CHUNK_ELEMENTS values unless one level is more."""
    return max(1, TRACE_CHUNK_ELEMENTS // (8 * grid.J + 8))


def run_memory_bytes(grid: Grid, stride: int) -> int:
    """Bytes run() and the run command's writers hold for grid and stride.

    Counts, per level, the time axis and its copy, the trace's modal sums
    (5 columns), rows (6), a column of temporaries, Z and the trace
    writer's step numbers (1); 10 J values of transform temporaries; and
    the larger of two phases.  While the blocks run, run holds the kept
    levels' amplitudes (2J values each), the operators (8J), the trace
    weights (15J) and level 0's amplitudes (2J), and per block the buffer
    of table and features (25 (K + 1) n + 5 (M + 1) n), the power tables
    (16 (K + 1) n and 4 M n), modal_trace_table's temporaries
    (at most 40 (K + 1) n) and a group's sums, stored levels and bases
    (5 K M + 2 M n).  From then on it holds, per kept level, its 2J+3
    values of T and q plus 32 for Python objects (its entry in
    stored_steps and the profiles writer's two labels, its time and its
    share of the header's text: about 220 bytes measured), and the larger
    of two things: the kept levels' amplitudes while T and q are rebuilt
    from them, with a batch's transform temporaries (8 (J + 1) values per
    level), or a block of the CSV writers (see csvtext.BYTES_PER_VALUE).
    It bounds an energy-only run too: its blocks hold no more than the
    full trace's (see _block_shape), and its trace fewer columns.
    """
    levels, J = grid.N + 2, grid.J
    kept = len(range(0, grid.N + 2, stride)) + ((grid.N + 1) % stride != 0)
    K, n, M = _block_shape(grid)
    blocks = (kept * 2 * J + (8 + 15 + 2) * J + (K + 1) * n * (25 + 16 + 40)
              + M * n * (5 + 4 + 2) + 5 * n + 5 * K * M)
    batch = min(kept, _level_batch(grid))
    writer = math.ceil(csvtext.BYTES_PER_VALUE
                       * max(csvtext.WRITE_BLOCK_VALUES, 2 * kept + 1) / 8)
    later = kept * (2 * J + 3 + 32) + max(kept * 2 * J + batch * 8 * (J + 1), writer)
    return 8 * (levels * (2 + 5 + 6 + 1 + 1 + 1) + 10 * J + max(blocks, later))


def _trace_block(D: np.ndarray, w: diagnostics.ModalTraceWeights,
                 modes: slice, m: float, x: np.ndarray, K: int, M: int,
                 keep: np.ndarray, sums: np.ndarray, stored: np.ndarray,
                 buffer: np.ndarray) -> None:
    """Add one block of modes' share to every row of sums and write its
    amplitudes of the levels keep into stored.

    D (2, 2, n) are the block's increment matrices, x (2, n) its level 0,
    and sums has 5 columns, or 1 for E's alone.  The trace table of G^k,
    k = 0..K (K cut where a power or a table entry is not finite), maps a
    chunk base's features to its chunk's sums.  The bases of a group of M
    chunks are the powers of G^K applied to the first, and one matrix
    product gives the group's rows.  buffer holds (c f (K + 1) + 5 (M + 1)) n
    values: the table of c columns on f features (5 on 5, or 1 on 3), then
    the features.
    """
    n, last, columns = x.shape[1], sums.shape[0] - 1, sums.shape[1]
    energy_only = columns == 1
    f = 3 if energy_only else 5
    # E's table reads no increments G^(k-1) D
    powers = np.zeros((2, 1 if energy_only else 2, K + 1, 2, n))
    powers[0, 0, 0, 0] = powers[1, 0, 0, 1] = 1.0
    chunk = _chunk_table(D, K, increments=not energy_only)
    K = chunk.shape[2]
    powers[:, :, 1:K + 1] = chunk
    del chunk
    table = diagnostics.modal_trace_table(
        w, m, powers[:, :, :K + 1], modes, energy_only=energy_only,
        out=buffer[:columns * f * (K + 1) * n].reshape(K + 1, columns, f, n))
    finite = np.isfinite(table).all(axis=(1, 2, 3))
    if not finite.all():
        K = max(1, int(np.argmin(finite)) - 1)
        table = table[:K + 1]
    table = table.reshape(columns * (K + 1), f * n)
    hops = _power_table(powers[:, :1, K], M)[:, 0]
    group = hops.shape[1]
    # one row more than a group, for the base of the next group; the
    # features (a^2, ab, b^2, a, b) end in the bases
    features = buffer[table.size:][:5 * (group + 1) * n].reshape(group + 1, 5, n)
    bases = features[:, 3:]
    bases[0] = x
    total = -(-last // K)
    for c0 in range(0, total, group):
        count = min(group, total - c0)
        if c0:
            bases[0] = bases[group]
        _times(hops[:, :count], bases[0], out=bases[1:count + 1])
        np.multiply(bases[:count], bases[:count, :1], out=features[:count, :2])
        np.multiply(bases[:count, 1], bases[:count, 1], out=features[:count, 2])
        flat = features[:count, :f].reshape(count, f * n)
        if c0 == 0:
            sums[0] += table[:columns] @ flat[0]
        start = c0 * K + 1
        levels = min(count * K, last + 1 - start)
        sums[start:start + levels] += (flat @ table[columns:].T).reshape(
            -1, columns)[:levels]
        # the stored levels, at most a group's count at a time
        lo, hi = np.searchsorted(keep, (start, start + levels))
        for i in range(lo, hi, group):
            offset = keep[i:min(i + group, hi)] - start
            _times(powers[:, 0][:, offset % K + 1], bases[offset // K],
                   out=stored[i:i + offset.size])


def run(params: MaterialParams, config: SimulationConfig, init: State,
        stride: int = 1, energy_only: bool = False) -> Trajectory:
    """Advance init over the full time mesh with the configured stepper.

    Levels are kept every `stride` steps (level 0 and the final level
    always included), a row each of the Trajectory's T and q; energy
    diagnostics are recorded at every step regardless of stride, all of
    them or, with energy_only, E and heat alone (the other trace columns
    are None).  Every stepper advances the modal amplitudes of the
    fluctuation e of T = m + e around the conserved mean m, and of the
    interior flux, a block of modes at a time (_trace_block).  Raises MeshTooLarge, before allocating, if
    run_memory_bytes exceeds MAX_RUN_BYTES; NonFiniteInput, before
    stepping, if the energy of init is not finite; and NonFiniteState,
    naming the first bad step, if a level or its trace row overflows.
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
    with np.errstate(over="ignore", invalid="ignore"):
        energy = diagnostics.discrete_energy(init, params, grid.dx)
    if not np.isfinite(energy):
        raise NonFiniteInput("the energy of the initial state overflows; "
                             "T_b and T_f set its size")
    ops = assemble(params, grid)
    D = ops.printed if kind == StepperKind.VECTORIAL_AS_PRINTED else ops.coupled
    weights = diagnostics.modal_trace_weights(params, grid)
    K, width, M = _block_shape(grid, energy_only)
    J, last = grid.J, grid.N + 1
    m = float(np.mean(init.T))
    x = _modes(init, m)
    keep = np.arange(stride, last + stride, stride)
    keep[-1] = last
    sums = np.zeros((last + 1, 1 if energy_only else 5))
    stored = np.empty((keep.size, 2, J))
    buffer = np.empty(((3 if energy_only else 25) * (K + 1) + 5 * (M + 1)) * width)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, J, width):
            modes = slice(lo, min(lo + width, J))
            _trace_block(D[..., modes], weights, modes, m, x[:, modes], K, M,
                         keep, sums, stored[..., modes], buffer)
        rows = diagnostics.trace_rows(weights, m, sums)
        # only the rows and the stored levels outlive the blocks
        del ops, D, weights, x, sums, buffer
        T, q = np.empty((keep.size + 1, J + 1)), np.empty((keep.size + 1, J + 2))
        T[0], q[0] = init.T, init.q
        batch = _level_batch(grid)
        for lo in range(0, keep.size, batch):
            T[lo + 1:lo + 1 + batch], q[lo + 1:lo + 1 + batch] = _levels(
                m, stored[lo:lo + batch])
    del stored
    ok = np.isfinite(rows).all(axis=1)
    ok[keep] &= np.isfinite(T[1:]).all(axis=1) & np.isfinite(q[1:]).all(axis=1)
    _require_finite(ok, 0)
    trace = diagnostics.build_trace(params, grid.t, rows)
    return Trajectory(T=T, q=q, stored_steps=[0] + keep.tolist(), grid=grid,
                      trace=trace)
