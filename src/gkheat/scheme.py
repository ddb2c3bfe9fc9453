"""Operator assembly and the implicit time steppers.

The implicit step couples the temperature update and the flux law

    T_j^n = T_j^{n-1} - (dt/(rho c dx)) (q_{j+1}^n - q_j^n),        j = 0..J,
    (I - c_B L) q^n = c_r q^{n-1} - c_Q A_T T^n,                    j = 1..J,

with L the second-difference stencil, A_T the first-difference map on
temperatures, and boundary fluxes pinned to zero.  Substituting the first
relation into the second eliminates T^n exactly (A_T A_q = L), leaving one
tridiagonal system

    [I - (c_B + c_T dt) L] q^n = c_r q^{n-1} - c_Q A_T T^{n-1}

per step; the temperature update is then explicit.  With tau_q = mu2 = 0
this is implicit Euler for rho*c*T_t = -q_x, q = -k*T_x, the fourier_limit
stepper.  (The interleaved assembly is retained, solved densely, as the
brute-force reference.)

The vectorial_as_printed stepper instead applies the closed-form update

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
alone, and its blocks are longer and wider.  Only the kept levels'
amplitudes are formed, in the rows of T and q rebuilt from them in
place after the last block.  run is the only stepping path: a single step
is a run with t_final = dt.
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


#: float64 values in one block's trace table (256 KiB), from which _plan
#: shapes the blocks of modes that run traces at a time (each block's share
#: of every trace row a matrix product with the table) and its rebuilds
TRACE_CHUNK_ELEMENTS = 2**15
#: largest number of bytes run() and the run command's writers may hold
#: (about 60x the 18 MB of a J=7999, 2500-step run keeping every 25th
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


def _amplitudes(levels: np.ndarray) -> np.ndarray:
    """View (P, 2, J) of the amplitudes in levels' rows: cosine i at T[i], sine i at q[i]."""
    P, width = levels.shape
    return levels[:, 1:].reshape(P, 2, width // 2)[..., :-1]


def _levels(m: float, levels: np.ndarray) -> None:
    """Rebuild rows of levels in place from their amplitudes; T[0], q[0], q[-1] must be 0."""
    J = levels.shape[1] // 2 - 1
    levels[:, :J + 1] = m + idct(levels[:, :J + 1])
    levels[:, J + 2:-1] = dst(levels[:, J + 2:-1])


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


def assemble_coupled_system(params: MaterialParams, grid: Grid,
                            prev: State) -> tuple[np.ndarray, np.ndarray]:
    """Verbatim interleaved assembly of the implicit step equations.

    Unknowns are ordered (T_0, q_1, T_1, q_2, ..., T_J); rows are the
    untransformed step equations (bandwidth 2), returned as a dense
    (2J+1) x (2J+1) matrix and right-hand side: the brute-force route
    that run's coupled stepper is checked against.
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

    O(J^3); intended for small J cross-checks of run's coupled stepper
    (checks.oracle_equivalence).
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


@dataclass(frozen=True)
class RunPlan:
    """The layout of one run (see _plan)."""

    keep: np.ndarray  # steps of the kept levels after level 0; the last is N + 1
    K: int            # levels per chunk
    n: int            # modes per block
    M: int            # chunks per group
    buffer: int       # float64 values of a block's table and features
    batch: int        # kept levels rebuilt per transform, 8 (J + 1) values each


def _plan(grid: Grid, stride: int, energy_only: bool = False) -> RunPlan:
    """The layout of a run on grid keeping every stride-th level.

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
    last = grid.N + 1
    keep = np.append(np.arange(stride, last, stride), last)
    columns, per_level, table = (1, 9, 3) if energy_only else (5, 25, 25)
    n = min(grid.J, max(1, 32 * math.isqrt(TRACE_CHUNK_ELEMENTS // (32 * per_level))))
    K = min(last, max(1, TRACE_CHUNK_ELEMENTS // (per_level * n) - 1))
    M = min(columns * (K + 1), -(-last // K))
    return RunPlan(keep=keep, K=K, n=n, M=M, buffer=(table * (K + 1) + 5 * (M + 1)) * n,
                   batch=min(keep.size, max(1, TRACE_CHUNK_ELEMENTS // (8 * grid.J + 8))))


def run_memory_bytes(grid: Grid, stride: int) -> int:
    """Bytes run() and the run command's writers hold for grid and stride.

    Counts, per level, the time axis and its copy, the trace's modal sums
    (5), the six trace columns (E, diss_lhs, diss_rhs, heat, C_T,
    lyapunov), temporaries, Z and the trace writer's step numbers; 10 J
    values of transform temporaries; per kept level, its 2J+3 values plus
    32 for its Python objects (about 220 bytes measured); and the larger of
    two phases.  The blocks hold the operators (8J), the trace weights
    (15J), level 0's amplitudes (2J), and per block the plan's buffer, the
    power tables (16 (K + 1) n, 4 M n), modal_trace_table's temporaries
    (40 (K + 1) n) and a group's sums, kept levels and bases (5 K M + 2 M n).
    Then a batch of levels is rebuilt, or the CSV writers hold a block and
    csvtext's tables.  An energy-only run holds no more.
    """
    plan, J = _plan(grid, stride), grid.J
    K, n, M, kept = plan.K, plan.n, plan.M, plan.keep.size + 1
    blocks = ((8 + 15 + 2) * J + plan.buffer + (K + 1) * n * (16 + 40)
              + M * n * (4 + 2) + 5 * K * M)
    writer = math.ceil((csvtext.TABLE_BYTES + csvtext.BYTES_PER_VALUE
                        * max(csvtext.WRITE_BLOCK_VALUES, 2 * kept + 1)) / 8)
    return 8 * ((grid.N + 2) * (2 + 5 + 6 + 1 + 1 + 1) + 10 * J
                + kept * (2 * J + 3 + 32) + max(blocks, plan.batch * 8 * (J + 1), writer))


def _trace_block(D: np.ndarray, w: diagnostics.ModalTraceWeights,
                 modes: slice, m: float, x: np.ndarray, plan: RunPlan,
                 sums: np.ndarray, kept: np.ndarray) -> None:
    """Add one block of modes' share to every row of sums and write its
    amplitudes of the levels plan.keep into kept.

    D (2, 2, n) are the block's increment matrices, x (2, n) its level 0,
    and sums has 5 columns on 5 features, or 1 on 3 for E's alone.  The
    trace table of G^k, k = 0..K (K cut where a power or a table entry is
    not finite), maps a chunk base's features to its chunk's sums.  The
    bases of a group of M chunks are the powers of G^K applied to the
    first, and one matrix product gives the group's rows.
    """
    n, last, columns = x.shape[1], sums.shape[0] - 1, sums.shape[1]
    energy_only = columns == 1
    f = 3 if energy_only else 5
    K, M, keep, buffer = plan.K, plan.M, plan.keep, np.empty(plan.buffer)
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
        # the kept levels, at most a group's count at a time
        lo, hi = np.searchsorted(keep, (start, start + levels))
        for i in range(lo, hi, group):
            offset = keep[i:min(i + group, hi)] - start
            _times(powers[:, 0][:, offset % K + 1], bases[offset // K],
                   out=kept[i:i + offset.size])


def run(params: MaterialParams, config: SimulationConfig, init: State,
        stride: int = 1, energy_only: bool = False) -> Trajectory:
    """Advance init over the full time mesh with the configured stepper.

    Levels are kept every `stride` steps (level 0 and the final level
    always included), a row each of the Trajectory's T and q; energy
    diagnostics are recorded at every step regardless of stride, all of
    them or, with energy_only, E and heat alone (the other trace columns
    are None).  Every stepper advances the modal amplitudes of the
    fluctuation e of T = m + e around the conserved mean m, and of the
    interior flux, a block of modes at a time (_trace_block).  Raises
    MeshTooLarge, before allocating, if run_memory_bytes exceeds
    MAX_RUN_BYTES; NonFiniteInput, before stepping, if init's energy is
    not finite; NonFiniteState, naming the first bad step, if a level or
    its trace row overflows (Z, which is inf from where exp(omega t)
    overflows, aside).
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
    plan = _plan(grid, stride, energy_only)
    J, S = grid.J, plan.keep.size + 1
    m = float(np.mean(init.T))
    x = _modes(init, m)
    sums = np.zeros((grid.N + 2, 1 if energy_only else 5))
    levels = np.zeros((S, 2 * J + 3))
    levels[0] = np.concatenate((init.T, init.q))
    kept = _amplitudes(levels[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, J, plan.n):
            modes = slice(lo, min(lo + plan.n, J))
            _trace_block(D[..., modes], weights, modes, m, x[:, modes], plan,
                         sums, kept[..., modes])
        trace = diagnostics.build_trace(weights, params, m, grid.t, sums)
        # only the trace and the kept levels outlive the blocks
        del ops, D, weights, x, sums
        for lo in range(1, S, plan.batch):
            _levels(m, levels[lo:lo + plan.batch])
    ok = np.logical_and.reduce([np.isfinite(c) for c in (
        trace.E, trace.diss_lhs, trace.diss_rhs, trace.heat, trace.C_T,
        trace.lyapunov) if c is not None])
    ok[plan.keep] &= np.isfinite(levels[1:]).all(axis=1)
    if not ok.all():
        raise NonFiniteState(f"step {int(np.argmin(ok))} produced a non-finite "
                             "temperature, flux or energy")
    return Trajectory(T=levels[:, :J + 1], q=levels[:, J + 1:],
                      stored_steps=[0] + plan.keep.tolist(), grid=grid, trace=trace)
