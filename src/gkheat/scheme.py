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
this is implicit Euler for rho*c*T_t = -q_x, q = -k*T_x, Fourier
conduction, with no special case.  (The interleaved assembly is retained,
solved densely, as the brute-force reference.)

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
assemble builds one stepper's per-mode 2x2 step matrices G and their
increments D = G - I (new minus old amplitudes).  Level s + k is G^k times
level s, and each of its trace terms is a quadratic or linear form in
level s.  So run transforms the initial state once and works through the
modes a block at a time: from a block's powers G^k, k = 0..K, and D it
builds one trace table (modal_trace_table, which forms the step increments
D G^(k-1) in it), and every row of the run gets the block's share from one
matrix product of the table with the features of the chunk bases, the
levels 0, K, 2K, ...  A run with energy_only (the decay-rate fits of sweep
and verify, and verify's runs that read only kept levels) traces E and
heat alone: its table is E's weights on the quadratic features, 3 values
per level and mode instead of 25, built without D, and its blocks are
longer and wider.  Only the kept levels' amplitudes are formed, in the
rows of T and q rebuilt from them in place after the last block.  run is
the only stepping path: a single step is a run with t_final = dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csvtext
from .diagnostics import EnergyTrace
from .discretization import Grid, State, _require_on_grid, build_grid
from .errors import GridMismatch, MeshTooLarge, NonFiniteInput, NonFiniteState
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


def assemble(params: MaterialParams, grid: Grid,
             kind: StepperKind = StepperKind.COUPLED_IMPLICIT
             ) -> tuple[np.ndarray, np.ndarray]:
    """The per-mode 2x2 step matrices G and increment matrices D = G - I of
    the stepper kind, each of shape (2, 2, J), for one (params, grid) pair:
    a step maps the cosine amplitude a_m and the sine amplitude b_m of mode
    m = 1..J to G (a, b) = (a, b) + D (a, b).  D is kept beside G so that
    the trace gets each step's change to full precision, and G's flux
    entry is its closed form, not 1 + D_bb, which cancels where a step
    damps a mode's flux by orders.  Built from the scalar factors
    (s := tau_q + dt)

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
    if kind == StepperKind.VECTORIAL_AS_PRINTED:
        beta = 1.0 / (1.0 + c_B * sm * sm)
        g_bb = c_r * beta
        D = np.array([[-c_T * sm * sm * beta, -c_q * sm * beta],
                      [c_Q * sm * beta, -(dt / s + c_B * sm * sm) * beta]])
    else:
        # coupled: b' = g_ba a + g_bb b, then a' = a - c_flux s b'; 1 - c_r = dt/s
        w = c_B + c_T * dt
        reduced = 1.0 + w * sm * sm
        g_ba, g_bb = c_Q * sm / reduced, c_r / reduced
        D = np.array([[-c_flux * sm * g_ba, -c_flux * sm * g_bb],
                      [g_ba, -(dt / s + w * sm * sm) / reduced]])
    G = D.copy()
    G[0, 0] += 1.0
    G[1, 1] = g_bb
    return G, D


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
    """(2, K' + 1, 2, n): [j, k] is column j of G^k per mode, k = 0..K',
    for cols (2, 2, n) the columns of G.  Built by doubling (G^p applied to
    entries 1..p gives entries p+1..2p), not from an eigendecomposition:
    a mode's eigenvectors are ill-conditioned where it passes from over-
    to under-damped.  K' is K cut at the first non-finite entry (at least
    1), which the unstable as-printed Fourier-limit stepper reaches within
    a few dozen levels.
    """
    table = np.zeros((2, K + 1) + cols.shape[1:])
    table[0, 0, 0] = table[1, 0, 1] = 1.0
    table[:, 1] = cols
    p = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while p < K:
            count = min(p, K - p)
            _times(table[:, p], table[:, 1:count + 1], out=table[:, p + 1:p + count + 1])
            p += count
    finite = np.isfinite(table).all(axis=(0, 2, 3))
    return table if finite.all() else table[:, :max(2, int(np.argmin(finite)))]


def step_coupled_reference(params: MaterialParams, grid: Grid, T: np.ndarray,
                           q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force coupled steps: dense solves of the interleaved system.

    T (S, J+1) and q (S, J+2) are S levels on grid, a run's stacked levels;
    the result (T', q') holds, row by row, the level one step after each.
    Unknowns are ordered (T_0, q_1, T_1, q_2, ..., T_J); rows are the
    untransformed step equations (bandwidth 2), assembled verbatim once as
    a dense (2J+1) x (2J+1) matrix and equilibrated by rows and then
    columns.  Each level is one linalg.dense_solve against it: a solve
    with S right-hand sides at once rounds differently from single ones.
    O(J^3); intended for small J cross-checks of run's coupled stepper
    (checks.oracle_equivalence).
    """
    J, dx, dt = grid.J, grid.dx, grid.dt
    if T.ndim != 2 or T.shape[1] != J + 1 or q.shape != (len(T), J + 2):
        raise GridMismatch(f"expected levels T (S, {J + 1}) and q (S, {J + 2}), "
                           f"got T{T.shape}, q{q.shape}")
    rc = params.rho_c
    n = 2 * J + 1
    a = np.zeros((n, n))
    T_rows, q_rows = np.arange(0, n, 2), np.arange(1, n, 2)  # T_j at 2j, q_j at 2j - 1
    a[T_rows, T_rows] = rc / dt
    a[q_rows - 1, q_rows] = 1.0 / dx  # T_{j-1}'s row holds +q_j/dx, T_j's -q_j/dx
    a[q_rows + 1, q_rows] = -1.0 / dx
    a[q_rows, q_rows] = params.tau_q / dt + 1.0 + 2.0 * params.mu2 / dx**2
    a[q_rows[1:], q_rows[:-1]] = a[q_rows[:-1], q_rows[1:]] = -params.mu2 / dx**2
    a[q_rows, q_rows + 1] = params.k / dx
    a[q_rows, q_rows - 1] = -params.k / dx
    # equilibrated: each row, then each column, scaled to max|entry| 1
    rows = 1.0 / np.max(np.abs(a), axis=1)
    a *= rows[:, None]
    columns = 1.0 / np.max(np.abs(a), axis=0)
    a *= columns
    b = np.empty((len(T), n))
    b[:, T_rows] = rc / dt * T
    b[:, q_rows] = params.tau_q / dt * q[:, 1:-1]
    b *= rows
    x = columns * np.array([dense_solve(a, level) for level in b]).reshape(b.shape)
    return x[:, T_rows], np.pad(x[:, q_rows], ((0, 0), (1, 1)))


@dataclass(frozen=True)
class Trajectory:
    """A completed run: the kept levels, a row each, and per-step diagnostics."""

    T: np.ndarray             # (S, J+1) temperatures of the kept levels
    q: np.ndarray             # (S, J+2) fluxes, q[:, 0] = q[:, -1] = 0
    stored_steps: list[int]   # time indices of the S kept levels
    grid: Grid
    trace: EnergyTrace


@dataclass(frozen=True)
class RunPlan:
    """The shapes of one run (see _plan)."""

    keep: np.ndarray  # steps of the kept levels after level 0; the last is N + 1
    K: int            # levels per chunk
    n: int            # modes per block
    M: int            # chunks per group
    batch: int        # kept levels rebuilt per transform, 8 (J + 1) values each


def _plan(grid: Grid, stride: int, energy_only: bool = False) -> RunPlan:
    """The shapes of a run on grid keeping every stride-th level.

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
    (5, 192, 30), and an energy-only block holds no more than a full one
    on the same mesh (the tests measure both).
    """
    last = grid.N + 1
    keep = np.append(np.arange(stride, last, stride), last)
    columns, per_level = (1, 9) if energy_only else (5, 25)
    n = min(grid.J, max(1, 32 * math.isqrt(TRACE_CHUNK_ELEMENTS // (32 * per_level))))
    K = min(last, max(1, TRACE_CHUNK_ELEMENTS // (per_level * n) - 1))
    M = min(columns * (K + 1), -(-last // K))
    return RunPlan(keep=keep, K=K, n=n, M=M,
                   batch=min(keep.size, max(1, TRACE_CHUNK_ELEMENTS // (8 * grid.J + 8))))


def run_memory_bytes(grid: Grid, stride: int) -> int:
    """Bytes run() and the run command's writers hold for grid and stride.

    Counts, per level, the time axis, the trace's modal sums
    (5, which build_trace completes in place into E, diss_lhs, diss_rhs,
    C_T and lyapunov), heat, temporaries, and the trace writer's Z and
    step numbers; 10 J values of transform temporaries; per kept level, its
    2J+3 values plus 32 for its Python objects (about 220 bytes measured);
    and the largest of three phases.  The blocks hold the operators (8J),
    the trace weights (15J), level 0's amplitudes (2J), and per block its
    table (25 (K + 1) n) and features (5 (M + 1) n), the power tables
    (4 (K + 1) n, 4 (M + 1) n), modal_trace_table's temporaries
    (40 (K + 1) n) and a group's sums, kept levels and bases (5 K M + 2 M n).
    Then a batch of levels is rebuilt, or the CSV writers hold a block and
    csvtext's tables.  An energy-only run holds no more.
    """
    plan, J = _plan(grid, stride), grid.J
    K, n, M, kept = plan.K, plan.n, plan.M, plan.keep.size + 1
    blocks = ((8 + 15 + 2) * J + (K + 1) * n * (25 + 4 + 40)
              + (5 + 4) * (M + 1) * n + 2 * M * n + 5 * K * M)
    writer = math.ceil((csvtext.TABLE_BYTES + csvtext.BYTES_PER_VALUE
                        * max(csvtext.WRITE_BLOCK_VALUES, 2 * kept + 1)) / 8)
    return 8 * ((grid.N + 2) * (1 + 5 + 1 + 1 + 1 + 1) + 10 * J
                + kept * (2 * J + 3 + 32) + max(blocks, plan.batch * 8 * (J + 1), writer))


@dataclass(frozen=True)
class ModalTraceWeights:
    """Fixed weights turning the modal amplitudes of a level into its trace.

    A level is y = (y_0, y_1) = (a_m, b_m) per mode, a_m the cosine
    amplitudes of the fluctuation e of T = m + e and b_m the sine amplitudes
    of q_1..q_J (m = 1..J); every array has the modes on its last axis.  By
    orthonormality sum e^2 = sum a^2 and sum q^2 = sum b^2; A_q q has the
    amplitudes s_m b_m; and the tail sum I_j = dx sum_{i>=j} T_i is
    dx m (J+1-j) plus, per cosine mode m, -(dx/s_m) times sine mode m (0 at
    j = 0).  That makes E, F and diss_rhs quadratic forms of y (with the
    cross term <q, I> of F on a_m b_m), and C_T/heat and F's part
    proportional to m linear forms.
    """

    quadratic: np.ndarray   # (3, 3, J): E, diss_rhs, F per y_0^2, y_1^2, y_0 y_1
    increment: np.ndarray   # (2, J): diss_lhs per (y'_i - y_i)(y'_i + y_i)
    linear: np.ndarray      # (2, 2, J): F/m, C_T/heat per y_i
    E_mean: float           # E per m^2
    F_mean: float           # F per m^2
    heat_mean: float        # heat per m
    boundary_mean: float    # C_T/heat per m
    lyapunov_weight: float  # L = weight*E + F


def modal_trace_weights(params: MaterialParams, grid: Grid) -> ModalTraceWeights:
    """The weights of modal_trace_table for one (params, grid) pair."""
    J, dx, n = grid.J, grid.dx, grid.J + 1
    k, mu2, tau_q, rc = params.k, params.mu2, params.tau_q, params.rho_c
    w_T, w_q = rc * dx / 2.0, (tau_q / k) * (dx / 2.0)
    s = difference_symbols(J)
    half = 0.5 * np.pi * np.arange(1, n) / n          # s = 2 sin(half)
    root = np.sqrt(2.0 / n)
    # the cosine vectors at j = 0, the sine vectors at j = 1, and the sine
    # amplitudes of the ramp n - j (j = 1..J): sum_j (n-j) sin(2 j half)
    # = (n/2) cot(half)
    at_T0, at_q1 = root * np.cos(half), root * np.sin(2.0 * half)
    ramp = root * (n / 2.0) / np.tan(half)
    zero = np.zeros(J)
    quadratic = np.array([
        [np.full(J, w_T), np.full(J, w_q), zero],
        [zero, -(dx / k) - (mu2 / (k * dx)) * s * s, zero],
        [(rc / 2.0) * dx * (dx * dx / (s * s) + mu2), zero, -tau_q * dx * dx / s]])
    linear = np.array([[-rc * dx**3 * ramp / s, tau_q * dx * dx * ramp],
                       [-k * at_T0, (mu2 / dx) * at_q1]])
    ramp_sq = n * (n + 1) * (2 * n + 1) / 6.0       # sum_{j=0..J} (n-j)^2
    return ModalTraceWeights(
        quadratic=quadratic, increment=quadratic[0, :2] / grid.dt,
        linear=linear, E_mean=w_T * n,
        F_mean=(rc / 2.0) * dx * (dx * dx * ramp_sq + mu2 * n),
        heat_mean=dx * n, boundary_mean=-k,
        lyapunov_weight=2.0 * params.l**2 + 2.0 * mu2 + tau_q * k / rc)


def modal_trace_table(w: ModalTraceWeights, m: float, powers: np.ndarray,
                      modes: slice, D: np.ndarray | None = None) -> np.ndarray:
    """New trace table of a block of modes, (L, 5, 5, n) for L levels, or,
    without D, E's table alone, (L, 1, 3, n).

    powers (2, L, 2, n) holds, for the n modes in `modes`, column j of the
    matrix G_l = G^l mapping a base level x = (a, b) to level l at [j, l];
    D (2, 2, n) are the step's increments, G = I + D, and P_l = D G^(l-1)
    (0 for x itself) maps x to the increment into level l, formed as a
    product (G^l - G^(l-1) loses about eps/|D| relative on slow modes).
    With the features phi(x) = (a^2, ab, b^2, a, b), table[l, c, f, i]
    weighs feature f of mode i in column c of level l: E, diss_rhs and F
    less their mean parts (F's term linear in y carries m), C_T/heat less
    its mean part, and diss_lhs from the increment P_l x as the step
    computes it and y + y_prev = (2 G_l - P_l) x.  Summed over the modes,
    phi(x) @ table gives the sums build_trace takes.  E's table alone is
    the first column's first three features; it reads no increments.
    """
    G = powers.transpose(1, 2, 0, 3)    # (L, row i, column j, n)
    energy_only = D is None
    columns, features = (1, 3) if energy_only else (5, 5)
    table = np.empty((G.shape[0], columns, features, G.shape[3]))
    # y_0^2, y_1^2 and y_0 y_1 on the features a^2, ab, b^2
    monomials = np.empty((G.shape[0], 3, 3, G.shape[3]))
    for u, (i, k) in enumerate(((0, 0), (1, 1), (0, 1))):
        np.multiply(G[:, i, 0], G[:, k, 0], out=monomials[:, u, 0])
        np.multiply(G[:, i, 0], G[:, k, 1], out=monomials[:, u, 1])
        monomials[:, u, 1] += G[:, i, 1] * G[:, k, 0]
        np.multiply(G[:, i, 1], G[:, k, 1], out=monomials[:, u, 2])
    q = w.quadratic[:1 if energy_only else 3, :, modes]
    np.multiply(monomials[:, None, 0], q[None, :, 0, None], out=table[:, :3, :3])
    for u in (1, 2):
        table[:, :3, :3] += monomials[:, None, u] * q[None, :, u, None]
    if energy_only:
        return table
    # P_l = D G^(l-1) for l >= 1, laid out as G: column j is D (G^(l-1))_:j
    P = (D[:, 0] * powers[:, :-1, :1] + D[:, 1] * powers[:, :-1, 1:]).transpose(1, 2, 0, 3)
    # diss_lhs = sum_i w_i (P x)_i ((2 G - P) x)_i, 0 at level 0
    weighted = P * w.increment[None, :, None, modes]
    both = (weighted[:, :, :, None] * (2.0 * G[1:] - P)[:, :, None, :]).sum(axis=1)
    table[1:, 4, 0] = both[:, 0, 0]
    np.add(both[:, 0, 1], both[:, 1, 0], out=table[1:, 4, 1])
    table[1:, 4, 2] = both[:, 1, 1]
    # F/m and C_T/heat: sum_i l_i y_i puts sum_i l_i G_ij on x_j
    lin = w.linear[..., modes] * np.array([m, 1.0])[:, None, None]
    np.sum(G[:, None] * lin[None, :, :, None], axis=2, out=table[:, 2:4, 3:])
    table[:, :2, 3:] = 0.0
    table[:, 4, 3:] = table[0, 4] = 0.0
    table[:, 3, :3] = 0.0
    return table


def build_trace(w: ModalTraceWeights, m: float, t: np.ndarray,
                sums: np.ndarray) -> EnergyTrace:
    """EnergyTrace at times t of the levels of a trajectory split as
    T = m + e, from their sums over the modes in the column order of
    modal_trace_table.  Row 0 has no predecessor and zeros for the
    dissipation sides.  diss_lhs comes from the step increments, so it is
    neither drowned by cancellation near equilibrium nor limited by the
    rounding of the levels themselves; the mean, never stepped, drops out
    of it and keeps the heat exactly constant.  From E's sums alone (one
    column) the trace has t, E and heat, and None in the other four.  The
    sums are completed in place: every column but t and heat is a view of them.
    """
    E = sums[:, 0]
    E += w.E_mean * m * m
    heat = np.full_like(E, w.heat_mean * m)
    if sums.shape[1] == 1:
        return EnergyTrace(t=t, E=E, diss_lhs=None, diss_rhs=None,
                           heat=heat, C_T=None, lyapunov=None)
    sums[:, 2] += w.F_mean * m * m
    sums[:, 2] += w.lyapunov_weight * E
    sums[:, 3] += w.boundary_mean * m
    sums[:, 3] *= heat
    sums[0, [1, 4]] = 0.0
    return EnergyTrace(t=t, E=E, diss_lhs=sums[:, 4], diss_rhs=sums[:, 1],
                       heat=heat, C_T=sums[:, 3], lyapunov=sums[:, 2])


def _trace_block(G: np.ndarray, D: np.ndarray, w: ModalTraceWeights,
                 modes: slice, m: float, x: np.ndarray, plan: RunPlan,
                 sums: np.ndarray, kept: np.ndarray) -> None:
    """Add one block of modes' share to every row of sums and write its
    amplitudes of the levels plan.keep into kept.

    G and D (2, 2, n) are the block's step and increment matrices, x (2, n)
    its level 0, and sums has 5 columns on 5 features, or 1 on 3 for E's
    alone.  The trace table of G^k, k = 0..K (K cut where a power or a
    table entry is not finite), maps a chunk base's features to its
    chunk's sums.  The bases of a group of M chunks are the powers of G^K
    applied to the first, and one matrix product gives the group's rows.
    """
    n, last, columns = x.shape[1], sums.shape[0] - 1, sums.shape[1]
    energy_only = columns == 1
    f = 3 if energy_only else 5
    K, M, keep = plan.K, plan.M, plan.keep
    powers = _power_table(G.swapaxes(0, 1), K)
    K = powers.shape[1] - 1
    # one row more than a group, for the base of the next group; the
    # features (a^2, ab, b^2, a, b) end in the bases.  Allocated before
    # the table, which keeps an energy-only block's peak under a full one's
    features = np.empty((M + 1, 5, n))
    # E's table reads no increments D G^(k-1)
    table = modal_trace_table(w, m, powers, modes, None if energy_only else D)
    finite = np.isfinite(table).all(axis=(1, 2, 3))
    if not finite.all():
        K = max(1, int(np.argmin(finite)) - 1)
        table = table[:K + 1]
    table = table.reshape(columns * (K + 1), f * n)
    hops = _power_table(powers[:, K], M)[:, 1:]
    group = hops.shape[1]
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
            _times(powers[:, offset % K + 1], bases[offset // K],
                   out=kept[i:i + offset.size])


def run(params: MaterialParams, config: SimulationConfig, init: State,
        stride: int = 1, energy_only: bool = False,
        kind: StepperKind = StepperKind.COUPLED_IMPLICIT) -> Trajectory:
    """Advance init over config's time mesh with the stepper kind.

    Levels are kept every `stride` steps (level 0 and the final level
    always included), a row each of the Trajectory's T and q; energy
    diagnostics are recorded at every step regardless of stride, all of
    them or, with energy_only, E and heat alone (the other trace columns
    are None).  Every stepper advances the modal amplitudes of the
    fluctuation e of T = m + e around the conserved mean m, and of the
    interior flux, a block of modes at a time (_trace_block).  Raises
    ValueError if stride is not an integer >= 1; MeshTooLarge, before
    allocating, if run_memory_bytes exceeds MAX_RUN_BYTES; NonFiniteInput,
    before stepping, if the step matrices, the trace weights the run reads
    or init's energy are not finite; NonFiniteState, naming the first
    bad step, if a level or its trace row overflows.
    """
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    grid = build_grid(params, config)
    _require_on_grid(init, grid, "init")
    need = run_memory_bytes(grid, stride)
    if need > MAX_RUN_BYTES:
        raise MeshTooLarge(f"a run on J={grid.J}, N={grid.N} with stride {stride} "
                           f"would hold {need:.3g} bytes, more than "
                           f"MAX_RUN_BYTES = {MAX_RUN_BYTES}")
    with np.errstate(over="ignore", invalid="ignore"):
        weights = modal_trace_weights(params, grid)
        G, D = assemble(params, grid, kind)
        m = float(np.mean(init.T))
        x = _modes(init, m)
        # E of level 0, as the trace forms it
        energy = weights.E_mean * m * m + np.sum(weights.quadratic[0, :2] * x * x)
    if not np.isfinite(D).all():
        raise NonFiniteInput("the step matrices overflow; mu2, k, rho, c, dt and dx "
                             "set their size")
    # an energy-only run reads E's weights alone
    read = ((weights.quadratic[0], weights.E_mean, weights.heat_mean) if energy_only
            else vars(weights).values())
    if not all(np.isfinite(w).all() for w in read):
        raise NonFiniteInput("the trace weights overflow; mu2, tau_q, k, rho, c, l, dt and dx "
                             "set their size")
    if not np.isfinite(energy):
        raise NonFiniteInput("the energy of the initial state overflows; "
                             "T_b and T_f set its size")
    plan = _plan(grid, stride, energy_only)
    J, S = grid.J, plan.keep.size + 1
    sums = np.zeros((grid.N + 2, 1 if energy_only else 5))
    levels = np.zeros((S, 2 * J + 3))
    levels[0] = np.concatenate((init.T, init.q))
    kept = _amplitudes(levels[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, J, plan.n):
            modes = slice(lo, min(lo + plan.n, J))
            _trace_block(G[..., modes], D[..., modes], weights, modes, m, x[:, modes],
                         plan, sums, kept[..., modes])
        trace = build_trace(weights, m, grid.t, sums)
        # sums now holds every trace column but heat
        ok = np.isfinite(sums).all(axis=1) & np.isfinite(trace.heat)
        # only the trace and the kept levels outlive the blocks
        del G, D, weights, x
        for lo in range(1, S, plan.batch):
            batch = levels[lo:lo + plan.batch]
            _levels(m, batch)
            ok[plan.keep[lo - 1:lo - 1 + len(batch)]] &= np.isfinite(batch).all(axis=1)
    if not ok.all():
        raise NonFiniteState(f"step {int(np.argmin(ok))} produced a non-finite "
                             "temperature, flux or energy")
    return Trajectory(T=levels[:, :J + 1], q=levels[:, J + 1:],
                      stored_steps=[0] + plan.keep.tolist(), grid=grid, trace=trace)
