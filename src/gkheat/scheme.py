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
conduction, with no special case.  (checks.step_backward_error holds the
levels run keeps to the untransformed equations above.)

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
modes a block at a time (_trace_block): a block's powers G^k, k = 0..K,
and D give a trace table on the quadratic and one on the linear features
of a level (modal_trace_table, 16 values per level and mode and no
structural zero), and a matrix product of each with those features of the
chunk bases, the levels 0, K, 2K, ..., gives the block's share of every
row.  A levels-only run (verify's runs that read only kept levels) forms
no table or product, only the kept levels.  _plan shapes the chunks and blocks,
every array a block forms is a view of one _Workspace per run, and the
2x2 algebra runs on contiguous rows, one per entry of a matrix or a
vector (_dot).  Only the kept levels' amplitudes are formed, and T and q
are rebuilt from them in place after the last block; the levels either
side of a chunk's or a group's first step (seam_steps) are formed by
different products.  run is the only stepping path: a single step is a
run with t_final = dt.  forecast reads what sweep reports of a run, its
last E included, from G alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import csvtext
from .diagnostics import EnergyTrace, energy_norm_sq, step_decay_rate
from .discretization import Grid, State, _require_on_grid, build_grid
from .errors import MeshTooLarge, NonFiniteInput, NonFiniteState
from .linalg import dct, difference_symbols, dst, idct
from .model import MaterialParams, SimulationConfig, StepperKind


#: half the float64 values one block's trace table is built from (256 KiB),
#: from which _plan shapes the blocks of modes that run traces at a time
#: (each block's share of every trace row a matrix product with the table)
#: and its rebuilds
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
    damps a mode's flux by orders.  So is the coupled temperature entry,
    (1 + c_B s_m^2)/(1 + (c_B + c_T dt) s_m^2), where D_aa <= -0.5, a step
    that damps the mode's temperature to half or less.  Built from the
    scalar factors
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
        g_aa = 1.0 + D[0, 0]
    else:
        # coupled: b' = g_ba a + g_bb b, then a' = a - c_flux s b'; 1 - c_r = dt/s
        w = c_B + c_T * dt
        reduced = 1.0 + w * sm * sm
        g_ba, g_bb = c_Q * sm / reduced, c_r / reduced
        D = np.array([[-c_flux * sm * g_ba, -c_flux * sm * g_bb],
                      [g_ba, -(dt / s + w * sm * sm) / reduced]])
        # where a step keeps half a mode's temperature or less, 1 + D_aa
        # would keep little more than D_aa's rounding; elsewhere it rounds
        # better than the closed form
        g_aa = 1.0 + D[0, 0]
        damped = D[0, 0] <= -0.5
        g_aa[damped] = (1.0 + c_B * sm[damped] * sm[damped]) / reduced[damped]
    G = D.copy()
    G[0, 0] = g_aa
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


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first values of a flat buffer in shape."""
    return buffer[:math.prod(shape)].reshape(shape)


def _carve(buffer: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive views of a flat buffer in the given shapes, then the rest of it."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[start:start + size].reshape(shape))
        start += size
    return views + [buffer[start:]]


def _finite(a: np.ndarray, axis: tuple[int, ...]) -> np.ndarray:
    """np.isfinite(a).all(axis) without an array of a's size: a NaN or an
    infinity reaches the largest or the smallest value."""
    return np.isfinite(a.max(axis=axis)) & np.isfinite(a.min(axis=axis))


def _dot(out: np.ndarray, a0: np.ndarray, x0: np.ndarray, a1: np.ndarray,
         x1: np.ndarray, product: np.ndarray) -> None:
    """out = a0 x0 + a1 x1 elementwise, the 2x2 algebra's one form, with
    product, of out's shape, taking a1 x1.  x0 and x1 have out's shape;
    a0 and a1 have it too, or are both rows that broadcast over it, copied
    over out and product first, so that every pass runs over contiguous
    rows (a broadcast operand takes numpy's iterator buffers)."""
    if a0.shape == out.shape:
        np.multiply(a0, x0, out=out)
        np.multiply(a1, x1, out=product)
    else:
        np.copyto(out, a0)
        out *= x0
        np.copyto(product, a1)
        product *= x1
    out += product


def _power_table(G: np.ndarray, K: int, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """(2, 2, K' + 1, n): [i, j, k] is entry (i, j) of G^k per mode,
    k = 0..K', for G (2, 2, n) the step matrices.  Built by doubling (G^p
    applied to entries 1..p gives entries p+1..2p), not from an
    eigendecomposition: a mode's eigenvectors are ill-conditioned where it
    passes from over- to under-damped.  K' is K cut at the first non-finite
    entry (at least 1), which the unstable as-printed Fourier-limit stepper
    reaches within a few dozen levels.  The doubling runs in the flat
    spare, of 5 (K + 1) n values or more, on entries held at [i, k, j],
    where both columns of a row's new entries are one contiguous block, a
    _dot each; the table is then copied into out, of shape (2, 2, K + 1, n).
    """
    n = G.shape[2]
    rows, rest = _carve(spare, (2, K + 1, 2, n))
    rows[:, 0] = 0.0
    rows[0, 0, 0] = rows[1, 0, 1] = 1.0
    rows[:, 1] = G
    p = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while p < K:
            count = min(p, K - p)
            product = _view(rest, (count, 2, n))
            # (G^p G^k)_ij = G^p_i0 G^k_0j + G^p_i1 G^k_1j, j = 0, 1 at once
            for i in (0, 1):
                _dot(rows[i, p + 1:p + count + 1], rows[i, p, 0], rows[0, 1:count + 1],
                     rows[i, p, 1], rows[1, 1:count + 1], product)
            p += count
    np.copyto(out, rows.transpose(0, 2, 1, 3))
    finite = _finite(out, axis=(0, 1, 3))
    return out if finite.all() else out[:, :, :max(2, int(np.argmin(finite)))]


@dataclass(frozen=True)
class Trajectory:
    """A completed run: the kept levels, a row each, and per-step diagnostics."""

    T: np.ndarray             # (S, J+1) temperatures of the kept levels
    q: np.ndarray             # (S, J+2) fluxes, q[:, 0] = q[:, -1] = 0
    stored_steps: list[int]   # time indices of the S kept levels
    grid: Grid
    trace: EnergyTrace | None  # None for a levels-only run


@dataclass(frozen=True)
class RunPlan:
    """The shapes of one run (see _plan)."""

    keep: np.ndarray  # steps of the kept levels after level 0, increasing
    K: int            # levels per chunk
    n: int            # modes per block
    M: int            # chunks per group
    batch: int        # kept levels rebuilt per transform, 8 (J + 1) values each


def _plan(grid: Grid, keep: np.ndarray, levels_only: bool = False) -> RunPlan:
    """The shapes of a run on grid keeping the levels of the steps keep.

    A full trace's block is shaped for 25 values per level and mode (its
    two tables take 16, and the tile was measured when they took 25), a
    levels-only run's for the 10 it forms, the power table's 4 and the
    kept levels' gathered powers and bases' 6, so its blocks are 2.5 times
    wider.  Per mode, a chunk's table and powers take work in K and the
    chunk bases, each several elementwise passes, in (N + 1)/K; K near
    sqrt((N + 1)/25) balances them (within 3% of the fastest full-trace
    tile, and the one of them with the smallest workspace, in a scan of
    verify at J = 7999 over 2,500 steps).  K is at least 10, so that a
    short run, such as verify's 10-step probe, is one chunk, at most N + 1,
    and at most what leaves a block 32 modes within the budget, so that the
    tile shrinks with the budget.  n then fills twice the budget,
    v (K + 1) n <= 2 TRACE_CHUNK_ELEMENTS, unless the mesh has fewer modes.
    A group's features, 5 M n values, are as many as a table of 25 values
    per level and mode, M = 5 (K + 1), unless the run has fewer chunks.  At
    J = 499 and 7999 over 2,500 steps that is (10, 238, 55) for a full
    trace and (10, 499, 55) and (10, 595, 55) for levels alone; at J = 63
    over 20,000 it is (28, 63, 145) for both.  A full trace's shapes fix the order of its
    sums, and so the last digits of trace.csv.
    """
    last = grid.N + 1
    width = 2 * TRACE_CHUNK_ELEMENTS // (10 if levels_only else 25)
    K = min(last, max(10, math.isqrt(last // 25)), max(1, width // 32 - 1))
    n = min(grid.J, max(1, width // (K + 1)))
    M = min(5 * (K + 1), -(-last // K))
    return RunPlan(keep=keep, K=K, n=n, M=M,
                   batch=min(keep.size, max(1, TRACE_CHUNK_ELEMENTS // (8 * grid.J + 8))))


class _Workspace:
    """Every array run's blocks form, flat, allocated once per run for its
    plan's widest block and kind of run: the power table of G^k, the two
    trace tables, the group's matrix products, and a spare that holds
    first the tables' intermediates and then the group's: the power table
    of the hops G^(K j), the chunk bases, their features (a^2, ab, b^2 and
    a, b; none for levels alone), the products that form them and the kept
    levels' gathers, each viewed by _trace_block in its block's shape."""

    powers: np.ndarray
    table: np.ndarray
    product: np.ndarray
    spare: np.ndarray

    def __init__(self, plan: RunPlan, levels_only: bool) -> None:
        for name, size in _workspace_sizes(plan, levels_only).items():
            setattr(self, name, np.empty(size))


def _workspace_sizes(plan: RunPlan, levels_only: bool) -> dict[str, int]:
    """The float64 values of each of _Workspace's arrays."""
    K, n, M, keep = plan.K, plan.n, plan.M, plan.keep
    traced = 0 if levels_only else 1
    # a group takes its hops' powers and its bases (4 and 2 values per mode
    # and chunk, one chunk more than a group), its features (5, none for
    # levels alone) and the larger of a row of products per chunk and a
    # gather of at most K kept levels, no more than a group's K M levels
    # hold, of 6 values per level and mode (their powers and bases).  The
    # tables take 16 values per level and mode, their intermediates 15 and
    # _power_table's doublings 5 (the hops' past the hops' own powers), and
    # the products 4 per level and chunk (the linear one's 2 reuse them)
    gather = min(K, int(np.max(np.searchsorted(keep, keep + K * M) - np.arange(keep.size))))
    group = (6 * (M + 1) + 5 * traced * M + max(M, 6 * gather)) * n
    return {"powers": 4 * (K + 1) * n, "table": 16 * traced * (K + 1) * n,
            "product": 4 * traced * K * M,
            "spare": max((5 + 10 * traced) * (K + 1) * n, 9 * (M + 1) * n, group)}


def strided_steps(grid: Grid, stride: int) -> np.ndarray:
    """run's keep for every stride-th level and the last: stride,
    2 stride, ..., N + 1.  Raises ValueError if stride is not an integer >= 1."""
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    last = grid.N + 1
    return np.append(np.arange(stride, last, stride), last)


def seam_steps(grid: Grid) -> np.ndarray:
    """The steps on grid either side of a full-trace run's first chunk
    seam (K, K + 1), its first group seam (K M, K M + 1) and its last step
    (N, N + 1), in increasing order.  Level K comes from the power table and
    level K + 1 from the first hop of G^K, so that a pair of them reads both."""
    last = grid.N + 1
    plan = _plan(grid, np.array([last]))
    K, M = plan.K, plan.M
    return np.array(sorted(s for s in {K, K + 1, K * M, K * M + 1, last - 1, last}
                           if 1 <= s <= last))


def run_memory_bytes(grid: Grid, keep: np.ndarray, levels_only: bool = False) -> int:
    """Bytes run() and the run command's writers hold for grid, the steps
    keep of the kept levels and the kind of run.

    Counts, per level, the time axis, the trace's modal sums
    (6, which build_trace completes in place into E, diss_rhs, diss_lhs,
    lyapunov and C_T), heat, temporaries, and the trace writer's Z and
    step numbers, or for a levels-only run the time axis and its rows'
    finiteness alone; 10 J values of transform temporaries; per kept level,
    its 2J+3 values plus 32 for its Python objects (about 220 bytes
    measured); and the largest of three phases.  The blocks hold the
    operators (8J), the trace weights (15J), level 0's amplitudes (2J), the
    workspace of the run's plan and kind, from the shapes it is built from,
    and what a block allocates beside it, 1,024 values of small arrays (its
    ufunc calls take no iterator buffer).  Then a batch of levels is
    rebuilt, or the CSV writers, which write no levels-only run, hold a
    block, its buffers and the gather's, and csvtext's tables.
    """
    plan, J = _plan(grid, keep, levels_only), grid.J
    kept = plan.keep.size + 1
    blocks = (8 + 15 + 2) * J + sum(_workspace_sizes(plan, levels_only).values()) + 1024
    writer = 0 if levels_only else math.ceil(
        (csvtext.TABLE_BYTES + csvtext.GATHER_BYTES + csvtext.BYTES_PER_VALUE
         * max(csvtext.WRITE_BLOCK_VALUES, 2 * kept + 1)) / 8)
    return 8 * ((grid.N + 2) * (2 if levels_only else 11) + 10 * J
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
                      modes: slice, D: np.ndarray, out: np.ndarray,
                      spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New trace tables of a block of modes for L levels: the quadratic
    one, (L, 4, 3, n), and the linear one, (L, 2, 2, n).

    powers (2, 2, L, n) holds, for the n modes in `modes`, entry (i, j) of
    the matrix G_l = G^l mapping a base level x = (a, b) to level l at
    [i, j, l]; D (2, 2, n) are the step's increments, G = I + D, and
    P_l = D G^(l-1) (0 for x itself) maps x to the increment into level l,
    formed as a product (G^l - G^(l-1) loses about eps/|D| relative on slow
    modes).  quadratic[l, c, f, i] weighs feature f (a^2, ab, b^2) of mode
    i in column c of level l: E, diss_rhs and F's quadratic part less
    their mean parts, and diss_lhs from the increment P_l x as the step
    computes it and y + y_prev = (2 G_l - P_l) x; linear[l, c, f, i] weighs
    feature f (a, b) in F's part linear in y, which carries m, and C_T/heat
    less its mean part.  Summed over the modes, the features' products
    with the two tables give the two arrays of sums build_trace takes, and
    no column weighs a feature by a structural 0.  Every intermediate is a
    contiguous (L, n) array per entry, with a weight copied over the rows
    it multiplies, in the flat spare, of 15 L n values (the three columns'
    quadratic parts, a monomial and a product, which also hold the later
    stages'), and the tables are the first 16 L n values of the flat out.
    """
    G = powers
    L, n = G.shape[2:]
    table, linear_table, _ = _carve(out, (L, 4, 3, n), (L, 2, 2, n))
    quadratic, monomial, product, _ = _carve(spare, (3, 3, L, n), (3, L, n), (3, L, n))
    # y_0^2, y_1^2 and y_0 y_1 in turn, on the features a^2, ab, b^2, for
    # E, diss_rhs and F
    for u, (i, k) in enumerate(((0, 0), (1, 1), (0, 1))):
        np.multiply(G[i, 0], G[k, 0], out=monomial[0])
        np.multiply(G[i, 0], G[k, 1], out=monomial[1])
        monomial[1] += np.multiply(G[i, 1], G[k, 0], out=monomial[2])
        np.multiply(G[i, 1], G[k, 1], out=monomial[2])
        for c in range(3):
            term = product if u else quadratic[c]
            np.copyto(term, w.quadratic[c, u, modes])
            term *= monomial
            if u:
                quadratic[c] += term
    table[:, :2] = quadratic[:2].transpose(2, 0, 1, 3)
    table[:, 3] = quadratic[2].transpose(1, 0, 2)
    # P_l = D G^(l-1) for l >= 1 and 2 G_l - P_l, entry (i, j) at [i, j]
    K = L - 1
    P, V, weight, both, product, _ = _carve(spare, (2, 2, K, n), (2, 2, K, n), (2, K, n),
                                            (2, K, n), (K, n))
    np.copyto(weight, w.increment[:, None, modes])
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        _dot(P[i, j], D[i, 0], G[0, j, :-1], D[i, 1], G[1, j, :-1], product)
        np.multiply(G[i, j, 1:], 2.0, out=V[i, j])
        V[i, j] -= P[i, j]
        P[i, j] *= weight[i]
    # diss_lhs = sum_i w_i (P x)_i ((2 G - P) x)_i, 0 at level 0: feature
    # (j, j') takes sum_i w_i P_ij V_ij', and ab both of its orders
    for f, orders in enumerate((((0, 0),), ((0, 1), (1, 0)), ((1, 1),))):
        for s, (j, k) in enumerate(orders):
            _dot(both[s], P[0, j], V[0, k], P[1, j], V[1, k], product)
        if s:
            both[0] += both[1]
        table[1:, 2, f] = both[0]
    table[0, 2] = 0.0
    # F/m and C_T/heat: sum_i l_i y_i puts sum_i l_i G_ij on x_j
    linear, product, lin, _ = _carve(spare, (2, L, n), (2, L, n), (2, 2, n))
    lin[:] = w.linear[..., modes]
    lin[0] *= m
    for c in (0, 1):
        _dot(linear, lin[c, 0], G[0], lin[c, 1], G[1], product)
        linear_table[:, c] = linear.transpose(1, 0, 2)
    return table, linear_table


def build_trace(w: ModalTraceWeights, m: float, t: np.ndarray,
                sums: tuple[np.ndarray, np.ndarray]) -> EnergyTrace:
    """EnergyTrace at times t of the levels of a trajectory split as
    T = m + e, from their sums over the modes of the products of
    modal_trace_table's quadratic table, (L, 4) in its columns E, diss_rhs,
    diss_lhs and F, and of its linear one, (L, 2) in F and C_T.  Row 0 has
    no predecessor and zeros for the dissipation sides.  diss_lhs comes
    from the step increments, so it is neither drowned by cancellation
    near equilibrium nor limited by the rounding of the levels themselves;
    the mean, never stepped, drops out of it and keeps the heat exactly
    constant.  The sums are completed in place: every column but t and
    heat is a view of them.
    """
    quadratic, linear = sums
    E, F, C_T = quadratic[:, 0], quadratic[:, 3], linear[:, 1]
    E += w.E_mean * m * m
    heat = np.full_like(E, w.heat_mean * m)
    F += linear[:, 0]
    F += w.F_mean * m * m
    F += w.lyapunov_weight * E
    C_T += w.boundary_mean * m
    C_T *= heat
    quadratic[0, 1:3] = 0.0
    return EnergyTrace(t=t, E=E, diss_lhs=quadratic[:, 2], diss_rhs=quadratic[:, 1],
                       heat=heat, C_T=C_T, lyapunov=F)


def _trace_block(G: np.ndarray, D: np.ndarray, w: ModalTraceWeights,
                 modes: slice, m: float, x: np.ndarray, plan: RunPlan,
                 sums: tuple[np.ndarray, np.ndarray] | None, kept: np.ndarray,
                 work: _Workspace) -> None:
    """Add one block of modes' share to every row of sums and write its
    amplitudes of the levels plan.keep into kept.

    G and D (2, 2, n) are the block's step and increment matrices, x (2, n)
    its level 0, and sums build_trace's two arrays, or None for a
    levels-only run, which forms no table and steps no further than its
    last kept level.  The trace tables of G^k, k = 0..K (K cut where a
    power or a table entry is not finite), map a chunk base's features to
    its chunk's sums.  The bases of a group of M chunks are the powers of
    G^K applied to the first, and one matrix product per table gives the
    group's rows.  Every array the block forms is a view of work's.
    """
    n, K, M, keep = x.shape[1], plan.K, plan.M, plan.keep
    powers = _power_table(G, K, _view(work.powers, (2, 2, K + 1, n)), work.spare)
    K = powers.shape[2] - 1
    if sums is None:
        last = int(keep[-1])
    else:
        last = sums[0].shape[0] - 1
        tables = modal_trace_table(w, m, powers, modes, D, work.table, work.spare)
        finite = _finite(tables[0], axis=(1, 2, 3)) & _finite(tables[1], axis=(1, 2, 3))
        if not finite.all():
            K = max(1, int(np.argmin(finite)) - 1)
        # a table's (K + 1) c rows, for its c columns, weigh its features:
        # the quadratic one's a^2, ab, b^2 and the linear one's a, b
        tables = [table[:K + 1].reshape((K + 1) * table.shape[1], -1) for table in tables]
    # the bases hold one chunk more than a group, the base of the next
    # group, and levels alone have no features; the hops' doubling runs on
    # the spare past them, as nothing else is written there yet
    f = 0 if sums is None else M
    hops, bases, *features, spare = _carve(work.spare, (2, 2, M + 1, n), (2, M + 1, n),
                                           (f, 3, n), (f, 2, n))
    hops = _power_table(powers[:, :, K], M, hops, work.spare[hops.size:])[:, :, 1:]
    group = hops.shape[2]
    bases[:, 0] = x
    total = -(-last // K)
    # the kept levels of each group, whose levels start at 1, 1 + group K, ...
    edges = np.searchsorted(keep, np.minimum(np.arange(1, last + group * K + 1, group * K),
                                             last + 1))
    for g, c0 in enumerate(range(0, total, group)):
        count = min(group, total - c0)
        if c0:
            # a row each: one copy of both would overlap and take a temporary
            for i in (0, 1):
                bases[i, 0] = bases[i, group]
        # base c is G^(K c) applied to base 0
        product = _view(spare, (count, n))
        for i in (0, 1):
            _dot(bases[i, 1:count + 1], bases[0, 0], hops[i, 0, :count],
                 bases[1, 0], hops[i, 1, :count], product)
        start = c0 * K + 1
        if sums is not None:
            square, linear = features
            a, b = bases[:, :count]
            for k, (u, v) in enumerate(((a, a), (b, a), (b, b))):
                square[:count, k] = np.multiply(u, v, out=product)
            linear[:count] = bases[:, :count].transpose(1, 0, 2)
            levels = min(count * K, last + 1 - start)
            for table, chunks, part in zip(tables, features, sums):
                columns, flat = part.shape[1], chunks[:count].reshape(count, -1)
                if c0 == 0:
                    part[0] += np.matmul(table[:columns], flat[0])
                rows = np.matmul(flat, table[columns:].T,
                                 out=_view(work.product, (count, columns * K)))
                part[start:start + levels] += rows.reshape(-1, columns)[:levels]
        # the kept levels, at most a chunk's K at a time: a one-chunk
        # group's in one call.  Their chunks' powers and bases are gathered
        # into the spare (take writes into out without a buffer where it
        # clips), and each level is formed in place of its power's first
        # column
        for i in range(edges[g], edges[g + 1], K):
            offset = keep[i:min(i + K, edges[g + 1])] - start
            cols, chunks, _ = _carve(spare, (2, 2, offset.size, n), (2, offset.size, n))
            powers.take(offset % K + 1, axis=2, out=cols, mode="clip")
            bases.take(offset // K, axis=1, out=chunks, mode="clip")
            for r in (0, 1):
                _dot(cols[r, 0], cols[r, 0], chunks[0], cols[r, 1], chunks[1], cols[r, 1])
            kept[i:i + offset.size] = cols[:, 0].transpose(1, 0, 2)


def _energy(w: ModalTraceWeights, m: float, x: np.ndarray) -> float:
    """E of the level of mean m and amplitudes x (2, J), as the trace forms it."""
    return w.E_mean * m * m + np.sum(w.quadratic[0, :2] * x * x)


def _start(params: MaterialParams, grid: Grid, init: State, kind: StepperKind,
           keep: np.ndarray, levels_only: bool) -> tuple[ModalTraceWeights, np.ndarray,
                                                         np.ndarray, float, np.ndarray]:
    """A run's weights, G, D and init's mean m and amplitudes x (2, J).
    Raises MeshTooLarge, before allocating, if run_memory_bytes exceeds
    MAX_RUN_BYTES, and NonFiniteInput if G, D, the trace weights (E's
    alone, which forecast reads, with levels_only) or init's energy are not
    finite."""
    need = run_memory_bytes(grid, keep, levels_only)
    if need > MAX_RUN_BYTES:
        raise MeshTooLarge(f"a run on J={grid.J}, N={grid.N} keeping {keep.size} levels "
                           f"would hold {need:.3g} bytes, more than "
                           f"MAX_RUN_BYTES = {MAX_RUN_BYTES}")
    with np.errstate(over="ignore", invalid="ignore"):
        weights = modal_trace_weights(params, grid)
        G, D = assemble(params, grid, kind)
        m = float(np.mean(init.T))
        x = _modes(init, m)
        energy = _energy(weights, m, x)
    if not np.isfinite(D).all():
        raise NonFiniteInput("the step matrices overflow; mu2, k, rho, c, dt and dx "
                             "set their size")
    read = ((weights.quadratic[0], weights.E_mean, weights.heat_mean) if levels_only
            else vars(weights).values())
    if not all(np.isfinite(w).all() for w in read):
        raise NonFiniteInput("the trace weights overflow; mu2, tau_q, k, rho, c, l, dt and dx "
                             "set their size")
    if not np.isfinite(energy):
        raise NonFiniteInput("the energy of the initial state overflows; "
                             "T_b and T_f set its size")
    return weights, G, D, m, x


def _advance(G: np.ndarray, x: np.ndarray, steps: int) -> np.ndarray:
    """G^steps x per mode, G (2, 2, n), x (2, n), by square and multiply."""
    power, y = G, x
    while steps:
        if steps & 1:
            y = power[:, 0] * y[0] + power[:, 1] * y[1]
        # (G G)_ij = G_i0 G_0j + G_i1 G_1j
        power = power[:, :1] * power[0] + power[:, 1:] * power[1]
        steps >>= 1
    return y


def forecast(params: MaterialParams, grid: Grid, init: State) -> tuple[float, float, float]:
    """(rate, E, gain) of a coupled run of init over grid's N + 1 steps, from
    one assemble and no step: mode 1's step_decay_rate, E of level N + 1
    (_advance, O(J log N)) and energy_norm_sq in E's weights.  Raises what a
    levels-only run keeping level N + 1 raises before stepping (its memory
    too, which bounds forecast's), and NonFiniteState if E is not finite."""
    weights, G, D, m, x = _start(params, grid, init, StepperKind.COUPLED_IMPLICIT,
                                 np.array([grid.N + 1]), levels_only=True)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(_energy(weights, m, _advance(G, x, grid.N + 1)))
        gain = energy_norm_sq(G, *map(float, weights.quadratic[0, :2, 0]))
    if not np.isfinite(energy):
        raise NonFiniteState(f"E_final is not finite at tau_q = {params.tau_q!r}, "
                             f"mu2 = {params.mu2!r}")
    return step_decay_rate(G[..., 0], D[..., 0], grid.dt), energy, gain


def run(params: MaterialParams, config: SimulationConfig, init: State,
        keep: Sequence[int] | None = None, levels_only: bool = False,
        kind: StepperKind = StepperKind.COUPLED_IMPLICIT) -> Trajectory:
    """Advance init over config's time mesh with the stepper kind.

    Level 0 and the levels of the steps keep (increasing, in 1..N+1; all
    of them by default) are kept, a row each of the Trajectory's T and q;
    energy diagnostics are recorded at every step regardless of keep,
    unless levels_only, where the run forms the kept levels alone, stepping
    no further than the last, and its trace is None.  Raises ValueError if
    keep is not such steps; MeshTooLarge and NonFiniteInput before stepping
    (_start); NonFiniteState, naming the first bad step, if a level or its
    trace row overflows (the first bad kept level, with levels_only)."""
    grid = build_grid(params, config)
    _require_on_grid(init, grid, "init")
    last = grid.N + 1
    keep = np.arange(1, last + 1) if keep is None else np.asarray(keep)
    if (keep.dtype.kind not in "iu" or keep.ndim != 1 or not keep.size or keep[0] < 1
            or keep[-1] > last or np.any(keep[1:] <= keep[:-1])):
        raise ValueError(f"keep must be increasing integer steps in 1..{last}, "
                         f"got {keep!r}")
    weights, G, D, m, x = _start(params, grid, init, kind, keep, levels_only)
    plan = _plan(grid, keep, levels_only)
    J, S = grid.J, plan.keep.size + 1
    sums = None if levels_only else (np.zeros((grid.N + 2, 4)), np.zeros((grid.N + 2, 2)))
    levels = np.zeros((S, 2 * J + 3))
    levels[0] = np.concatenate((init.T, init.q))
    kept = _amplitudes(levels[1:])
    work = _Workspace(plan, levels_only)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, J, plan.n):
            modes = slice(lo, min(lo + plan.n, J))
            _trace_block(G[..., modes], D[..., modes], weights, modes, m, x[:, modes],
                         plan, sums, kept[..., modes], work)
        trace = None if levels_only else build_trace(weights, m, grid.t, sums)
        # sums now holds every trace column but heat
        ok = np.ones(grid.N + 2, dtype=bool) if levels_only else np.isfinite(trace.heat)
        for part in sums or ():
            ok &= np.isfinite(part).all(axis=1)
        # only the trace and the kept levels outlive the blocks
        del G, D, weights, x, work
        for lo in range(1, S, plan.batch):
            batch = levels[lo:lo + plan.batch]
            _levels(m, batch)
            ok[plan.keep[lo - 1:lo - 1 + len(batch)]] &= np.isfinite(batch).all(axis=1)
    if not ok.all():
        raise NonFiniteState(f"step {int(np.argmin(ok))} produced a non-finite "
                             "temperature, flux or energy")
    return Trajectory(T=levels[:, :J + 1], q=levels[:, J + 1:],
                      stored_steps=[0] + plan.keep.tolist(), grid=grid, trace=trace)
