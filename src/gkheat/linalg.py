"""The scheme's exact eigenbasis, and a dense direct solve as its oracle.

With n = J + 1 temperature nodes the scheme's difference operators are
diagonalised by two orthonormal real transforms (Strang, "The Discrete
Cosine Transform", SIAM Review 41(1), 1999):

* DCT-II on the temperature nodes j = 0..J, cosine vector m (m = 0..J)
  C_jm = c_m cos(pi m (j + 1/2) / n), c_0 = sqrt(1/n), c_m = sqrt(2/n);
* DST-I on the interior fluxes j = 1..J, sine vector m (m = 1..J)
  S_jm = sqrt(2/n) sin(pi m j / n).

With s_m = 2 sin(pi m / (2n)), the temperature difference map A_T sends
cosine vector m to -s_m times sine vector m (and the constant, m = 0, to
zero), and the flux divergence A_q sends sine vector m to +s_m times cosine
vector m; so L = A_T A_q has the eigenvalues -s_m^2.  dct/dst give the
amplitudes of a vector in these bases, idct (and dst, its own inverse)
rebuild the vector.  All act along the last axis, on numpy.fft.rfft/irfft
of the even (DCT) or odd (DST) extension of length 2n.

dense_solve is the independent check the modal path is tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix


def difference_symbols(J: int) -> np.ndarray:
    """s_m = 2 sin(pi m / (2(J+1))) for m = 1..J: the A_T / A_q eigenvalues."""
    return 2.0 * np.sin(0.5 * np.pi * np.arange(1, J + 1) / (J + 1))


def _half_shift(n: int, sign: float) -> np.ndarray:
    return np.exp(sign * 0.5j * np.pi * np.arange(n) / n)


def dct(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis: cosine amplitudes of x."""
    n = x.shape[-1]
    y = np.fft.rfft(np.concatenate((x, x[..., ::-1]), axis=-1))[..., :n]
    scale = np.full(n, np.sqrt(0.5 / n))
    scale[0] = np.sqrt(0.25 / n)
    return (_half_shift(n, -1.0) * y).real * scale


def idct(a: np.ndarray) -> np.ndarray:
    """Inverse of dct (the orthonormal DCT-III) along the last axis."""
    n = a.shape[-1]
    scale = np.full(n, np.sqrt(2.0 * n))
    scale[0] = 2.0 * np.sqrt(n)
    z = np.zeros(a.shape[:-1] + (n + 1,), dtype=complex)
    z[..., :n] = a * scale * _half_shift(n, 1.0)
    return np.fft.irfft(z, 2 * n)[..., :n]


def dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis; its own inverse."""
    n = x.shape[-1] + 1
    z = np.zeros(x.shape[:-1] + (2 * n,))
    z[..., 1:n] = x
    z[..., n + 1:] = -x[..., ::-1]
    return np.fft.rfft(z)[..., 1:n].imag * -np.sqrt(0.5 / n)


def dense_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for a square 2-D array a (LAPACK, partial pivoting)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"dense_solve requires a square matrix, got {a.shape}")
    if b.size != a.shape[0]:
        raise DimensionMismatch(f"rhs has size {b.size}, matrix order {a.shape[0]}")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("solution contains non-finite entries")
    return x
