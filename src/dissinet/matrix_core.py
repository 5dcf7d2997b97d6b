"""Dense real matrix algebra used everywhere else in the package.

Everything here operates on plain numpy arrays at desk scale (global
matrices up to a few hundred rows), in 64-bit floating point, with dense
storage.  Symmetric inputs are validated and re-symmetrized on entry so
that downstream eigenvalue computations see exactly symmetric data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "EigenDecompositionError",
    "SingularBlockError",
    "Inertia",
    "DefinitenessVerdict",
    "symmetrize",
    "require_symmetric",
    "require_finite",
    "default_eig_tol",
    "sign_tol",
    "eig_sym",
    "definiteness",
    "inertia",
    "schur_complement",
    "kron",
    "block_diag",
    "block_inverse_2x2",
    "expm_with_integral",
    "pinv_sym_psd",
    "eig_general",
]

# Relative symmetry tolerance: |M - M^T|_max <= SYM_RTOL * (1 + |M|_max).
SYM_RTOL = 1e-12


class EigenDecompositionError(RuntimeError):
    """Eigenvalue iteration failed to converge or reconstruct the input."""


class SingularBlockError(RuntimeError):
    """A pivot or block matrix that must be inverted is numerically singular."""

    def __init__(self, message, condition=np.inf):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class Inertia:
    """Counts of negative, zero, and positive eigenvalues of a symmetric matrix."""

    neg: int
    zero: int
    pos: int

    def as_tuple(self):
        return (self.neg, self.zero, self.pos)

    @property
    def dim(self):
        return self.neg + self.zero + self.pos


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Outcome of a sign-definiteness test.

    ``kind`` is the strongest class the spectrum supports (PD, ND, PSD, NSD or
    Indefinite); ``satisfied`` answers the specific mode that was asked for.
    """

    kind: str
    min_eig: float
    max_eig: float
    tol_used: float
    satisfied: bool


def symmetrize(M):
    """Return (M + M^T) / 2 without validating symmetry."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def require_symmetric(M, name="matrix"):
    """Validate symmetry within tolerance and return the symmetrized copy.

    Raises ValueError if the asymmetry exceeds SYM_RTOL * (1 + |M|_max).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return _symmetric_blocks(M, name)


def _symmetric_blocks(M, name):
    """:func:`require_symmetric` on each block of a stack (..., n, n)."""
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.size == 0:
        raise ValueError(f"{name} must be non-empty")
    MT = M.swapaxes(-1, -2)
    scale = 1.0 + abs(M).max(axis=(-2, -1))
    skew = abs(M - MT).max(axis=(-2, -1))
    failed = skew > SYM_RTOL * scale
    if np.count_nonzero(failed):
        i, label = _first_failing(failed, name)
        raise ValueError(
            f"{label} is not symmetric: |M - M^T|_max = {skew[i]:.3e} "
            f"exceeds {SYM_RTOL * scale[i]:.3e}"
        )
    return 0.5 * (M + MT)


def _first_failing(failed, name):
    """Index and name of the first failed block of a stack (or matrix)."""
    i = tuple(int(k) for k in np.argwhere(failed)[0])
    return i, f"{name}[{', '.join(map(str, i))}]" if i else name


def require_finite(M, name="matrix"):
    """Return M as a float array; raise ValueError on NaN, Inf or non-numbers."""
    try:
        M = np.asarray(M, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a numeric array ({exc})") from None
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must have finite entries")
    return M


def default_eig_tol(eigs):
    """Relative tolerance for sign decisions, floored at 1e-12."""
    eigs = np.asarray(eigs, dtype=float)
    top = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    return float(sign_tol(top))


def sign_tol(scale):
    """1e-9 * (1 + |scale|) floored at 1e-12, elementwise: the tolerance
    :func:`default_eig_tol` gives a 1x1 block whose entry is ``scale``."""
    return np.maximum(1e-9 * (1.0 + np.abs(scale)), 1e-12)


def eig_sym(M, name="matrix"):
    """Eigendecomposition of a symmetric matrix.

    Returns (w, V) with eigenvalues ``w`` ascending and orthonormal
    eigenvectors in the columns of ``V``.  The reconstruction
    V diag(w) V^T is checked against the input; a failure raises
    EigenDecompositionError rather than silently returning garbage.  On a
    stack (..., n, n) each block is handled exactly as it would be alone,
    and a failing block is named by its index.
    """
    Ms = _symmetric_blocks(np.asarray(M, dtype=float), name)
    try:
        w, V = np.linalg.eigh(Ms)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(
            f"symmetric eigendecomposition of {name} did not converge: {exc}"
        ) from exc
    scale = 1.0 + abs(Ms).max(axis=(-2, -1))
    resid = abs((V * w[..., None, :]) @ V.swapaxes(-1, -2) - Ms).max(axis=(-2, -1))
    failed = resid > 1e-10 * scale
    if np.count_nonzero(failed):
        i, label = _first_failing(failed, name)
        raise EigenDecompositionError(
            f"eigendecomposition of {label} failed reconstruction: "
            f"residual {resid[i]:.3e} vs allowed {1e-10 * scale[i]:.3e}"
        )
    return w, V


def _per_shape(mats, fn):
    """``fn`` of the stack of each shape among ``mats``, one result per matrix."""
    out = [None] * len(mats)
    for shape in {M.shape for M in mats}:
        rows = [i for i, M in enumerate(mats) if M.shape == shape]
        for i, value in zip(rows, fn(np.array([mats[i] for i in rows]))):
            out[i] = value
    return out


_KINDS = np.array(["PD", "ND", "PSD", "NSD", "Indefinite"])


def definiteness(M, mode="PD", tol=None):
    """Test a symmetric matrix for PD / PSD / ND / NSD with an explicit margin.

    The default tolerance is relative to the spectral magnitude,
    1e-9 * (1 + max |eig|).  Decision rules:

    * PD:  min_eig >  tol
    * PSD: min_eig > -tol
    * ND:  max_eig < -tol
    * NSD: max_eig <  tol

    On a stack (..., n, n) each block is judged as it would be alone, and
    the verdict's fields are arrays over the stack.
    """
    if mode not in ("PD", "PSD", "ND", "NSD"):
        raise ValueError(f"unknown definiteness mode {mode!r}")
    w, _ = eig_sym(M)
    if tol is None:
        tol = sign_tol(abs(w).max(axis=-1))
    tol = np.asarray(tol, dtype=float)
    if np.count_nonzero(tol < 0):
        raise ValueError("tol must be nonnegative")
    lo, hi = w[..., 0], w[..., -1]
    checks = {
        "PD": lo > tol,
        "PSD": lo > -tol,
        "ND": hi < -tol,
        "NSD": hi < tol,
    }
    # The strongest class: the first of _KINDS whose check passes.
    kind = _KINDS[np.argmax([checks["PD"], checks["ND"], checks["PSD"],
                             checks["NSD"], np.ones_like(lo, dtype=bool)], axis=0)]
    if w.ndim == 1:
        return DefinitenessVerdict(str(kind), float(lo), float(hi), float(tol),
                                   bool(checks[mode]))
    return DefinitenessVerdict(kind, lo, hi, np.broadcast_to(tol, lo.shape),
                               checks[mode])


def inertia(M, tol=None):
    """Count eigenvalues below -tol, within [-tol, tol], and above tol."""
    w, _ = eig_sym(M)
    if tol is None:
        tol = default_eig_tol(w)
    neg = int(np.sum(w < -tol))
    pos = int(np.sum(w > tol))
    zero = int(w.size - neg - pos)
    return Inertia(neg, zero, pos)


def schur_complement(M, k, eliminate="trailing"):
    """Schur complement of a symmetric block matrix M = [[A, B], [B^T, C]].

    ``k`` is the size of the leading block A.  With ``eliminate="trailing"``
    the trailing block C is inverted and A - B C^{-1} B^T is returned; with
    ``eliminate="leading"`` the complementary form C - B^T A^{-1} B.

    Raises SingularBlockError (carrying a condition-number estimate) when the
    pivot block is numerically singular.
    """
    Ms = require_symmetric(M)
    n = Ms.shape[0]
    if not 0 < k < n:
        raise ValueError(f"leading block size {k} must be in (0, {n})")
    A = Ms[:k, :k]
    B = Ms[:k, k:]
    C = Ms[k:, k:]
    if eliminate == "trailing":
        pivot, keep, off = C, A, B
    elif eliminate == "leading":
        pivot, keep, off = A, C, B.T
    else:
        raise ValueError(f"eliminate must be 'trailing' or 'leading', got {eliminate!r}")
    w, _ = eig_sym(pivot)
    wmax = float(np.max(np.abs(w)))
    wmin = float(np.min(np.abs(w)))
    if wmin <= 1e-12 * max(wmax, 1.0):
        cond = np.inf if wmin == 0.0 else wmax / wmin
        raise SingularBlockError(
            f"pivot block is singular (condition estimate {cond:.3e})", cond
        )
    X = np.linalg.solve(pivot, off.T)
    return symmetrize(keep - off @ X)


def kron(A, B):
    """Kronecker product."""
    return np.kron(np.asarray(A, dtype=float), np.asarray(B, dtype=float))


def block_diag(mats):
    """Block-diagonal composition of a list of matrices."""
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in mats]
    if not mats:
        raise ValueError("block_diag needs at least one block")
    return scipy.linalg.block_diag(*mats)


def block_inverse_2x2(Q, S, R):
    """Blockwise inverse of the symmetric block matrix [[Q, S], [S^T, R]].

    Returns the triple (Qi, Si, Ri) such that
    [[Qi, Si], [Si^T, Ri]] = [[Q, S], [S^T, R]]^{-1}, with Qi and Ri
    symmetrized.  The product with the reported inverse is checked against
    the identity to 1e-9 relative; failure raises SingularBlockError.
    """
    Q = require_symmetric(Q, "Q")
    R = require_symmetric(R, "R")
    S = np.atleast_2d(np.asarray(S, dtype=float))
    p, m = Q.shape[0], R.shape[0]
    if S.shape != (p, m):
        raise ValueError(f"S must be {p}x{m}, got {S.shape}")
    T = np.block([[Q, S], [S.T, R]])
    w, _ = eig_sym(T)
    wmax = float(np.max(np.abs(w)))
    wmin = float(np.min(np.abs(w)))
    if wmin <= 1e-12 * max(wmax, 1.0):
        cond = np.inf if wmin == 0.0 else wmax / wmin
        raise SingularBlockError(
            f"supply block matrix is singular (condition estimate {cond:.3e})", cond
        )
    Tinv = np.linalg.solve(T, np.eye(p + m))
    resid = float(np.max(np.abs(T @ Tinv - np.eye(p + m))))
    if resid > 1e-9 * max(1.0, wmax / wmin):
        raise SingularBlockError(
            f"block inversion inaccurate: residual {resid:.3e}", wmax / wmin
        )
    Qi = symmetrize(Tinv[:p, :p])
    Si = Tinv[:p, p:].copy()
    Ri = symmetrize(Tinv[p:, p:])
    return Qi, Si, Ri


def expm_with_integral(A, h):
    """Matrix exponential e^{Ah} together with its input integral.

    Returns (E, F) with E = e^{Ah} and F = int_0^h e^{A tau} d tau, computed
    in one shot from the exponential of the augmented matrix [[A, I], [0, 0]].
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    require_finite(A, "A")
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A * h
    aug[:n, n:] = np.eye(n) * h
    E_aug = scipy.linalg.expm(aug)
    return E_aug[:n, :n], E_aug[:n, n:]


def pinv_sym_psd(M, name="matrix"):
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Eigenvalues below 1e-10 * max_eig are treated as exactly zero, which
    cleanly separates the null space of a connected-graph Laplacian at desk
    scale.  Raises ValueError when M is not PSD within tolerance.
    """
    w, V = eig_sym(M, name=name)
    tol = default_eig_tol(w)
    if w[0] < -tol:
        raise ValueError(
            f"{name} is not positive semidefinite: min eigenvalue {w[0]:.3e}"
        )
    wmax = float(w[-1])
    if wmax <= 0.0:
        return np.zeros_like(np.asarray(M, dtype=float))
    cut = 1e-10 * wmax
    inv_w = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return symmetrize((V * inv_w) @ V.T)


def eig_general(M, name="matrix"):
    """Complex eigenvalues of a general (possibly nonsymmetric) square matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    require_finite(M, name)
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(
            f"general eigendecomposition of {name} did not converge: {exc}"
        ) from exc
