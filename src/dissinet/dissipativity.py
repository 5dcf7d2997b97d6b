"""Quadratic supply rates, storage certificates and dissipation inequalities.

A system is dissipative with respect to the quadratic supply rate
s(y, u) = y'Qy + 2 y'Su + u'Ru when some PSD storage function V satisfies
V(x+) - V(x) <= s(y, u) along all trajectories.  For linear nodes with a
quadratic storage x'Px this reduces to a matrix inequality; the functions
here build those matrices, map virtual-output passivity onto supply-rate
triples, and dualize triples via blockwise inversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix_core import (
    block_inverse_2x2,
    definiteness,
    eig_general,
    inertia,
    require_finite,
    require_symmetric,
    symmetrize,
)

__all__ = [
    "SupplyRate",
    "DualSupplyRate",
    "LinearNode",
    "StorageCertificate",
    "supply_eval",
    "dissipation_lmi_matrix",
    "passivity_lmi_matrix",
    "check_R_necessary",
    "virtual_to_qsr",
    "dualize_supply",
    "primalize_supply",
    "detectability",
    "stabilizability",
]


@dataclass(frozen=True)
class SupplyRate:
    """Triple (Q, S, R) of the quadratic supply rate y'Qy + 2 y'Su + u'Ru."""

    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = require_symmetric(require_finite(self.Q, "Q"), "Q")
        R = require_symmetric(require_finite(self.R, "R"), "R")
        S = np.atleast_2d(require_finite(self.S, "S"))
        if S.shape != (Q.shape[0], R.shape[0]):
            raise ValueError(
                f"S must be {Q.shape[0]}x{R.shape[0]}, got {S.shape}"
            )
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "R", R)

    @property
    def p(self):
        return self.Q.shape[0]

    @property
    def m(self):
        return self.R.shape[0]

    def stacked(self):
        """The symmetric block matrix [[Q, S], [S^T, R]]."""
        return np.block([[self.Q, self.S], [self.S.T, self.R]])

    def to_json_dict(self):
        return {"Q": self.Q.tolist(), "S": self.S.tolist(), "R": self.R.tolist()}

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["Q"], d["S"], d["R"])


@dataclass(frozen=True)
class DualSupplyRate:
    """Blockwise inverse counterpart of a supply-rate triple."""

    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = require_symmetric(require_finite(self.Q, "dual Q"), "dual Q")
        R = require_symmetric(require_finite(self.R, "dual R"), "dual R")
        S = np.atleast_2d(require_finite(self.S, "dual S"))
        if S.shape != (Q.shape[0], R.shape[0]):
            raise ValueError(
                f"dual S must be {Q.shape[0]}x{R.shape[0]}, got {S.shape}"
            )
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "R", R)

    @property
    def p(self):
        return self.Q.shape[0]

    @property
    def m(self):
        return self.R.shape[0]

    def stacked(self):
        return np.block([[self.Q, self.S], [self.S.T, self.R]])


@dataclass(frozen=True)
class LinearNode:
    """Linear subsystem x+ = A x + B v + G u, y = C x.

    ``v`` is the local control channel, ``u`` the coupling channel that the
    interconnection drives.  The main setting is feedthrough-free (D = 0);
    a feedthrough matrix is accepted only where explicitly needed.
    """

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray
    C: np.ndarray
    time_domain: str = "dt"
    D: np.ndarray = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n or G.shape[0] != n or C.shape[1] != n:
            raise ValueError("B, G, C dimensions inconsistent with A")
        if self.time_domain not in ("ct", "dt"):
            raise ValueError(f"time_domain must be 'ct' or 'dt', got {self.time_domain!r}")
        D = self.D
        if D is None:
            D = np.zeros((C.shape[0], G.shape[1]))
        else:
            D = np.atleast_2d(np.asarray(D, dtype=float))
            if D.shape != (C.shape[0], G.shape[1]):
                raise ValueError(f"D must be {C.shape[0]}x{G.shape[1]}, got {D.shape}")
        for name, mat in (("A", A), ("B", B), ("G", G), ("C", C), ("D", D)):
            object.__setattr__(self, name, require_finite(mat, name))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def r(self):
        return self.B.shape[1]

    @property
    def m(self):
        return self.G.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def has_feedthrough(self):
        return bool(np.any(self.D != 0.0))

    def closed_loop_a(self, K=None):
        """A + B K, or A itself when no controller is given."""
        if K is None:
            return self.A.copy()
        K = np.atleast_2d(np.asarray(K, dtype=float))
        if K.shape != (self.r, self.n):
            raise ValueError(f"K must be {self.r}x{self.n}, got {K.shape}")
        return self.A + self.B @ K

    def to_json_dict(self):
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "G": self.G.tolist(),
            "C": self.C.tolist(),
            "time_domain": self.time_domain,
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(*(require_finite(d[key], key) for key in "ABGC"),
                   time_domain=d.get("time_domain", "dt"))


@dataclass(frozen=True)
class StorageCertificate:
    """Verified storage function and feedback gain for one node.

    ``P`` is the synthesis variable (P > 0); the storage matrix is its
    inverse, V(x) = x' storage_matrix x.  ``margin`` is the definiteness
    slack of the independent closed-loop dissipation check (nonnegative up
    to the check tolerance).
    """

    P: np.ndarray
    storage_matrix: np.ndarray
    K: np.ndarray
    supply: SupplyRate
    margin: float
    variant: str = "fixed"
    dual_supply: DualSupplyRate = field(default=None, compare=False)

    def to_json_dict(self):
        return {
            "P": self.P.tolist(),
            "K": self.K.tolist(),
            "supply": self.supply.to_json_dict(),
            "margin": float(self.margin),
            "variant": self.variant,
        }

    @classmethod
    def from_json_dict(cls, d):
        P = require_symmetric(require_finite(d["P"], "P"), "P")
        storage = np.linalg.solve(P, np.eye(P.shape[0]))
        return cls(
            P=P,
            storage_matrix=symmetrize(storage),
            K=np.atleast_2d(require_finite(d["K"], "K")),
            supply=SupplyRate.from_json_dict(d["supply"]),
            margin=float(d["margin"]),
            variant=d.get("variant", "fixed"),
        )


def supply_eval(sr, y, u):
    """Evaluate the supply rate y'Qy + 2 y'Su + u'Ru."""
    y = np.asarray(y, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if y.size != sr.p or u.size != sr.m:
        raise ValueError(f"expected y of size {sr.p} and u of size {sr.m}")
    return float(y @ sr.Q @ y + 2.0 * y @ sr.S @ u + u @ sr.R @ u)


def dissipation_lmi_matrix(node, K, sr, storage):
    """Closed-loop dissipation matrix for a DT node; dissipative iff NSD.

    With A_K = A + B K and storage matrix P this is

        [[A_K' P A_K - P - C'QC,  A_K' P G - C'S],
         [        *,              G' P G - R     ]].
    """
    if node.time_domain != "dt":
        raise ValueError("dissipation matrix is defined for DT nodes")
    P = require_symmetric(storage, "storage matrix")
    if sr.p != node.p or sr.m != node.m:
        raise ValueError("supply-rate dimensions do not match the node")
    Ak = node.closed_loop_a(K)
    C, G = node.C, node.G
    top_left = Ak.T @ P @ Ak - P - C.T @ sr.Q @ C
    top_right = Ak.T @ P @ G - C.T @ sr.S
    bottom_right = G.T @ P @ G - sr.R
    return symmetrize(
        np.block([[top_left, top_right], [top_right.T, bottom_right]])
    )


def closed_loop_dissipation_gap(node, K, sr, storage):
    """Largest eigenvalue of the closed-loop dissipation matrix.

    Nonpositive (within tolerance) exactly when the closed loop is
    dissipative for the given storage matrix.
    """
    from .matrix_core import eig_sym

    w, _ = eig_sym(dissipation_lmi_matrix(node, K, sr, storage))
    return float(w[-1])


def passivity_lmi_matrix(node, storage):
    """Passivity matrix for supply y'u on a DT node with feedthrough D.

    Returns [[A'PA - P, A'PG - C'/2], [*, G'PG - (D + D')/2]]; the node is
    passive with storage x'Px iff this is NSD.  Without feedthrough the
    trailing block G'PG is PSD, which rules out passivity except in the
    degenerate G = 0 case.
    """
    if node.time_domain != "dt":
        raise ValueError("passivity matrix is defined for DT nodes")
    if node.m != node.p:
        raise ValueError("passivity requires matching input/output dimensions")
    P = require_symmetric(storage, "storage matrix")
    A, G, C, D = node.A, node.G, node.C, node.D
    top_left = A.T @ P @ A - P
    top_right = A.T @ P @ G - 0.5 * C.T
    bottom_right = G.T @ P @ G - 0.5 * (D + D.T)
    return symmetrize(
        np.block([[top_left, top_right], [top_right.T, bottom_right]])
    )


def check_R_necessary(sr, tol=None):
    """PSD test on R: a necessary condition for dissipativity of
    feedthrough-free nodes with smooth storage."""
    return definiteness(sr.R, "PSD", tol)


def virtual_to_qsr(Q_hat, R_hat):
    """Map virtual-output passivity of z = y + R_hat u onto a supply triple.

    Plain passivity of the virtual output (``Q_hat is None``) corresponds to
    (0, I/2, R_hat); output strict passivity with rate y'Q_hat y corresponds
    to (-Q_hat, I/2, R_hat).
    """
    R_hat = require_symmetric(R_hat, "R_hat")
    m = R_hat.shape[0]
    if Q_hat is None:
        Q = np.zeros((m, m))
    else:
        Q_hat = require_symmetric(Q_hat, "Q_hat")
        if Q_hat.shape[0] != m:
            raise ValueError(
                f"Q_hat must match R_hat dimension {m}, got {Q_hat.shape[0]}"
            )
        Q = -Q_hat
    return SupplyRate(Q, 0.5 * np.eye(m), R_hat)


def dualize_supply(sr, tol=None):
    """Blockwise inverse of [[Q, S], [S^T, R]] under the sign conditions
    Q < 0 and R > 0.

    The sign conditions force inertia (p, 0, m) on the stacked block, so the
    inverse exists and its corner blocks keep the signs (dual Q < 0,
    dual R > 0); both facts are checked.
    """
    vq = definiteness(sr.Q, "ND", tol)
    if not vq.satisfied:
        raise ValueError(
            f"dualization requires Q negative definite (max eig {vq.max_eig:.3e})"
        )
    vr = definiteness(sr.R, "PD", tol)
    if not vr.satisfied:
        raise ValueError(
            f"dualization requires R positive definite (min eig {vr.min_eig:.3e})"
        )
    ine = inertia(sr.stacked())
    if ine.as_tuple() != (sr.p, 0, sr.m):
        raise ValueError(
            f"stacked supply block has inertia {ine.as_tuple()}, "
            f"expected ({sr.p}, 0, {sr.m})"
        )
    Qd, Sd, Rd = block_inverse_2x2(sr.Q, sr.S, sr.R)
    if not definiteness(Qd, "ND", tol).satisfied:
        raise ValueError("dual Q lost negative definiteness; input near singular")
    if not definiteness(Rd, "PD", tol).satisfied:
        raise ValueError("dual R lost positive definiteness; input near singular")
    return DualSupplyRate(Qd, Sd, Rd)


def primalize_supply(dsr):
    """Blockwise inverse in the other direction: dual triple back to primal."""
    Q, S, R = block_inverse_2x2(dsr.Q, dsr.S, dsr.R)
    return SupplyRate(Q, S, R)


def detectability(C, A, tol=None):
    """PBH detectability test for a DT pair (C, A).

    For every eigenvalue of A with magnitude >= 1 the stacked matrix
    [lambda I - A; C] must have full column rank.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    if C.shape[1] != n:
        raise ValueError(f"C must have {n} columns, got {C.shape[1]}")
    eigs = eig_general(A)
    for lam in eigs:
        if abs(lam) < 1.0 - 1e-9:
            continue
        M = np.vstack([lam * np.eye(n) - A, C.astype(complex)])
        if np.linalg.matrix_rank(M, tol=tol) < n:
            return False
    return True


def stabilizability(A, B, tol=None):
    """PBH stabilizability of (A, B), via detectability of the transposed pair."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return detectability(B.T, A.T, tol=tol)
