"""Affine matrix-inequality feasibility problems with independent verification.

A problem is a set of named matrix variables plus constraints of the form
``expr(vars) >= margin * I`` or ``expr(vars) <= -margin * I`` where every
expression is affine and symmetric-valued.  ``solve`` searches for a
feasible assignment; its contract is not the search path but the
verification step: a solution is only ever reported as ``Verified`` after
every constraint has been re-evaluated from scratch and passed an
eigenvalue check.  The solver never claims infeasibility; when the budget
runs out the status is ``Unknown``.

Search method: one phase-I problem solved by a barrier method.  With
``b_j`` the margin constraint j requires, it maximizes ``t`` subject to
``expr_j(x) - b_j I >= t I`` and a norm bound ``|x|^2 <= rho^2`` that keeps
the problem bounded.  Damped Newton steps minimize ``-mu t`` plus the
log-det barrier of every slack, and the path parameter ``mu`` grows between
centering rounds (Boyd & Vandenberghe, *Convex Optimization*, 2004, sec.
11.4 and 11.6; Vandenberghe & Boyd, "Semidefinite Programming", SIAM Review
38(1), 1996).  The search starts at the warm start if one is given, else at
scaled identities for symmetric variables and zero for rectangular ones, and
returns that point unchanged when it already verifies.  It stops as soon as
``t > 0``, or once the barrier's duality gap is below the verification
slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix_core import eig_sym, symmetrize

__all__ = [
    "MatrixVariable",
    "SandwichTerm",
    "AffineMatrixExpr",
    "BlockForm",
    "LmiConstraint",
    "LmiProblem",
    "LmiSolution",
    "SolveOptions",
    "ConstraintReport",
    "evaluate",
    "verify",
    "judge",
    "solve",
]

VERIFY_SLACK = 1e-9


@dataclass(frozen=True)
class MatrixVariable:
    """Named decision variable, either symmetric (square) or rectangular."""

    name: str
    shape: tuple
    kind: str = "symmetric"

    def __post_init__(self):
        r, c = self.shape
        if self.kind not in ("symmetric", "rectangular"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "symmetric" and r != c:
            raise ValueError(f"symmetric variable {self.name!r} must be square")
        if r < 1 or c < 1:
            raise ValueError(f"variable {self.name!r} has empty shape {self.shape}")

    @property
    def dof(self):
        r, c = self.shape
        return r * (r + 1) // 2 if self.kind == "symmetric" else r * c

    def basis(self):
        """Basis matrices spanning the variable space."""
        r, c = self.shape
        out = []
        if self.kind == "symmetric":
            for i in range(r):
                for j in range(i, r):
                    B = np.zeros((r, r))
                    B[i, j] = 1.0
                    B[j, i] = 1.0
                    out.append(B)
        else:
            for i in range(r):
                for j in range(c):
                    B = np.zeros((r, c))
                    B[i, j] = 1.0
                    out.append(B)
        return out

    def pack(self, value):
        value = np.atleast_2d(np.asarray(value, dtype=float))
        if value.shape != self.shape:
            raise ValueError(
                f"value for {self.name!r} must be {self.shape}, got {value.shape}"
            )
        if self.kind == "symmetric":
            r = self.shape[0]
            return np.array([value[i, j] for i in range(r) for j in range(i, r)])
        return value.reshape(-1).copy()

    def unpack(self, coeffs):
        r, c = self.shape
        if self.kind == "symmetric":
            V = np.zeros((r, r))
            k = 0
            for i in range(r):
                for j in range(i, r):
                    V[i, j] = coeffs[k]
                    V[j, i] = coeffs[k]
                    k += 1
            return V
        return np.asarray(coeffs, dtype=float).reshape(r, c)


@dataclass(frozen=True)
class SandwichTerm:
    """One linear term ``scale * sym(L @ op(V) @ R)`` of an affine expression."""

    var: str
    left: np.ndarray
    right: np.ndarray
    transpose: bool = False
    scale: float = 1.0

    def apply(self, value):
        V = value.T if self.transpose else value
        X = self.left @ V @ self.right
        return self.scale * 0.5 * (X + X.T)


class AffineMatrixExpr:
    """Symmetric-matrix-valued affine expression over named variables."""

    def __init__(self, constant, terms=()):
        self.constant = symmetrize(constant)
        self.dim = self.constant.shape[0]
        self.terms = list(terms)
        for t in self.terms:
            if t.left.shape != (self.dim, t.left.shape[1]):
                raise ValueError("term left factor has wrong row count")
            if t.right.shape[1] != self.dim:
                raise ValueError("term right factor has wrong column count")

    def variables(self):
        return {t.var for t in self.terms}

    def evaluate(self, assignment):
        out = self.constant.copy()
        for t in self.terms:
            if t.var not in assignment:
                raise KeyError(f"assignment missing variable {t.var!r}")
            out += t.apply(np.atleast_2d(np.asarray(assignment[t.var], dtype=float)))
        return symmetrize(out)

    def negated(self):
        neg_terms = [
            SandwichTerm(t.var, t.left, t.right, t.transpose, -t.scale)
            for t in self.terms
        ]
        return AffineMatrixExpr(-self.constant, neg_terms)


class BlockForm:
    """Builder for block-partitioned affine symmetric expressions.

    Content placed at an off-diagonal block (i, j) is mirrored transposed
    into (j, i); diagonal content is symmetrized.
    """

    def __init__(self, block_sizes):
        self.sizes = [int(s) for s in block_sizes]
        if any(s < 1 for s in self.sizes):
            raise ValueError("block sizes must be positive")
        self.dim = sum(self.sizes)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self._constant = np.zeros((self.dim, self.dim))
        self._terms = []

    def _selector(self, i):
        E = np.zeros((self.dim, self.sizes[i]))
        o = self.offsets[i]
        E[o : o + self.sizes[i], :] = np.eye(self.sizes[i])
        return E

    def put_const(self, i, j, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        oi, oj = self.offsets[i], self.offsets[j]
        si, sj = self.sizes[i], self.sizes[j]
        if X.shape != (si, sj):
            raise ValueError(f"block ({i},{j}) expects {si}x{sj}, got {X.shape}")
        if i == j:
            self._constant[oi : oi + si, oi : oi + si] += 0.5 * (X + X.T)
        else:
            self._constant[oi : oi + si, oj : oj + sj] += X
            self._constant[oj : oj + sj, oi : oi + si] += X.T
        return self

    def put_var(self, i, j, name, left=None, right=None, transpose=False, scale=1.0):
        """Place ``scale * (left @ op(V) @ right)`` at block (i, j)."""
        Ei, Ej = self._selector(i), self._selector(j)
        L = Ei if left is None else Ei @ np.atleast_2d(np.asarray(left, dtype=float))
        R = Ej.T if right is None else np.atleast_2d(np.asarray(right, dtype=float)) @ Ej.T
        eff_scale = float(scale) * (1.0 if i == j else 2.0)
        self._terms.append(SandwichTerm(name, L, R, transpose, eff_scale))
        return self

    def expr(self):
        return AffineMatrixExpr(self._constant, tuple(self._terms))


@dataclass(frozen=True)
class LmiConstraint:
    """One constraint ``expr >= margin*I`` (geq) or ``expr <= -margin*I`` (leq).

    ``margin=None`` defers to the problem-level margin.
    """

    expr: AffineMatrixExpr
    sense: str = "geq"
    margin: float = None
    name: str = ""

    def __post_init__(self):
        if self.sense not in ("geq", "leq"):
            raise ValueError(f"sense must be 'geq' or 'leq', got {self.sense!r}")

    def normalized_expr(self):
        return self.expr if self.sense == "geq" else self.expr.negated()


@dataclass
class LmiProblem:
    variables: list
    constraints: list
    margin: float = 0.0

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("problem margin must be nonnegative")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        declared = set(names)
        for c in self.constraints:
            extra = c.expr.variables() - declared
            if extra:
                raise ValueError(f"constraint references undeclared variables {extra}")
        if not self.constraints:
            raise ValueError("problem has no constraints")


@dataclass(frozen=True)
class ConstraintReport:
    index: int
    name: str
    min_eig: float
    required: float
    tol: float = VERIFY_SLACK

    @property
    def ok(self):
        return self.min_eig >= self.required - self.tol


@dataclass
class LmiSolution:
    assignment: dict
    achieved_margin: float
    status: str
    reports: list = field(default_factory=list)
    iterations: int = 0   # Newton steps taken; 0 when the start point held

    @property
    def verified(self):
        return self.status == "Verified"


@dataclass(frozen=True)
class SolveOptions:
    """``max_iters`` caps the Newton steps and ``initial`` is the start point."""

    max_iters: int = 3000
    target_margin: float = None
    initial: dict = None


def evaluate(expr, assignment):
    """Evaluate an affine expression at an assignment (exact, symmetrized)."""
    return expr.evaluate(assignment)


def verify(problem, assignment, tol=VERIFY_SLACK, target_margin=None):
    """Re-evaluate every constraint and report its normalized minimum eigenvalue.

    Independent of any solver state: uses only the expression definitions,
    the assignment, and the symmetric eigensolver.
    """
    required = _required_margins(problem, target_margin)
    reports = []
    for idx, c in enumerate(problem.constraints):
        M = c.normalized_expr().evaluate(assignment)
        w, _ = eig_sym(M)
        reports.append(
            ConstraintReport(
                index=idx,
                name=c.name or f"constraint[{idx}]",
                min_eig=float(w[0]),
                required=float(required[idx]),
                tol=tol,
            )
        )
    return reports


def _required_margins(problem, target_margin):
    """Per-constraint required floor; a solver-level target overrides the
    problem margin but never a per-constraint override."""
    out = []
    for c in problem.constraints:
        if c.margin is not None:
            out.append(c.margin)
        elif target_margin is not None:
            out.append(target_margin)
        else:
            out.append(problem.margin)
    return np.asarray(out, dtype=float)


class _Compiled:
    """Phase-I view of a problem over ``z = (x, t)``, x packing the variables.

    Constraint j becomes the slack ``F_j(x) - (b_j + t) I``, affine in z, with
    ``b_j`` its required margin.  The 1x1 constraints form one system of
    linear inequalities ``c + G z > 0``.  The larger ones are padded with an
    identity block to the largest size ``n`` and stacked as constants ``C``
    (J, n, n) and derivatives ``D`` (J, d + 1, n, n), the last derivative
    being the ``-I`` of t; a padded block adds nothing to the barrier.
    """

    def __init__(self, problem, target_margin):
        self.variables = list(problem.variables)
        self.offsets = {}
        d = 0
        for v in self.variables:
            self.offsets[v.name] = d
            d += v.dof
        self.dim = d
        var_by_name = {v.name: v for v in self.variables}
        exprs = [c.normalized_expr() for c in problem.constraints]
        # Symmetric variables start at this multiple of the identity.
        self.start_scale = float(np.mean(
            [1.0 + float(np.max(np.abs(e.constant))) for e in exprs]))
        # Barrier parameter: total slack dimension plus one for the norm bound.
        self.degree = 1 + sum(e.dim for e in exprs)
        n = max(e.dim for e in exprs)
        consts, derivs, lin_c, lin_G = [], [], [], []
        for e, b in zip(exprs, _required_margins(problem, target_margin)):
            s = e.dim
            C = np.eye(n)
            C[:s, :s] = e.constant - b * np.eye(s)
            D = np.zeros((d + 1, n, n))
            for term in e.terms:
                v = var_by_name[term.var]
                for k, Bk in enumerate(v.basis()):
                    D[self.offsets[v.name] + k, :s, :s] += term.apply(Bk)
            D[d, :s, :s] = -np.eye(s)
            if s == 1:
                lin_c.append(C[0, 0])
                lin_G.append(D[:, 0, 0])
            else:
                consts.append(C)
                derivs.append(D)
        self.linear = (np.array(lin_c), np.array(lin_G)) if lin_c else None
        self.blocks = (np.array(consts), np.array(derivs)) if consts else None
        # E @ trace_weights sums the traces of the whitened derivatives.
        self.trace_weights = np.concatenate(
            [np.ones(len(lin_c)), np.tile(np.eye(n).reshape(-1), len(consts))])

    def pack(self, assignment):
        x = np.zeros(self.dim)
        for v in self.variables:
            x[self.offsets[v.name] : self.offsets[v.name] + v.dof] = v.pack(
                assignment[v.name]
            )
        return x

    def unpack(self, x):
        out = {}
        for v in self.variables:
            out[v.name] = v.unpack(x[self.offsets[v.name] : self.offsets[v.name] + v.dof])
        return out

    def start(self, initial):
        if initial is not None:
            return self.pack(initial)
        return self.pack({
            v.name: self.start_scale * np.eye(v.shape[0]) if v.kind == "symmetric"
            else np.zeros(v.shape)
            for v in self.variables
        })

    def whitened(self, z):
        """Whitened derivatives at z and the gradient of the log-det barrier.

        Row k of ``E`` stacks ``L^-1 D_k L^-T`` over every slack ``L L^T``,
        so the barrier's Hessian is ``E E^T``.  None when some slack is not
        positive definite.
        """
        cols = []
        if self.linear is not None:
            c, G = self.linear
            s = c + G @ z
            if not np.all(s > 0):
                return None
            cols.append((G / s[:, None]).T)
        if self.blocks is not None:
            C, D = self.blocks
            J, k, n, _ = D.shape
            S = C + (z @ D.reshape(J, k, n * n)).reshape(J, n, n)
            try:
                L = np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                return None
            Li = np.linalg.inv(L)[:, None]
            W = Li @ D @ Li.transpose(0, 1, 3, 2)
            cols.append(W.transpose(1, 0, 2, 3).reshape(k, J * n * n))
        E = np.hstack(cols)
        return E, -(E @ self.trace_weights)


# Radius of the norm bound on x, relative to 1 + |x0|.
BALL_FACTOR = 1e3
# Growth of the path parameter between centering rounds.
PATH_GROWTH = 10.0
# Squared Newton decrement below which a point counts as centered.
CENTERED = 1e-3
# Smallest damped step tried before giving up on a direction.
MIN_STEP = 1e-12
# The first t lies this fraction of |worst slack| below the start point's
# worst slack, and the first mu puts the central point's gap at that distance.
START_GAP = 0.1


def _phase_one(compiled, x0, t0, mu, max_steps):
    """Maximize t over ``F_j(x) - b_j I >= t I`` and ``|x|^2 <= rho^2``.

    Damped Newton steps on ``-mu t - sum_j log det(slack_j) - log(rho^2 -
    |x|^2)``, with mu raised by ``PATH_GROWTH`` after each centering (Boyd &
    Vandenberghe 2004, sec. 11.3-11.6).  Stops as soon as t > 0, once the
    duality gap ``degree / mu`` of a centered point is below the verification
    slack, or after ``max_steps`` steps.  Returns the last point and the
    number of steps.
    """
    d = compiled.dim
    z = np.append(x0, t0)
    rho2 = (BALL_FACTOR * (1.0 + float(np.linalg.norm(x0)))) ** 2
    terms = compiled.whitened(z)   # None only if rounding puts z0 on the boundary
    steps = 0
    while terms is not None and steps < max_steps:
        E, g = terms
        x = z[:d]
        r = rho2 - float(x @ x)
        H = E @ E.T
        H[:d, :d] += (2.0 / r) * np.eye(d) + (4.0 / r**2) * np.outer(x, x)
        g[:d] += (2.0 / r) * x
        g[d] -= mu
        dz = -np.linalg.solve(H, g)
        lam2 = float(-g @ dz)
        # Full steps once the decrement is below 1/4, where Newton converges
        # quadratically; damped steps 1/(1 + lambda) before that keep a
        # self-concordant barrier inside its domain.  Halving only guards
        # against rounding at the boundary.
        alpha = 1.0 if lam2 < 0.0625 else 1.0 / (1.0 + np.sqrt(lam2))
        terms = None
        while terms is None and alpha > MIN_STEP:
            z_new = z + alpha * dz
            x_new = z_new[:d]
            terms = compiled.whitened(z_new) if x_new @ x_new < rho2 else None
            alpha *= 0.5
        if terms is None:
            break   # rounding has pinned z to the boundary
        z = z_new
        steps += 1
        if z[d] > 0:
            break
        if lam2 < CENTERED:
            if compiled.degree / mu < VERIFY_SLACK:
                break
            mu *= PATH_GROWTH
    return z, steps


def judge(problem, assignment, target_margin=None, iterations=0):
    """Verify an assignment and wrap it as a solution: ``Verified`` when every
    constraint passes :func:`verify`, ``Unknown`` otherwise."""
    reports = verify(problem, assignment, target_margin=target_margin)
    return LmiSolution(
        assignment=assignment,
        achieved_margin=float(min(r.min_eig - r.required for r in reports)),
        status="Verified" if all(r.ok for r in reports) else "Unknown",
        reports=reports,
        iterations=iterations,
    )


def solve(problem, options=None):
    """Search for a verified feasible assignment by the phase-I barrier method.

    Deterministic.  Returns Verified only when :func:`verify` passes on every
    constraint; otherwise Unknown (never an infeasibility claim).
    """
    options = options or SolveOptions()
    compiled = _Compiled(problem, options.target_margin)
    x0 = compiled.start(options.initial)
    sol = judge(problem, compiled.unpack(x0), options.target_margin)
    if sol.verified:
        return sol
    # The start point misses some margin, so its worst slack s0 is negative.
    s0 = sol.achieved_margin
    gap = START_GAP * abs(s0)
    z, steps = _phase_one(compiled, x0, s0 - gap, compiled.degree / gap,
                          options.max_iters)
    return judge(problem, compiled.unpack(z[:-1]), options.target_margin,
                 iterations=steps)
