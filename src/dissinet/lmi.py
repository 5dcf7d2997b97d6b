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

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

from .matrix_core import _per_shape, eig_sym, symmetrize

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


@functools.cache
def _upper(r):   # the packed entries of a symmetric r x r variable
    return np.triu_indices(r)


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
        """Basis matrices spanning the variable space, stacked (dof, r, c)."""
        return self.unpack(np.eye(self.dof))

    def pack(self, value):
        """Coefficients of a value; leading axes of a stack (..., r, c) are kept."""
        value = np.asarray(value, dtype=float)
        value = np.atleast_2d(value) if value.ndim < 2 else value
        if value.shape[-2:] != self.shape:
            raise ValueError(
                f"value for {self.name!r} must be {self.shape}, got {value.shape}"
            )
        if self.kind == "symmetric":
            i, j = _upper(self.shape[0])
            return value[..., i, j]
        return value.reshape(value.shape[:-2] + (-1,))

    def unpack(self, coeffs):
        r, c = self.shape
        coeffs = np.asarray(coeffs, dtype=float)
        if self.kind == "symmetric":
            V = np.empty(coeffs.shape[:-1] + (r, r))
            i, j = _upper(r)
            V[..., i, j] = coeffs
            V[..., j, i] = coeffs
            return V
        return coeffs.reshape(coeffs.shape[:-1] + (r, c))


@dataclass(frozen=True)
class SandwichTerm:
    """One linear term ``scale * sym(L @ op(V) @ R)`` of an affine expression."""

    var: str
    left: np.ndarray
    right: np.ndarray
    transpose: bool = False
    scale: float = 1.0

    def apply(self, value):   # value may be a stack (..., r, c)
        V = value.swapaxes(-1, -2) if self.transpose else value
        X = self.left @ V @ self.right
        return self.scale * 0.5 * (X + X.swapaxes(-1, -2))


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
    return _verify_all([problem], [assignment], [target_margin], tol)[0]


def _verify_all(problems, assignments, target_margins, tol=VERIFY_SLACK):
    """:func:`verify` of many assignments, one stacked :func:`eig_sym` per size."""
    mats = [c.normalized_expr().evaluate(a)
            for p, a in zip(problems, assignments) for c in p.constraints]
    min_eig = _per_shape(mats, lambda stack: eig_sym(stack)[0][:, 0])
    out, pos = [], 0
    for p, target in zip(problems, target_margins):
        required = _required_margins(p, target)
        out.append([ConstraintReport(index=idx, name=c.name or f"constraint[{idx}]",
                                     min_eig=float(min_eig[pos + idx]),
                                     required=float(required[idx]), tol=tol)
                    for idx, c in enumerate(p.constraints)])
        pos += len(p.constraints)
    return out


def _required_margins(problem, target_margin):
    """Per-constraint required floor; a solver-level target overrides the
    problem margin but never a per-constraint override."""
    default = target_margin if target_margin is not None else problem.margin
    return np.array([default if c.margin is None else c.margin
                     for c in problem.constraints], dtype=float)


class _Compiled:
    """Phase-I view over ``z = (x, t)`` of N problems that share their
    variables and constraint sizes, x packing the variables.

    Constraint j becomes the slack ``F_j(x) - (b_j + t) I``, affine in z, with
    ``b_j`` its required margin.  The 1x1 constraints form the linear
    inequalities ``c + G z > 0``, stacked as ``c`` (N, P) and ``G`` (N, P, k).
    The larger ones are padded with an identity block to the largest size
    ``n`` and stacked as constants ``C`` (N, J, n, n) and derivatives ``D``
    (N, J, k, n, n), the last derivative being the ``-I`` of t; a padded
    block adds nothing to the barrier.
    """

    def __init__(self, problems, target_margins):
        self.variables = list(problems[0].variables)
        ends = np.cumsum([v.dof for v in self.variables]).tolist()
        self.offsets = {v.name: end - v.dof for v, end in zip(self.variables, ends)}
        self.dim = d = ends[-1]
        dims = [c.expr.dim for c in problems[0].constraints]
        N, J, n = len(problems), len(dims), max(dims)
        # The identity of each slack's own block, zero on its padding.
        eye = np.eye(n) * (np.arange(n) < np.array(dims)[:, None])[:, None, :]
        K = np.zeros((N, J, n, n))
        D = np.zeros((N, J, d + 1, n, n))
        D[:, :, d] = -eye
        bases = {v.name: v.basis() for v in self.variables}
        for i, p in enumerate(problems):
            for j, c in enumerate(p.constraints):
                e, s = c.normalized_expr(), dims[j]
                K[i, j, :s, :s] = e.constant
                for t in e.terms:   # each term at every basis matrix at once
                    o = self.offsets[t.var]
                    D[i, j, o : o + len(bases[t.var]), :s, :s] += t.apply(bases[t.var])
        # Symmetric variables start at this multiple of the identity.
        self.start_scale = np.mean(1.0 + abs(K).max(axis=(2, 3)), axis=1)
        # Barrier parameter: total slack dimension plus one for the norm bound.
        self.degree = 1 + sum(dims)
        margins = np.array([_required_margins(p, m) for p, m in zip(problems, target_margins)])
        C = K - margins[:, :, None, None] * eye + (np.eye(n) - eye)
        linear = [j for j, s in enumerate(dims) if s == 1]
        blocks = [j for j, s in enumerate(dims) if s > 1]
        self.linear = (C[:, linear, 0, 0], D[..., 0, 0][:, linear]) if linear else None
        self.blocks = (C[:, blocks], D[:, blocks]) if blocks else None
        # E @ trace_weights sums the traces of the whitened derivatives.
        self.trace_weights = np.concatenate(
            [np.ones(len(linear)), np.tile(np.eye(n).reshape(-1), len(blocks))])

    def take(self, rows):
        """The compiled problems ``rows`` (indices or a mask)."""
        out = copy.copy(self)
        out.start_scale = self.start_scale[rows]
        out.linear = None if self.linear is None else tuple(a[rows] for a in self.linear)
        out.blocks = None if self.blocks is None else tuple(a[rows] for a in self.blocks)
        return out

    def unpack(self, x):
        """The assignments of the rows of x (N, d)."""
        values = {v.name: v.unpack(x[:, self.offsets[v.name] : self.offsets[v.name] + v.dof])
                  for v in self.variables}
        return [{name: V[i] for name, V in values.items()} for i in range(len(x))]

    def start(self, initials):
        """Start points (N, d): the warm starts, else scaled identities for
        symmetric variables and zero for rectangular ones."""
        points = [initial if initial is not None else
                  {v.name: scale * np.eye(v.shape[0]) if v.kind == "symmetric"
                   else np.zeros(v.shape) for v in self.variables}
                  for initial, scale in zip(initials, self.start_scale)]
        return np.concatenate([v.pack(np.array([np.atleast_2d(p[v.name]) for p in points]))
                               for v in self.variables], axis=1)

    def whitened(self, z, trial):
        """``(ok, E, g)`` at the points z (N, k) of the problems ``trial`` marks:
        ``ok`` marks the points inside every slack's domain, and for those only
        row k of ``E[i]`` stacks ``L^-1 D_k L^-T`` over every slack ``L L^T``
        (the barrier's Hessian is ``E[i] E[i]^T``) and g is its gradient.
        """
        ok = trial
        if np.count_nonzero(ok) == len(ok):
            if self.linear is not None:
                c, G = self.linear
                s = c + (G @ z[:, :, None])[:, :, 0]
                ok = (s > 0).all(axis=1)
            if self.blocks is not None:
                C, D = self.blocks
                N, J, k, n, _ = D.shape
                S = C + (z[:, None, None] @ D.reshape(N, J, k, n * n)).reshape(N, J, n, n)
                try:
                    L = np.linalg.cholesky(S.reshape(-1, n, n))
                except np.linalg.LinAlgError:   # find the points outside, one by one
                    ok = ok & np.array([_has_cholesky(Si) for Si in S])
        if np.count_nonzero(ok) < len(ok):
            found = ok.copy()
            found[ok], E, g = self.take(ok).whitened(z[ok], ok[ok])
            return found, E, g
        cols = []
        if self.linear is not None:
            cols.append((G / s[:, :, None]).swapaxes(1, 2))
        if self.blocks is not None:
            # The N * J blocks as one flat stack: numpy's 4-D matmul costs less.
            Li = np.linalg.inv(L)[:, None]
            W = Li @ D.reshape(-1, k, n, n) @ Li.swapaxes(2, 3)
            cols.append(W.reshape(N, J, k, n, n).swapaxes(1, 2).reshape(N, k, J * n * n))
        E = cols[0] if len(cols) == 1 else np.concatenate(cols, axis=2)
        return ok, E, -(E @ self.trace_weights)


def _has_cholesky(S):
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def _dot(a, b):   # row-wise dot products of two (N, m) arrays
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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
    Vandenberghe 2004, sec. 11.3-11.6).  The N problems of ``compiled`` (one
    row each of x0 and of t0, mu and max_steps) run in lockstep, each with
    its own t, mu, damping, line search and step count.  A problem stops as
    soon as t > 0, once the duality gap ``degree / mu`` of a centered point
    is below the verification slack, or after ``max_steps`` steps, and
    leaves the loop.  Returns the last points (N, d + 1) and the step counts.
    """
    d = compiled.dim
    z = np.concatenate([x0, t0[:, None]], axis=1)
    steps = np.zeros(len(z), dtype=int)
    xx = _dot(x0, x0)   # |x|^2 at each point, carried along
    rho2 = (BALL_FACTOR * (1.0 + np.sqrt(xx))) ** 2
    ok, E, g = compiled.whitened(z, max_steps > 0)   # not ok: rounding put z0 on the edge
    live = np.flatnonzero(ok)
    compiled = compiled.take(live)
    zl, xx, mu, rho2, cap = z[live], xx[live], mu[live], rho2[live], max_steps[live]
    eye = np.eye(d)
    it = 0   # Newton iterations so far; a live problem has moved in each
    while live.size:
        x = zl[:, :d]
        r = rho2 - xx
        w = 2.0 / r
        H = E @ E.swapaxes(1, 2)
        H[:, :d, :d] += (w[:, None, None] * eye
                         + (4.0 / r**2)[:, None, None] * (x[:, :, None] * x[:, None, :]))
        g[:, :d] += w[:, None] * x
        g[:, d] -= mu
        step = np.linalg.solve(H, g[:, :, None])[:, :, 0]   # minus the Newton step
        lam2 = _dot(g, step)
        # Full steps once the decrement is below 1/4, where Newton converges
        # quadratically; damped steps 1/(1 + lambda) before that keep a
        # self-concordant barrier inside its domain.  Halving only guards
        # against rounding at the boundary; a problem whose every trial
        # point fails is pinned there.
        alpha = 1.0 / (1.0 + np.sqrt(np.maximum(lam2, 0.0625)))
        alpha[lam2 < 0.0625] = 1.0
        search = alpha > MIN_STEP
        moved = None   # None: every problem took its first trial step
        while True:
            z_new = zl - alpha[:, None] * step
            xx_new = _dot(z_new[:, :d], z_new[:, :d])
            ok, E_ok, g_ok = compiled.whitened(z_new, search & (xx_new < rho2))
            if moved is None and np.count_nonzero(ok) == len(ok):
                zl, xx, E, g = z_new, xx_new, E_ok, g_ok
                break
            zl[ok], xx[ok], E[ok], g[ok] = z_new[ok], xx_new[ok], E_ok, g_ok
            moved = ok if moved is None else moved | ok
            search &= ~ok
            alpha[search] *= 0.5
            search &= alpha > MIN_STEP
            if not np.count_nonzero(search):
                break
        it += 1
        done = (zl[:, d] > 0) | (cap <= it)
        if moved is not None:
            done |= ~moved
        centered = lam2 < CENTERED
        if np.count_nonzero(centered):
            centered &= ~done
            done |= centered & (compiled.degree / mu < VERIFY_SLACK)
            mu[centered] *= PATH_GROWTH
        if np.count_nonzero(done):
            z[live[done]] = zl[done]
            steps[live[done]] = it if moved is None else it - 1 + moved[done]
            state = (live, zl, xx, mu, rho2, cap, E, g)
            live, zl, xx, mu, rho2, cap, E, g = (a[~done] for a in state)
            compiled = compiled.take(~done)
    return z, steps


def judge(problem, assignment, target_margin=None, iterations=0):
    """Verify an assignment and wrap it as a solution: ``Verified`` when every
    constraint passes :func:`verify`, ``Unknown`` otherwise."""
    return _judge_all([problem], [assignment], [target_margin], [iterations])[0]


def _judge_all(problems, assignments, target_margins, iterations):
    """:func:`judge` of many assignments by one :func:`_verify_all`."""
    reports = _verify_all(problems, assignments, target_margins)
    return [LmiSolution(assignment=a, reports=r, iterations=int(steps),
                        achieved_margin=float(min(c.min_eig - c.required for c in r)),
                        status="Verified" if all(c.ok for c in r) else "Unknown")
            for a, r, steps in zip(assignments, reports, iterations)]


def solve(problem, options=None):
    """Search for a verified feasible assignment by the phase-I barrier method.

    Deterministic.  Returns Verified only when :func:`verify` passes on every
    constraint; otherwise Unknown (never an infeasibility claim).
    """
    return _solve_all([problem], [options or SolveOptions()])[0]


def _solve_all(problems, options):
    """:func:`solve` of each problem: problems that share their variables and
    constraint sizes are compiled as one stack, judged by one :func:`_verify_all`
    at their start points and one at their results, and searched in lockstep."""
    sols, groups = [None] * len(problems), {}
    for i, p in enumerate(problems):
        key = (tuple(p.variables), tuple(c.expr.dim for c in p.constraints))
        groups.setdefault(key, []).append(i)
    for rows in groups.values():
        probs, opts = [problems[i] for i in rows], [options[i] for i in rows]
        margins = [o.target_margin for o in opts]
        compiled = _Compiled(probs, margins)
        x0 = compiled.start([o.initial for o in opts])
        found = _judge_all(probs, compiled.unpack(x0), margins, [0] * len(rows))
        # A start point that misses some margin has a negative worst slack s0.
        todo = [j for j, sol in enumerate(found) if not sol.verified]
        s0 = np.array([found[j].achieved_margin for j in todo])
        gap = START_GAP * abs(s0)
        z, steps = _phase_one(compiled.take(todo), x0[todo], s0 - gap, compiled.degree / gap,
                              np.array([opts[j].max_iters for j in todo], dtype=int))
        redone = _judge_all([probs[j] for j in todo], compiled.unpack(z[:, :-1]),
                            [margins[j] for j in todo], steps)
        for j, sol in zip(todo, redone):
            found[j] = sol
        for i, sol in zip(rows, found):
            sols[i] = sol
    return sols
