"""Dissipative state-feedback synthesis for linear DT nodes.

Three entry points:

* :func:`primal_control` fixes the supply triple (Q < 0 required) and solves
  a four-block LMI in (P, Z); the gain is K = Z P^{-1} and the storage
  matrix P^{-1}.
* :func:`dual_control` fixes the blockwise-inverted (dual) triple and solves
  the smaller three-block LMI, recovering the primal triple afterwards.
* :func:`joint_decentralized_synthesis` solves the dual LMI together with
  one of the per-node degree-bound variants, treating the dual triple
  itself as a decision variable, so the returned controller simultaneously
  certifies node dissipativity and network stability under Laplacian
  coupling.

Every returned certificate has passed the independent closed-loop
dissipation check; a failed search returns None, never an infeasibility
claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissipativity import (
    DualSupplyRate,
    StorageCertificate,
    SupplyRate,
    closed_loop_dissipation_gap,
    primalize_supply,
)
from .lmi import (
    BlockForm,
    LmiConstraint,
    LmiProblem,
    MatrixVariable,
    SolveOptions,
    _judge_all,
    _solve_all,
)
from .matrix_core import definiteness, eig_sym, symmetrize
from .network import _all_hold, _validated_bounds, dual_decentralized_check

__all__ = [
    "SynthesisRequest",
    "SynthesisOptions",
    "primal_control",
    "dual_control",
    "joint_decentralized_synthesis",
]

# Trace cap on the dual R variable in joint solves; removes the unbounded
# scaling direction of the dual triple.  An artifact normalization, not a
# modelling assumption.
TRACE_CAP_FACTOR = 1e6


@dataclass(frozen=True)
class SynthesisOptions:
    """``max_iters`` caps the solver's Newton steps.  ``seed`` is accepted for
    compatibility and has no effect: the solver is deterministic."""

    seed: int = 0
    max_iters: int = 3000
    margin: float = None          # None: 1e-6 relative to constant norms
    check_tol: float = 1e-8       # absolute tolerance of the closed-loop check


@dataclass(frozen=True)
class SynthesisRequest:
    """Declarative synthesis job.

    ``mode`` is one of ``primal`` (fixed supply), ``dual`` (fixed dual
    supply) or ``joint`` (decentralized variant a-d with its parameters);
    :meth:`run` dispatches to the matching entry point.
    """

    mode: str
    supply: SupplyRate = None
    dual_supply: DualSupplyRate = None
    variant: str = None
    degree: float = None
    alpha: float = None
    s_shared: np.ndarray = None

    def __post_init__(self):
        if self.mode not in ("primal", "dual", "joint"):
            raise ValueError(f"unknown synthesis mode {self.mode!r}")
        if self.mode == "primal" and self.supply is None:
            raise ValueError("primal mode needs a supply triple")
        if self.mode == "dual" and self.dual_supply is None:
            raise ValueError("dual mode needs a dual supply triple")
        if self.mode == "joint" and (self.variant is None or self.degree is None):
            raise ValueError("joint mode needs a variant and a weighted degree")

    def run(self, node, options=None):
        if self.mode == "primal":
            return primal_control(node, self.supply, options)
        if self.mode == "dual":
            return dual_control(node, self.dual_supply, options)
        return joint_decentralized_synthesis(
            node, self.variant, self.degree,
            alpha=self.alpha, s_shared=self.s_shared, options=options,
        )


def _auto_margin(consts):
    scale = max(float(np.max(np.abs(c))) for c in consts)
    return 1e-6 * (1.0 + scale)


def _solve_with_margin_fallback(problems, consts, options, initials):
    """Solve each problem once at its relative margin, all in lockstep; a
    point that falls short is judged again at a tighter and at a zero margin.
    None stands for a problem with no verified point.

    Boundary-feasible problems (the dissipation inequality can hold with
    equality only) verify only at margin zero.
    """
    bases = [options.margin if options.margin is not None else _auto_margin(c)
             for c in consts]
    sols = _solve_all(problems, [SolveOptions(options.max_iters, base, initial)
                                 for base, initial in zip(bases, initials)])
    for factor in [] if options.margin is not None else [1e-3, 0.0]:
        todo = [i for i, sol in enumerate(sols) if not sol.verified]
        redone = _judge_all([problems[i] for i in todo], [sols[i].assignment for i in todo],
                            [bases[i] * factor for i in todo],
                            [sols[i].iterations for i in todo])
        for i, sol in zip(todo, redone):
            sols[i] = sol
    return [sol if sol.verified else None for sol in sols]


def _invert_pd(P, name="P"):
    w, V = eig_sym(P, name=name)
    if w[0] <= 0:
        raise ValueError(f"{name} is not positive definite (min eig {w[0]:.3e})")
    return symmetrize((V * (1.0 / w)) @ V.T)


def _certificate(node, sr, P, Z, check_tol, variant, dual_supply=None):
    storage = _invert_pd(P)
    K = Z @ storage
    gap = closed_loop_dissipation_gap(node, K, sr, storage)
    if gap > check_tol:
        return None
    return StorageCertificate(
        P=symmetrize(P),
        storage_matrix=storage,
        K=K,
        supply=sr,
        margin=float(-gap),
        variant=variant,
        dual_supply=dual_supply,
    )


def _require_dt_no_feedthrough(node):
    if node.time_domain != "dt":
        raise ValueError("synthesis is defined for DT nodes")
    if node.has_feedthrough:
        raise ValueError("synthesis assumes feedthrough-free nodes")


def primal_control(node, sr, options=None):
    """Synthesize K so the closed loop is dissipative for the fixed triple.

    Requires Q < 0.  Solves, over P symmetric and Z rectangular,

        [[P,  A P + B Z,  G,        0    ],
         [*,  P,          P C' S,   P C' ],
         [*,  *,          R,        0    ],
         [*,  *,          *,       -inv(Q)]]  >=  margin I,   P >= margin I,

    and returns a certificate with K = Z P^{-1} once the independent
    closed-loop check passes.  Returns None when no verified point is found.
    """
    options = options or SynthesisOptions()
    _require_dt_no_feedthrough(node)
    if sr.p != node.p or sr.m != node.m:
        raise ValueError("supply dimensions do not match the node")
    vq = definiteness(sr.Q, "ND")
    if not vq.satisfied:
        raise ValueError(
            f"primal synthesis requires Q < 0 (max eig {vq.max_eig:.3e})"
        )
    Q_tilde = -_invert_pd(-sr.Q, name="-Q")
    n, r, m, p = node.n, node.r, node.m, node.p

    form = BlockForm([n, n, m, p])
    form.put_var(0, 0, "P")
    form.put_var(0, 1, "P", left=node.A)
    form.put_var(0, 1, "Z", left=node.B)
    form.put_const(0, 2, node.G)
    form.put_var(1, 1, "P")
    form.put_var(1, 2, "P", right=node.C.T @ sr.S)
    form.put_var(1, 3, "P", right=node.C.T)
    form.put_const(2, 2, sr.R)
    form.put_const(3, 3, -Q_tilde)
    design = form.expr()
    pos = BlockForm([n]).put_var(0, 0, "P")
    problem = LmiProblem(
        variables=[
            MatrixVariable("P", (n, n), "symmetric"),
            MatrixVariable("Z", (r, n), "rectangular"),
        ],
        constraints=[
            LmiConstraint(design, "geq", name="dissipative_design"),
            LmiConstraint(pos.expr(), "geq", name="P_pd"),
        ],
    )
    sol = _solve_with_margin_fallback([problem], [[design.constant]], options, [None])[0]
    if sol is None:
        return None
    return _certificate(
        node, sr, sol.assignment["P"], sol.assignment["Z"], options.check_tol,
        variant="fixed",
    )


def _dual_form(node, Sd_fixed=None, Qd_fixed=None, Rd_fixed=None):
    """Three-block dual design LMI; dual triple entries are either fixed
    matrices or left as variables named Qd / Sd / Rd."""
    n, p = node.n, node.p
    form = BlockForm([n, n, p])
    form.put_var(0, 0, "P")
    form.put_var(0, 1, "P", right=node.A.T)
    form.put_var(0, 1, "Z", right=node.B.T, transpose=True)
    form.put_var(0, 2, "P", right=node.C.T)
    form.put_var(1, 1, "P")
    if Rd_fixed is not None:
        form.put_const(1, 1, -node.G @ Rd_fixed @ node.G.T)
    else:
        form.put_var(1, 1, "Rd", left=-node.G, right=node.G.T)
    if Sd_fixed is not None:
        form.put_const(1, 2, node.G @ Sd_fixed.T)
    else:
        form.put_var(1, 2, "Sd", left=node.G, transpose=True)
    if Qd_fixed is not None:
        form.put_const(2, 2, -Qd_fixed)
    else:
        form.put_var(2, 2, "Qd", scale=-1.0)
    return form


def dual_control(node, dsr, options=None):
    """Synthesize K for a fixed dual triple (dual Q < 0, dual R > 0).

    Solves, over P symmetric and Z rectangular,

        [[P,  (A P + B Z)',  P C'  ],
         [*,  P - G Rd G',   G Sd' ],
         [*,  *,            -Qd    ]]  >=  margin I,   P >= margin I.

    The primal triple is recovered by blockwise inversion and the returned
    certificate carries it, verified through the closed-loop check.
    """
    options = options or SynthesisOptions()
    _require_dt_no_feedthrough(node)
    if dsr.p != node.p or dsr.m != node.m:
        raise ValueError("dual supply dimensions do not match the node")
    if not definiteness(dsr.Q, "ND").satisfied:
        raise ValueError("dual synthesis requires dual Q < 0")
    if not definiteness(dsr.R, "PD").satisfied:
        raise ValueError("dual synthesis requires dual R > 0")
    n, r = node.n, node.r

    design = _dual_form(node, Sd_fixed=dsr.S, Qd_fixed=dsr.Q, Rd_fixed=dsr.R).expr()
    pos = BlockForm([n]).put_var(0, 0, "P")
    problem = LmiProblem(
        variables=[
            MatrixVariable("P", (n, n), "symmetric"),
            MatrixVariable("Z", (r, n), "rectangular"),
        ],
        constraints=[
            LmiConstraint(design, "geq", name="dual_design"),
            LmiConstraint(pos.expr(), "geq", name="P_pd"),
        ],
    )
    sol = _solve_with_margin_fallback([problem], [[design.constant]], options, [None])[0]
    if sol is None:
        return None
    primal = primalize_supply(dsr)
    return _certificate(
        node, primal, sol.assignment["P"], sol.assignment["Z"], options.check_tol,
        variant="fixed", dual_supply=dsr,
    )


def _dual_bound(bound, p):
    """A degree bound on (Q, S, R) as a constraint on the dual triple, through
    (Q, S, R) = (-Rd, Sd', -Qd)."""
    form = BlockForm([p])
    for var, scale in (("Rd", -bound.cq), ("Qd", -bound.cr), ("Sd", bound.cs)):
        if scale:
            form.put_var(0, 0, var, scale=scale)
    form.put_const(0, 0, bound.c0 * np.eye(p))
    return LmiConstraint(form.expr(), "geq", name=bound.name,
                         margin=None if bound.strict else 0.0)


def joint_decentralized_synthesis(node, variant, degree, alpha=None,
                                  s_shared=None, options=None):
    """Controller plus dual supply triple satisfying a degree-bound variant.

    Pairs the dual design LMI with the decentralized bounds of the chosen
    variant (a-d), all linear in (P, Z, Qd, Sd, Rd).  For variants a and b
    the dual S block is fixed by the shared parameter; for c and d it is a
    symmetric decision variable.  The trace of the dual R variable is capped
    at ``TRACE_CAP_FACTOR * degree`` to remove the free scaling direction.

    Returns (certificate, dual_supply) on success, None otherwise.  The
    certificate's supply is the blockwise-inverted primal triple and has
    passed the closed-loop check; the dual triple has passed
    :func:`dissinet.network.dual_decentralized_check`.
    """
    return _joint_synthesis_all([node], variant, [degree], alpha, s_shared, options)[0]


def _joint_synthesis_all(nodes, variant, degrees, alpha=None, s_shared=None,
                         options=None):
    """:func:`joint_decentralized_synthesis` of each node, solved in lockstep."""
    options = options or SynthesisOptions()
    jobs = [_joint_problem(node, variant, degree, alpha, s_shared)
            for node, degree in zip(nodes, degrees)]
    sols = _solve_with_margin_fallback([j[0] for j in jobs], [j[1] for j in jobs],
                                       options, [j[2] for j in jobs])
    return [None if sol is None else
            _joint_result(node, sol, job[3], variant, degree, alpha, s_shared, options)
            for node, degree, job, sol in zip(nodes, degrees, jobs, sols)]


def _joint_problem(node, variant, degree, alpha, s_shared):
    """One node's joint LMI: (problem, margin constants, warm start, pinned Sd)."""
    _require_dt_no_feedthrough(node)
    Sd_fixed, bounds = _validated_bounds(variant, degree, node.m, node.p,
                                         alpha, s_shared)
    zero = np.zeros((node.m, node.m))
    if Sd_fixed is not None and not _all_hold(
            [b for b in bounds if b.on_s_only], zero, Sd_fixed, zero):
        raise ValueError(f"variant {variant!r} needs s_shared >= 0")

    n, r, m, p = node.n, node.r, node.m, node.p
    eye = np.eye(p)
    design = _dual_form(node, Sd_fixed=Sd_fixed).expr()
    variables = [
        MatrixVariable("P", (n, n), "symmetric"),
        MatrixVariable("Z", (r, n), "rectangular"),
        MatrixVariable("Qd", (p, p), "symmetric"),
        MatrixVariable("Rd", (m, m), "symmetric"),
    ]
    if Sd_fixed is None:
        variables.append(MatrixVariable("Sd", (p, p), "symmetric"))
    constraints = [
        LmiConstraint(design, "geq", name="dual_design"),
        LmiConstraint(BlockForm([n]).put_var(0, 0, "P").expr(), "geq",
                      name="P_pd"),
        LmiConstraint(BlockForm([p]).put_var(0, 0, "Qd", scale=-1.0).expr(),
                      "geq", name="Qd_nd"),
        LmiConstraint(BlockForm([m]).put_var(0, 0, "Rd").expr(), "geq",
                      name="Rd_pd"),
    ]
    for b in bounds:
        # R > 0 is Qd_nd above; a pinned S was checked up front.
        if (b.cq == b.cs == b.c0 == 0.0) or (Sd_fixed is not None and b.on_s_only):
            continue
        constraints.append(_dual_bound(b, p))
    trace_cap = BlockForm([1]).put_const(0, 0, [[TRACE_CAP_FACTOR * degree]])
    for k in range(m):
        e_k = np.zeros((1, m))
        e_k[0, k] = 1.0
        trace_cap.put_var(0, 0, "Rd", left=e_k, right=e_k.T, scale=-1.0)
    constraints.append(
        LmiConstraint(trace_cap.expr(), "geq", margin=0.0, name="Rd_trace_cap")
    )
    problem = LmiProblem(variables=variables, constraints=constraints)

    # Warm start at the center of the dual-variable windows; P small on the
    # scale the Qd window allows through the output coupling.
    initial = {
        "P": np.eye(n) / (8.0 * degree),
        "Z": np.zeros((r, n)),
        "Qd": -eye / (4.0 * degree),
        "Rd": (2.0 * degree * max(1.0 - (alpha or 0.0), 0.0) + 1.0) * np.eye(m)
        if variant == "a"
        else (4.0 * degree + 1.0) * np.eye(m),
    }
    if Sd_fixed is None:
        initial["Sd"] = eye / (6.0 * degree)

    return problem, [design.constant, eye / (2.0 * degree)], initial, Sd_fixed


def _joint_result(node, sol, Sd_fixed, variant, degree, alpha, s_shared, options):
    """(certificate, dual triple) of a verified joint solution, or None."""
    Qd = symmetrize(sol.assignment["Qd"])
    Rd = symmetrize(sol.assignment["Rd"])
    Sd = Sd_fixed if Sd_fixed is not None else symmetrize(sol.assignment["Sd"])
    dsr = DualSupplyRate(Qd, Sd, Rd)
    if not dual_decentralized_check(degree, dsr, variant, alpha=alpha,
                                    s_shared=s_shared):
        return None
    primal = primalize_supply(dsr)
    cert = _certificate(
        node, primal, sol.assignment["P"], sol.assignment["Z"], options.check_tol,
        variant=variant, dual_supply=dsr,
    )
    if cert is None:
        return None
    return cert, dsr
