"""Interconnections of dissipative nodes: stability conditions and simulation.

The central object is the coupled update x+ = f(x, H y) where H stacks a
linear interconnection of the per-node outputs.  When every node is
(Q_i, S_i, R_i)-dissipative, negative definiteness of

    M = Q + S H + H' S' + H' R H       (block-diagonal Q, S, R)

makes the sum of the node storages a Lyapunov function for the network, and
the positive-definite dual form built from the blockwise-inverted triples
certifies exactly the same property.  For Laplacian couplings, per-node
degree bounds (four variants, labelled a-d) imply the global condition
without any coordination beyond scalar parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .dissipativity import LinearNode, SupplyRate
from .graph import WeightedGraph, laplacian_bundle
from .matrix_core import (
    _per_shape,
    block_diag,
    definiteness,
    default_eig_tol,
    eig_general,
    eig_sym,
    kron,
    pinv_sym_psd,
    require_finite,
    require_symmetric,
    sign_tol,
    symmetrize,
)

__all__ = [
    "Interconnection",
    "NonlinearNode",
    "NetworkModel",
    "build_H",
    "global_condition",
    "dual_global_condition",
    "decentralized_check",
    "dual_decentralized_check",
    "comparison_conditions",
    "qmi_nonempty_check",
    "assemble_closed_loop",
    "StabilityReport",
    "stability_report",
    "Trajectory",
    "simulate",
    "storage_decrease_check",
]


@dataclass(frozen=True)
class Interconnection:
    """Linear interconnection u = H y.

    Kinds:

    * ``general``: explicit H.
    * ``laplacian``: H = -(L (x) I_block) from an undirected weighted graph.
    * ``skew``: H = (A - A') (x) I_block from a directed adjacency matrix;
      degenerates to zero (with a warning) for symmetric input.
    * ``feedback2``: the two-node loop [[0, I], [I, 0]].
    """

    kind: str
    H: np.ndarray = None
    graph: WeightedGraph = None
    block: int = 1
    adjacency: np.ndarray = None

    @classmethod
    def general(cls, H):
        return cls(kind="general", H=np.atleast_2d(require_finite(H, "H")))

    @classmethod
    def laplacian(cls, graph, block=1):
        return cls(kind="laplacian", graph=graph, block=int(block))

    @classmethod
    def skew(cls, adjacency, block=1):
        return cls(
            kind="skew",
            adjacency=np.atleast_2d(require_finite(adjacency, "adjacency")),
            block=int(block),
        )

    @classmethod
    def feedback2(cls, m=1):
        return cls(kind="feedback2", block=int(m))

    def to_json_dict(self):
        if self.kind == "general":
            return {"kind": "general", "H": self.H.tolist()}
        if self.kind == "laplacian":
            return {"kind": "laplacian", "graph": self.graph.to_json_dict(),
                    "block": self.block}
        if self.kind == "skew":
            return {"kind": "skew", "adjacency": self.adjacency.tolist(),
                    "block": self.block}
        return {"kind": "feedback2", "m": self.block}

    @classmethod
    def from_json_dict(cls, d):
        kind = d["kind"]
        if kind == "general":
            return cls.general(d["H"])
        key = "m" if kind == "feedback2" else "block"
        block = d.get(key, 1)
        if isinstance(block, bool) or not isinstance(block, int) or block < 1:
            raise ValueError(f"interconnection {key!r} must be a positive integer, "
                             f"got {block!r}")
        if kind == "laplacian":
            return cls.laplacian(WeightedGraph.from_json_dict(d["graph"]), block)
        if kind == "skew":
            return cls.skew(d["adjacency"], block)
        if kind == "feedback2":
            return cls.feedback2(block)
        raise ValueError(f"unknown interconnection kind {kind!r}")


def build_H(ic, n_nodes=None, m=None):
    """Materialize the interconnection matrix."""
    if ic.kind == "general":
        return ic.H.copy()
    if ic.kind == "laplacian":
        b = laplacian_bundle(ic.graph)
        return -kron(b.laplacian, np.eye(ic.block))
    if ic.kind == "skew":
        A = ic.adjacency
        skew_part = A - A.T
        if np.max(np.abs(skew_part)) <= 1e-14 * (1.0 + np.max(np.abs(A))):
            warnings.warn(
                "skew interconnection of a symmetric adjacency is identically zero",
                stacklevel=2,
            )
        return kron(skew_part, np.eye(ic.block))
    if ic.kind == "feedback2":
        if n_nodes is not None and n_nodes != 2:
            raise ValueError("feedback2 interconnection needs exactly two nodes")
        eye = np.eye(ic.block)
        zero = np.zeros((ic.block, ic.block))
        return np.block([[zero, eye], [eye, zero]])
    raise ValueError(f"unknown interconnection kind {ic.kind!r}")


@dataclass(frozen=True)
class NonlinearNode:
    """Caller-supplied node x+ = update(x, u), y = output(x), fixing the origin.

    The maps are spot-checked at construction (update(0, 0) = 0 and
    output(0) = 0); the caller asserts dissipativity properties separately.
    """

    state_dim: int
    input_dim: int
    output_dim: int
    update: callable = field(compare=False)
    output: callable = field(compare=False)

    def __post_init__(self):
        x0 = np.zeros(self.state_dim)
        u0 = np.zeros(self.input_dim)
        xn = np.asarray(self.update(x0, u0), dtype=float).reshape(-1)
        if xn.size != self.state_dim or np.max(np.abs(xn), initial=0.0) > 1e-12:
            raise ValueError("update map must fix the origin: update(0, 0) = 0")
        y0 = np.asarray(self.output(x0), dtype=float).reshape(-1)
        if y0.size != self.output_dim or np.max(np.abs(y0), initial=0.0) > 1e-12:
            raise ValueError("output map must fix the origin: output(0) = 0")

    @property
    def n(self):
        return self.state_dim

    @property
    def m(self):
        return self.input_dim

    @property
    def p(self):
        return self.output_dim


@dataclass
class NetworkModel:
    """Nodes plus interconnection, optionally with controllers and certificates."""

    nodes: list
    interconnection: Interconnection
    supplies: list = None
    controllers: list = None
    certificates: list = None

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("network needs at least one node")
        m_total = sum(node.m for node in self.nodes)
        p_total = sum(node.p for node in self.nodes)
        H = build_H(self.interconnection, n_nodes=len(self.nodes),
                    m=self.nodes[0].m)
        if H.shape != (m_total, p_total):
            raise ValueError(
                f"interconnection is {H.shape}, nodes need {m_total}x{p_total}"
            )
        if self.supplies is not None and len(self.supplies) != len(self.nodes):
            raise ValueError("one supply rate per node required")
        if self.controllers is not None and len(self.controllers) != len(self.nodes):
            raise ValueError("one controller entry per node required")
        if self.certificates is not None and len(self.certificates) != len(self.nodes):
            raise ValueError("one certificate entry per node required")

    @property
    def n_nodes(self):
        return len(self.nodes)

    def H(self):
        return build_H(self.interconnection, n_nodes=len(self.nodes),
                       m=self.nodes[0].m)

    def to_json_dict(self):
        d = {
            "nodes": [
                node.to_json_dict() if isinstance(node, LinearNode)
                else {"nonlinear": True, "n": node.n, "m": node.m, "p": node.p}
                for node in self.nodes
            ],
            "interconnection": self.interconnection.to_json_dict(),
        }
        if self.supplies is not None:
            d["supplies"] = [s.to_json_dict() for s in self.supplies]
        if self.controllers is not None:
            d["controllers"] = [
                None if K is None else np.atleast_2d(np.asarray(K)).tolist()
                for K in self.controllers
            ]
        return d

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict) or not isinstance(d.get("interconnection"), dict):
            raise ValueError("network must be an object with an 'interconnection' object")
        for key, kind, what in (("nodes", dict, "objects"), ("supplies", dict, "objects"),
                                ("controllers", (list, type(None)), "matrices")):
            items = d.get(key, [])
            if not isinstance(items, list) or not all(isinstance(x, kind) for x in items):
                raise ValueError(f"network {key!r} must be a list of {what}")
        nodes = []
        for nd in d["nodes"]:
            if nd.get("nonlinear"):
                raise ValueError(
                    "nonlinear nodes cannot be reconstructed from JSON; "
                    "build them in code"
                )
            nodes.append(LinearNode.from_json_dict(nd))
        supplies = None
        if "supplies" in d:
            supplies = [SupplyRate.from_json_dict(s) for s in d["supplies"]]
        controllers = None
        if "controllers" in d:
            controllers = [
                None if K is None else np.atleast_2d(np.array(K, dtype=float))
                for K in d["controllers"]
            ]
        return cls(
            nodes=nodes,
            interconnection=Interconnection.from_json_dict(d["interconnection"]),
            supplies=supplies,
            controllers=controllers,
        )


def global_condition(supplies, H, tol=None):
    """Network stability test: M = Q + SH + H'S' + H'RH must be ND.

    Q, S, R are block-diagonal compositions of the per-node triples.
    Returns (M, verdict) so callers can inspect the margin.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Q = block_diag([s.Q for s in supplies])
    S = block_diag([s.S for s in supplies])
    R = block_diag([s.R for s in supplies])
    if H.shape != (R.shape[0], Q.shape[0]):
        raise ValueError(
            f"H must be {R.shape[0]}x{Q.shape[0]}, got {H.shape}"
        )
    M = symmetrize(Q + S @ H + H.T @ S.T + H.T @ R @ H)
    return M, definiteness(M, "ND", tol)


def dual_global_condition(dual_supplies, H, tol=None):
    """Dual form of the network test: H Qd H' - H Sd - Sd' H' + Rd must be PD.

    Requires blockwise dual Q < 0 and dual R > 0; under those signs the
    verdict coincides with :func:`global_condition` on the blockwise-inverted
    primal triples.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    signs = [_per_shape([getattr(s, key) for s in dual_supplies],
                        lambda M, mode=mode: definiteness(M, mode, tol).satisfied)
             for key, mode in (("Q", "ND"), ("R", "PD"))]
    for i, (q_ok, r_ok) in enumerate(zip(*signs)):
        if not (q_ok and r_ok):
            raise ValueError(f"dual supply {i} violates {'R > 0' if q_ok else 'Q < 0'}")
    Qd = block_diag([s.Q for s in dual_supplies])
    Sd = block_diag([s.S for s in dual_supplies])
    Rd = block_diag([s.R for s in dual_supplies])
    M = symmetrize(H @ Qd @ H.T - H @ Sd - Sd.T @ H.T + Rd)
    return M, definiteness(M, "PD", tol)


@dataclass(frozen=True)
class _Bound:
    """One degree bound ``cq Q + cs S + cr R + c0 I > 0`` (``>= 0`` when not
    strict).  ``name`` is the constraint the joint-synthesis LMI states it as;
    ``c0`` may be an array when alpha is."""

    name: str
    cq: float = 0.0
    cs: float = 0.0
    cr: float = 0.0
    c0: float = 0.0
    strict: bool = True

    @property
    def on_s_only(self):
        return self.cq == 0.0 and self.cr == 0.0

    def value(self, Q, S, R, eye):
        out = self.c0 * eye
        for c, X in ((self.cq, Q), (self.cs, S), (self.cr, R)):
            if c:
                out = out + c * X
        return out

    def holds_elementwise(self, Q, S, R):
        """The same decision on scalar triples, with the check's default
        tolerance; Q, S, R broadcast."""
        x = self.value(Q, S, R, 1.0)
        tol = sign_tol(x)
        return x > tol if self.strict else x > -tol


def _all_hold(rows, Q, S, R, tol=None):
    """Whether every bound holds, by one stacked definiteness call (PD if strict)."""
    if not rows:
        return True
    M = np.array([b.value(Q, S, R, np.eye(S.shape[0])) for b in rows])
    v = definiteness(0.5 * (M + M.swapaxes(1, 2)), "PSD", tol)
    return bool(np.all(np.where([b.strict for b in rows], v.kind == "PD", v.satisfied)))


def _bound_rows(variant, degree, alpha=None):
    """The degree bounds of one variant (see :func:`decentralized_check`), in
    the order the joint-synthesis LMI states them.  The one table behind the
    check, the joint synthesis and the region grid."""
    r_pd = _Bound("Qd_nd", cr=1.0)
    r_cap = _Bound("Qd_window", cr=-1.0, c0=1.0 / (2.0 * degree))
    s_psd = _Bound("Sd_psd", cs=1.0, strict=False)
    if variant == "a":
        floor = 2.0 * degree * np.maximum(1.0 - alpha, 0.0)
        return [r_pd, r_cap, _Bound("Rd_floor", cq=-1.0, c0=-floor)]
    if variant == "b":
        return [s_psd, r_pd, r_cap, _Bound("Rd_floor", cq=-1.0, c0=-2.0 * degree)]
    if variant == "c":
        return [r_pd, r_cap, s_psd,
                _Bound("Sd_cap", cs=-1.0, c0=1.0 / (3.0 * degree)),
                _Bound("Rd_floor", cq=-1.0, cs=-1.0, c0=-4.0 * degree)]
    if variant == "d":
        return [s_psd,
                _Bound("Qd_window", cr=-1.0, cs=-1.0, c0=1.0 / (2.0 * degree)),
                _Bound("Rd_vs_Sd", cq=-1.0, cs=-2.0),
                _Bound("Rd_floor", cq=-1.0, c0=-4.0 * degree)]
    raise ValueError(f"unknown variant {variant!r}")


def _validated_bounds(variant, degree, m, p, alpha=None, s_shared=None):
    """Validate a variant's parameters; returns (pinned S or None, bounds):
    variant a pins S = (alpha/2) I, variant b pins S = s_shared."""
    if degree <= 0:
        raise ValueError(f"weighted degree must be positive, got {degree}")
    if p != m:
        raise ValueError("degree bounds require square supply blocks (m = p)")
    S = None
    if variant == "a":
        if alpha is None:
            raise ValueError("variant 'a' needs the shared scalar alpha")
        S = 0.5 * alpha * np.eye(m)
    elif variant == "b":
        if s_shared is None:
            raise ValueError("variant 'b' needs the shared matrix s_shared")
        S = require_symmetric(s_shared, "s_shared")
        if S.shape != (m, m):
            raise ValueError(f"s_shared must be {m}x{m}, got {S.shape}")
    return S, _bound_rows(variant, degree, alpha)


def decentralized_check(degree, sr, variant, alpha=None, s_shared=None, tol=None):
    """Per-node degree bounds that imply the global condition under
    Laplacian coupling.

    Variants (d = weighted degree of the node, all blocks square):

    * a: S = (alpha/2) I,  0 < R < I/(2d),  Q < -2 d max(1-alpha, 0) I
    * b: S = s_shared >= 0 (same for all nodes),  0 < R < I/(2d),  Q < -2 d I
    * c: 0 <= S < I/(3d),  0 < R < I/(2d),  Q + S < -4 d I
    * d: S >= 0,  R + S < I/(2d),  Q < -2 S,  Q < -4 d I
    """
    S, rows = _validated_bounds(variant, degree, sr.m, sr.p, alpha, s_shared)
    if S is None:
        S = require_symmetric(sr.S, "S")
    else:
        eq_tol = tol if tol is not None else 1e-9 * (1.0 + float(np.max(np.abs(sr.S))))
        if float(np.max(np.abs(sr.S - S))) > eq_tol:
            return False
    return _all_hold(rows, sr.Q, S, sr.R, tol)


def dual_decentralized_check(degree, dsr, variant, alpha=None, s_shared=None,
                             tol=None):
    """Degree bounds in the dual triple; equivalent to
    :func:`decentralized_check` under (Q, S, R) = (-Rd, Sd', -Qd).

    Variants:

    * a: Sd = (alpha/2) I,  -I/(2d) < Qd < 0,  Rd > 2 d max(1-alpha, 0) I
    * b: Sd = s_shared >= 0,  -I/(2d) < Qd < 0,  Rd > 2 d I
    * c: 0 <= Sd < I/(3d),  -I/(2d) < Qd < 0,  Rd - Sd > 4 d I
    * d: Sd >= 0,  Qd - Sd > -I/(2d),  Rd > 2 Sd,  Rd > 4 d I
    """
    primal = SupplyRate(-dsr.R, dsr.S.T, -dsr.Q)
    return decentralized_check(degree, primal, variant, alpha=alpha,
                               s_shared=s_shared, tol=tol)


def comparison_conditions(bundle, which, Q_hat, R_hat, C=None, tol=None):
    """Virtual-output network conditions from the passivity literature.

    ``which`` selects the test:

    * ``"state_strict"``: C' L_ext C - C' L_ext' Rh L_ext C + Qh > 0, the
      condition from strict passivity with state-weighted rates (needs the
      stacked output map C).
    * ``"output_strict"``: L_ext - L_ext' Rh L_ext + Qh > 0, the C-free
      condition from output strict passivity.
    * ``"diagonal"``: per-node diagonal bounds
      0 < Rh_i < I/(2 d_i) and 0 < Qh_i < d_i I, which imply the
      output-strict condition.

    Q_hat and R_hat are per-node lists of symmetric blocks.
    """
    R_blocks = [require_symmetric(R, f"R_hat[{i}]") for i, R in enumerate(R_hat)]
    Q_blocks = [require_symmetric(Q, f"Q_hat[{i}]") for i, Q in enumerate(Q_hat)]
    if len(Q_blocks) != bundle.n_nodes or len(R_blocks) != bundle.n_nodes:
        raise ValueError("need one Q_hat and R_hat block per node")
    block = R_blocks[0].shape[0]
    L_ext = kron(bundle.laplacian, np.eye(block))
    Rh = block_diag(R_blocks)
    Qh = block_diag(Q_blocks)

    if which == "state_strict":
        if C is None:
            raise ValueError("state_strict comparison needs the stacked output map C")
        C = np.atleast_2d(np.asarray(C, dtype=float))
        if C.shape[0] != L_ext.shape[0]:
            raise ValueError(
                f"C must have {L_ext.shape[0]} rows, got {C.shape[0]}"
            )
        M = C.T @ L_ext @ C - C.T @ L_ext.T @ Rh @ L_ext @ C + Qh
        return definiteness(symmetrize(M), "PD", tol).satisfied
    if which == "output_strict":
        M = L_ext - L_ext.T @ Rh @ L_ext + Qh
        return definiteness(symmetrize(M), "PD", tol).satisfied
    if which == "diagonal":
        for i, (Qb, Rb) in enumerate(zip(Q_blocks, R_blocks)):
            if np.max(np.abs(Qb - np.diag(np.diag(Qb)))) > 1e-12:
                return False
            if np.max(np.abs(Rb - np.diag(np.diag(Rb)))) > 1e-12:
                return False
            d_i = bundle.degrees[i]
            eye = np.eye(Rb.shape[0])
            ok = (
                definiteness(Rb, "PD", tol).satisfied
                and definiteness(eye / (2.0 * d_i) - Rb, "PD", tol).satisfied
                and definiteness(Qb, "PD", tol).satisfied
                and definiteness(d_i * np.eye(Qb.shape[0]) - Qb, "PD", tol).satisfied
            )
            if not ok:
                return False
        return True
    raise ValueError(f"unknown comparison condition {which!r}")


def qmi_nonempty_check(supplies, tol=None):
    """Necessary condition for the global test to admit any interconnection:
    S' pinv(R) S - Q must be PD for the stacked block-diagonal triples."""
    Q = block_diag([s.Q for s in supplies])
    S = block_diag([s.S for s in supplies])
    R = block_diag([s.R for s in supplies])
    Rsym = symmetrize(R)
    w, _ = eig_sym(Rsym)
    if w[0] >= -default_eig_tol(w):
        R_pinv = pinv_sym_psd(Rsym)
    else:
        R_pinv = np.linalg.pinv(Rsym)
    M = symmetrize(S.T @ R_pinv @ S - Q)
    return definiteness(M, "PD", tol).satisfied


def _stacked_blocks(nodes, controllers):
    """The nodes' A_i + B_i K_i (A_i where K_i is None), G_i and C_i, each
    stacked block-diagonally as CSR, with zero blocks for a nonlinear node.
    Off-diagonal blocks are not stored, so a non-finite state never reaches
    another node's slice (as it would densely, through 0 * inf = NaN)."""
    blocks = [
        (node.closed_loop_a(K), node.G, node.C) if isinstance(node, LinearNode)
        else (np.zeros((node.n, node.n)), np.zeros((node.n, node.m)),
              np.zeros((node.p, node.n)))
        for node, K in zip(nodes, controllers, strict=True)
    ]
    return tuple(scipy.sparse.block_diag(column, format="csr") for column in zip(*blocks))


def assemble_closed_loop(nodes, controllers, H):
    """Global state matrix blockdiag(A_i + B_i K_i) + G H C of the coupled loop."""
    if len(controllers) != len(nodes):
        raise ValueError("one controller per node required")
    for i, (node, K) in enumerate(zip(nodes, controllers)):
        if not isinstance(node, LinearNode):
            raise ValueError(f"node {i} is not linear")
        if K is None:
            raise ValueError(f"node {i} is missing a controller")
    A, G, C = _stacked_blocks(nodes, controllers)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    return A.toarray() + (G @ H) @ C


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: np.ndarray
    margin: float
    stable: bool
    domain: str

    @property
    def spectral_radius(self):
        if self.domain != "dt":
            raise AttributeError("spectral radius is a DT quantity")
        return self.margin

    @property
    def spectral_abscissa(self):
        if self.domain != "ct":
            raise AttributeError("spectral abscissa is a CT quantity")
        return self.margin


def stability_report(M, domain, tol=1e-9):
    """Eigenvalues plus a stability verdict.

    DT: stable iff the spectral radius is below 1 - tol.
    CT: stable iff the spectral abscissa is below -tol.
    """
    eigs = eig_general(M)
    if domain == "dt":
        margin = float(np.max(np.abs(eigs)))
        stable = margin < 1.0 - tol
    elif domain == "ct":
        margin = float(np.max(eigs.real))
        stable = margin < -tol
    else:
        raise ValueError(f"domain must be 'ct' or 'dt', got {domain!r}")
    return StabilityReport(eigenvalues=eigs, margin=margin, stable=stable,
                           domain=domain)


@dataclass
class Trajectory:
    """Recorded network run.  Arrays are indexed [step, component]."""

    states: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    storage: np.ndarray = None
    node_slices: list = None
    truncated: bool = False
    message: str = ""

    @property
    def n_steps(self):
        return self.states.shape[0] - 1


def _slices(dims):
    ends = np.cumsum(dims).tolist()
    return [slice(end - dim, end) for dim, end in zip(dims, ends)]


def simulate(net, x0, steps, overflow_limit=1e12):
    """Iterate y_k = C x_k, u_k = H y_k, x_{k+1} = A x_k + G u_k.

    A = blockdiag(A_i + B_i K_i) applies the controllers stored on the model;
    a nonlinear node's maps overwrite its own slices of y and x+.  When
    certificates are present the summed storage V(x_k) = sum x_i' P_i^{-1} x_i
    is recorded.  Non-finite or overflowing states truncate the run with a
    diagnostic message instead of raising.
    """
    if any(isinstance(node, LinearNode) and node.time_domain != "dt"
           for node in net.nodes):
        raise ValueError("simulation requires DT nodes")
    xs, us, ys = (_slices([getattr(node, d) for node in net.nodes]) for d in "nmp")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != xs[-1].stop:
        raise ValueError(f"x0 must have {xs[-1].stop} entries, got {x.size}")
    A, G, C = _stacked_blocks(net.nodes, net.controllers or [None] * net.n_nodes)
    H = scipy.sparse.csr_array(net.H())  # a non-finite y_j reaches only u_i with H_ij != 0
    nonlinear = [s for s in zip(net.nodes, xs, us, ys) if not isinstance(s[0], LinearNode)]

    states = np.zeros((steps + 1, x.size))
    outputs = np.zeros((steps + 1, C.shape[0]))
    inputs = np.zeros((steps + 1, G.shape[1]))
    end, message = steps + 1, ""
    for k in range(steps + 1):
        y = C @ x
        for node, xi, _, yi in nonlinear:
            y[yi] = np.asarray(node.output(x[xi]), dtype=float).reshape(-1)
        u = H @ y
        states[k], outputs[k], inputs[k] = x, y, u
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > overflow_limit:
            end, message = k + 1, f"state overflow at step {k}; trajectory truncated"
            break
        if k < steps:
            x_next = A @ x + G @ u
            for node, xi, ui, _ in nonlinear:
                x_next[xi] = np.asarray(node.update(x[xi], u[ui]), dtype=float).reshape(-1)
            x = x_next

    storage = None
    if net.certificates is not None and all(c is not None for c in net.certificates):
        P = scipy.sparse.block_diag([c.storage_matrix for c in net.certificates],
                                    format="csr")
        # A few hundred steps at a time bounds the temporary copies.
        storage = np.concatenate([np.einsum("ki,ik->k", X, P @ X.T)
                                  for X in np.split(states[:end], range(256, end, 256))])
    return Trajectory(states=states[:end], outputs=outputs[:end], inputs=inputs[:end],
                      storage=storage, node_slices=xs, truncated=bool(message),
                      message=message)


def storage_decrease_check(traj):
    """Largest single-step increase of the recorded storage (0.0 if none)."""
    if traj.storage is None:
        raise ValueError("trajectory has no storage column")
    if traj.storage.size < 2:
        return 0.0
    return float(np.max(np.diff(traj.storage)))
