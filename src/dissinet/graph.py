"""Weighted undirected graphs and Laplacian analytics.

The Laplacian bundle collects everything the network conditions need:
L = D - A, per-node weighted degrees, the minimum degree and the algebraic
connectivity lambda_2.  Randomness is confined to the preferential-attachment
generator and always flows through a seeded numpy PCG64 generator so runs
reproduce bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix_core import definiteness, eig_sym, kron, pinv_sym_psd, symmetrize

__all__ = [
    "WeightedGraph",
    "LaplacianBundle",
    "laplacian_bundle",
    "is_connected",
    "extended_laplacian",
    "laplacian_pinv",
    "regularized_laplacian",
    "degree_bound_gaps",
    "laplacian_flow_lyapunov_check",
    "barabasi_albert",
]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with strictly positive edge weights and no self-loops.

    Edges are stored as (i, j, weight) tuples normalized to i < j.
    """

    n_nodes: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"graph needs at least one node, got {self.n_nodes}")
        seen = set()
        normalized = []
        for (i, j, w) in self.edges:
            i, j = int(i), int(j)
            w = float(w)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge ({i}, {j}) out of range for {self.n_nodes} nodes")
            if not 0 < w < np.inf:
                raise ValueError(
                    f"edge ({i}, {j}) needs a finite positive weight, got {w}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            normalized.append((i, j, w))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def n_edges(self):
        return len(self.edges)

    def adjacency(self):
        A = np.zeros((self.n_nodes, self.n_nodes))
        for i, j, w in self.edges:
            A[i, j] = w
            A[j, i] = w
        return A

    def to_json_dict(self):
        return {"n": self.n_nodes, "edges": [[i, j, w] for (i, j, w) in self.edges]}

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict) or not isinstance(d.get("edges"), list):
            raise ValueError("graph must be an object with an 'edges' list")
        if not isinstance(d.get("n"), int):
            raise ValueError(f"graph size n must be an integer, got {d.get('n')!r}")
        for e in d["edges"]:
            if (not isinstance(e, (list, tuple)) or len(e) != 3
                    or not all(isinstance(x, (int, float)) for x in e)):
                raise ValueError(f"edge {e!r} is not [i, j, weight]")
        return cls(d["n"], tuple(tuple(e) for e in d["edges"]))


@dataclass(frozen=True)
class LaplacianBundle:
    """Laplacian L = D - A with degrees, d_min and algebraic connectivity."""

    graph: WeightedGraph
    laplacian: np.ndarray
    adjacency: np.ndarray
    degree: np.ndarray
    degrees: np.ndarray
    d_min: float
    lambda2: float

    @property
    def n_nodes(self):
        return self.graph.n_nodes


def laplacian_bundle(g):
    """Build the Laplacian bundle of a weighted graph.

    lambda2 is the second-smallest Laplacian eigenvalue (0.0 for a single
    node), strictly positive exactly when the graph is connected.
    """
    if g.n_nodes < 1:
        raise ValueError("empty graph")
    A = g.adjacency()
    degrees = A.sum(axis=1)
    D = np.diag(degrees)
    L = symmetrize(D - A)
    w, _ = eig_sym(L)
    lam2 = float(w[1]) if g.n_nodes > 1 else 0.0
    return LaplacianBundle(
        graph=g,
        laplacian=L,
        adjacency=A,
        degree=D,
        degrees=degrees,
        d_min=float(degrees.min()),
        lambda2=lam2,
    )


def is_connected(g):
    """Breadth-first search connectivity test."""
    n = g.n_nodes
    if n == 1:
        return True
    neighbours = [[] for _ in range(n)]
    for i, j, _ in g.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in neighbours[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return bool(seen.all())


def extended_laplacian(g, block):
    """Laplacian lifted to block-vector couplings: L_ext = L (x) I_block."""
    if block < 1:
        raise ValueError(f"block size must be positive, got {block}")
    b = laplacian_bundle(g)
    return kron(b.laplacian, np.eye(int(block)))


def laplacian_pinv(b):
    """Pseudoinverse of the Laplacian of a connected graph.

    Satisfies pinv(L) @ L = I - (1/N) 11^T; requires connectivity so the
    null space is exactly span(1).
    """
    if not is_connected(b.graph):
        raise ValueError("Laplacian pseudoinverse identities require a connected graph")
    return pinv_sym_psd(b.laplacian, name="laplacian")


def regularized_laplacian(b, beta):
    """PD shift of a connected-graph Laplacian and its closed-form inverse.

    Returns (M, M_inv) with M = L + (beta/N) 11^T and
    M_inv = pinv(L) + (1/(beta N)) 11^T.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not is_connected(b.graph):
        raise ValueError("regularized Laplacian inverse requires a connected graph")
    n = b.n_nodes
    ones = np.ones((n, n))
    M = symmetrize(b.laplacian + (beta / n) * ones)
    M_inv = symmetrize(laplacian_pinv(b) + (1.0 / (beta * n)) * ones)
    return M, M_inv


def degree_bound_gaps(b):
    """PSD margins of the two degree-dominance bounds on a connected graph.

    Returns the minimum eigenvalues of

    * 2 D - L                                     (gap 1), and
    * pinv(L) + (1/(d_min N)) 11^T - (1/3) D^{-1} (gap 2),

    both of which are provably nonnegative for connected graphs.
    """
    if not is_connected(b.graph):
        raise ValueError("degree bounds require a connected graph")
    n = b.n_nodes
    gap1_mat = 2.0 * b.degree - b.laplacian
    w1, _ = eig_sym(gap1_mat)
    ones = np.ones((n, n))
    gap2_mat = (
        laplacian_pinv(b)
        + ones / (b.d_min * n)
        - np.diag(1.0 / (3.0 * b.degrees))
    )
    w2, _ = eig_sym(symmetrize(gap2_mat))
    return float(w1[0]), float(w2[0])


def laplacian_flow_lyapunov_check(b, V_block, tol=None):
    """Check that V = I (x) V_block is a Lyapunov certificate for the
    extended Laplacian flow, i.e. that L (x) (V_block + V_block^T) is PSD."""
    V_block = np.atleast_2d(np.asarray(V_block, dtype=float))
    M = kron(b.laplacian, V_block + V_block.T)
    return definiteness(symmetrize(M), "PSD", tol).satisfied


def barabasi_albert(n, m_attach, seed, weight=1.0):
    """Random graph grown by preferential attachment.

    Starts from a clique on ``m_attach + 1`` nodes; every new node attaches
    to ``m_attach`` distinct existing nodes with probability proportional to
    their current degree count, which keeps the graph connected by
    construction.  ``weight`` is either a constant or a callable
    ``weight(rng) -> float`` evaluated once per edge in creation order.
    Deterministic for a fixed seed (numpy PCG64).
    """
    n = int(n)
    m_attach = int(m_attach)
    if m_attach < 1:
        raise ValueError(f"m_attach must be at least 1, got {m_attach}")
    if n < m_attach + 1:
        raise ValueError(f"need n >= m_attach + 1, got n={n}, m_attach={m_attach}")
    rng = np.random.default_rng(seed)

    def draw_weight():
        return float(weight(rng)) if callable(weight) else float(weight)

    edges = []
    degree_count = np.zeros(n)
    core = m_attach + 1
    for i in range(core):
        for j in range(i + 1, core):
            edges.append((i, j, draw_weight()))
            degree_count[i] += 1
            degree_count[j] += 1
    for v in range(core, n):
        targets = []
        for _ in range(m_attach):
            probs = degree_count[:v].copy()
            probs[targets] = 0.0
            probs /= probs.sum()
            t = int(rng.choice(v, p=probs))
            targets.append(t)
        for t in targets:
            edges.append((t, v, draw_weight()))
            degree_count[t] += 1
            degree_count[v] += 1
    return WeightedGraph(n, tuple(edges))
