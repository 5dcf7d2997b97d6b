"""DC microgrid experiment: DGU models, discretization, synthesis, reports.

A distributed generation unit (DGU) is an averaged Buck converter feeding a
constant-impedance load: state (V, I) in volts and amperes, control input
the source voltage, coupling input the current injected by the neighbours.
Units are swapped into the electrical convention used throughout:
inductance in henry (milli-henry scale) and capacitance in farad.

The full pipeline runs one experiment end to end: random
preferential-attachment topology with resistive lines, baseline
current-feedback gains for the continuous-time network, the largest
forward-Euler step preserving stability, per-node joint synthesis on the
held-coupling discretization, closed-loop spectra, and a perturbation
run with storage logging.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .dissipativity import LinearNode
from .graph import barabasi_albert, is_connected, laplacian_bundle
from .matrix_core import expm_with_integral
from .network import (
    Interconnection,
    NetworkModel,
    _bound_rows,
    assemble_closed_loop,
    simulate,
    stability_report,
)
from .synthesis import _joint_synthesis_all

__all__ = [
    "DguParams",
    "MicrogridSpec",
    "ExperimentReport",
    "dgu_ct_matrices",
    "sample_params",
    "ct_stepsize_bound",
    "euler_discretize",
    "zoh_discretize",
    "build_microgrid",
    "run_pipeline",
    "feasible_region_sample",
    "write_csv",
    "write_eig_csv",
    "write_trajectory_csv",
    "write_region_csv",
    "REGION_VARIANT_BITS",
]

REGION_VARIANT_BITS = {"a": 1, "b": 2, "c": 4, "d": 8}


@dataclass(frozen=True)
class DguParams:
    """Electrical parameters of one DGU (ohm, henry, farad, siemens)."""

    r_int: float
    l_ind: float
    c_cap: float
    y_load: float

    def __post_init__(self):
        for name in ("r_int", "l_ind", "c_cap", "y_load"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


# Sampling intervals (center, half-width) for the random DGU population.
PARAM_INTERVALS = {
    "r_int": (0.2, 0.05),
    "l_ind": (2.5e-3, 1.0e-3),
    "c_cap": (0.01, 0.001),
    "y_load": (0.02, 0.001),
}


@dataclass(frozen=True)
class MicrogridSpec:
    """Configuration of one end-to-end microgrid experiment."""

    n_dgus: int
    topology_seed: int = 0
    param_seed: int = 1
    baseline_seed: int = 2
    synth_seed: int = 3
    perturb_seed: int = 4
    m_attach: int = 1
    line_resistance: float = 0.05
    line_weight: str = "resistance"
    h: float = 1e-3
    discretization: str = "zoh"
    variant: str = "a"
    alpha: float = 1.0
    s_shared: float = None
    fig_stepsizes: tuple = (1e-4, 1e-3, 5e-3)
    sim_steps: int = 2000

    def __post_init__(self):
        if self.n_dgus < 2:
            raise ValueError("microgrid needs at least two DGUs")
        if self.h <= 0:
            raise ValueError("step h must be positive")
        if self.discretization not in ("euler", "zoh"):
            raise ValueError("discretization must be 'euler' or 'zoh'")
        if self.line_resistance <= 0:
            raise ValueError("line resistance must be positive")
        if self.line_weight not in ("resistance", "conductance"):
            raise ValueError("line_weight must be 'resistance' or 'conductance'")

    @property
    def edge_weight(self):
        """Coupling weight per line.

        The default rule weights each line by its resistance value, which
        keeps per-node weighted degrees of order one, the regime where the
        degree-bound synthesis has room to work.  The conductance rule 1/R
        is the physical Siemens reading; at the default electrical
        parameters it makes every degree window infeasible, so it is opt-in.
        """
        if self.line_weight == "resistance":
            return self.line_resistance
        return 1.0 / self.line_resistance

    def to_json_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["fig_stepsizes"] = list(self.fig_stepsizes)
        if self.s_shared is None:
            del d["s_shared"]
        return d

    @classmethod
    def from_json_dict(cls, d):
        kw = dict(d)
        if "fig_stepsizes" in kw:
            kw["fig_stepsizes"] = tuple(kw["fig_stepsizes"])
        return cls(**kw)


def dgu_ct_matrices(p):
    """Continuous-time DGU node.

    State (V, I); A = [[-Y/C, 1/C], [-1/L, -R/L]], control through
    B = [0, 1/L]', coupling through G = [1/C, 0]', output y = V.
    """
    A = np.array(
        [
            [-p.y_load / p.c_cap, 1.0 / p.c_cap],
            [-1.0 / p.l_ind, -p.r_int / p.l_ind],
        ]
    )
    B = np.array([[0.0], [1.0 / p.l_ind]])
    G = np.array([[1.0 / p.c_cap], [0.0]])
    C = np.array([[1.0, 0.0]])
    return LinearNode(A, B, G, C, time_domain="ct")


def sample_params(seed_or_rng):
    """One uniform draw of DGU parameters; deterministic for a fixed seed.

    Accepts either an integer seed or a numpy Generator (so a caller can
    draw a whole population from one stream).
    """
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    draws = {}
    for name in ("r_int", "l_ind", "c_cap", "y_load"):
        center, half = PARAM_INTERVALS[name]
        draws[name] = float(rng.uniform(center - half, center + half))
    return DguParams(**draws)


def ct_stepsize_bound(eigenvalues):
    """Largest forward-Euler step preserving stability of a Hurwitz spectrum:
    h* = min over eigenvalues of -2 Re(l) / |l|^2."""
    eigs = np.asarray(eigenvalues, dtype=complex).reshape(-1)
    if eigs.size == 0:
        raise ValueError("need at least one eigenvalue")
    if np.any(eigs.real >= 0):
        raise ValueError("Euler stepsize bound requires a Hurwitz spectrum")
    return float(np.min(-2.0 * eigs.real / np.abs(eigs) ** 2))


def euler_discretize(node, h):
    """Forward-Euler discretization (I + hA, hB, hG, C)."""
    if node.time_domain != "ct":
        raise ValueError("discretization expects a CT node")
    if h <= 0:
        raise ValueError("step h must be positive")
    n = node.n
    return LinearNode(
        np.eye(n) + h * node.A, h * node.B, h * node.G, node.C, time_domain="dt"
    )


def zoh_discretize(node, h):
    """Discretization by sampling and holding both input channels.

    A_d = e^{Ah}, [B_d G_d] = (int_0^h e^{A tau} d tau) [B G]; per-node, so
    the interconnection sparsity of a network model is untouched.
    """
    if node.time_domain != "ct":
        raise ValueError("discretization expects a CT node")
    E, F = expm_with_integral(node.A, h)
    return LinearNode(E, F @ node.B, F @ node.G, node.C, time_domain="dt")


def _discretize(node, h, method):
    return euler_discretize(node, h) if method == "euler" else zoh_discretize(node, h)


def _microgrid_population(spec):
    """Topology, parameters, and CT nodes of a microgrid experiment.

    Returns (bundle, params, ct_nodes); every line carries the same coupling
    weight, given by the spec's line-weight rule.
    """
    g = barabasi_albert(
        spec.n_dgus, spec.m_attach, spec.topology_seed,
        weight=spec.edge_weight,
    )
    if not is_connected(g):
        raise ValueError("microgrid topology must be connected")
    bundle = laplacian_bundle(g)
    rng = np.random.default_rng(spec.param_seed)
    params = [sample_params(rng) for _ in range(spec.n_dgus)]
    ct_nodes = [dgu_ct_matrices(p) for p in params]
    return bundle, params, ct_nodes


def build_microgrid(spec):
    """Network model of the microgrid, discretized per the spec.

    Nodes are the sampled converter units discretized at ``spec.h`` with the
    spec's method, coupled through the weighted-line Laplacian.
    """
    bundle, _, ct_nodes = _microgrid_population(spec)
    dt_nodes = [_discretize(node, spec.h, spec.discretization)
                for node in ct_nodes]
    return NetworkModel(
        nodes=dt_nodes,
        interconnection=Interconnection.laplacian(bundle.graph, block=1),
    )


def _baseline_gains(spec):
    """Current-feedback baseline K_i = [0, K_I] with K_I uniform in -1 +/- 0.1."""
    rng = np.random.default_rng(spec.baseline_seed)
    return [np.array([[0.0, rng.uniform(-1.1, -0.9)]]) for _ in range(spec.n_dgus)]


def _synthesize_all(spec, dt_nodes, degrees):
    """Joint synthesis of all nodes in lockstep: (certificates, failed indices)."""
    results = _joint_synthesis_all(dt_nodes, spec.variant, degrees,
                                   alpha=spec.alpha, s_shared=spec.s_shared)
    certificates = [r[0] if r is not None else None for r in results]
    failures = [i for i, r in enumerate(results) if r is None]
    return certificates, failures


@dataclass
class ExperimentReport:
    """Everything the pipeline produced, serializable to a report directory."""

    spec: MicrogridSpec
    bundle: object
    params: list
    baseline_gains: list
    ct_eigenvalues: np.ndarray
    h_star: float
    euler_eigenvalues: np.ndarray
    controlled: dict = field(default_factory=dict)  # h -> dict with certs, eigs
    trajectory: object = None
    failures: dict = field(default_factory=dict)    # h -> list of node indices

    @property
    def all_synthesized(self):
        return all(len(v) == 0 for v in self.failures.values())

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "graph.json"), "w") as fh:
            json.dump(self.bundle.graph.to_json_dict(), fh, indent=1)
        rows = [
            [i, p.r_int, p.l_ind, p.c_cap, p.y_load, float(k[0, 1])]
            for i, (p, k) in enumerate(zip(self.params, self.baseline_gains))
        ]
        write_csv(
            os.path.join(out_dir, "params.csv"),
            ["node", "r_int", "l_ind", "c_cap", "y_load", "baseline_ki"],
            rows,
        )
        write_eig_csv(os.path.join(out_dir, "eigs_ct.csv"), "ct",
                      self.ct_eigenvalues)
        write_eig_csv(
            os.path.join(out_dir, "eigs_euler.csv"),
            f"euler_h={self.spec.h:.17g}", self.euler_eigenvalues,
        )
        eig_rows = []
        for h in sorted(self.controlled):
            label = f"{self.spec.discretization}_h={h:.17g}"
            for lam in self.controlled[h]["eigenvalues"]:
                eig_rows.append([label, lam.real, lam.imag, abs(lam)])
        write_csv(
            os.path.join(out_dir, "eigs_dt_controlled.csv"),
            ["node_set", "re", "im", "abs"], eig_rows,
        )
        controllers = {
            "h_star": self.h_star,
            "stepsizes": {
                f"{h:.17g}": {
                    "certificates": [
                        None if c is None else c.to_json_dict()
                        for c in self.controlled[h]["certificates"]
                    ],
                    "failures": self.failures.get(h, []),
                    "spectral_radius": self.controlled[h]["spectral_radius"],
                }
                for h in sorted(self.controlled)
            },
        }
        with open(os.path.join(out_dir, "controllers.json"), "w") as fh:
            json.dump(controllers, fh)
        if self.trajectory is not None:
            write_trajectory_csv(
                os.path.join(out_dir, "trajectory.csv"),
                self.trajectory, self.spec.h, [2] * self.spec.n_dgus,
            )
            if self.trajectory.storage is not None:
                write_csv(
                    os.path.join(out_dir, "storage.csv"), ["step", "V"],
                    [[k, v] for k, v in enumerate(self.trajectory.storage)],
                )


def run_pipeline(spec, out_dir=None):
    """Run the full experiment and optionally write the report directory.

    Stages: topology and parameters; baseline CT closed loop and its
    forward-Euler stepsize bound; per-stepsize joint synthesis on the
    discretized nodes with the controlled spectra; perturbation simulation
    at the spec stepsize with storage logging.  Deterministic for a fixed
    spec.  Synthesis failures are reported per node, never raised.
    """
    bundle, params, ct_nodes = _microgrid_population(spec)
    baseline = _baseline_gains(spec)
    H = -bundle.laplacian  # output blocks are scalar voltages

    A_ct = assemble_closed_loop(ct_nodes, baseline, H)
    ct_report = stability_report(A_ct, "ct")
    h_star = ct_stepsize_bound(ct_report.eigenvalues)
    euler_eigs = 1.0 + spec.h * ct_report.eigenvalues

    stepsizes = sorted(set(spec.fig_stepsizes) | {spec.h})
    controlled = {}
    failures = {}
    for h in stepsizes:
        dt_nodes = [_discretize(node, h, spec.discretization) for node in ct_nodes]
        certs, failed = _synthesize_all(spec, dt_nodes, bundle.degrees)
        entry = {"certificates": certs, "nodes": dt_nodes,
                 "eigenvalues": np.array([]), "spectral_radius": float("nan")}
        if not failed:
            gains = [c.K for c in certs]
            A_cl = assemble_closed_loop(dt_nodes, gains, H)
            rep = stability_report(A_cl, "dt")
            entry["eigenvalues"] = rep.eigenvalues
            entry["spectral_radius"] = rep.spectral_radius
        controlled[h] = entry
        failures[h] = failed

    trajectory = None
    if not failures[spec.h]:
        entry = controlled[spec.h]
        net = NetworkModel(
            nodes=entry["nodes"],
            interconnection=Interconnection.laplacian(bundle.graph, block=1),
            controllers=[c.K for c in entry["certificates"]],
            certificates=entry["certificates"],
        )
        rng = np.random.default_rng(spec.perturb_seed)
        x0 = np.zeros(2 * spec.n_dgus)
        x0[0::2] = rng.uniform(-1.0, 1.0, size=spec.n_dgus)  # voltages only
        trajectory = simulate(net, x0, spec.sim_steps)

    report = ExperimentReport(
        spec=spec,
        bundle=bundle,
        params=params,
        baseline_gains=baseline,
        ct_eigenvalues=ct_report.eigenvalues,
        h_star=h_star,
        euler_eigenvalues=euler_eigs,
        controlled=controlled,
        trajectory=trajectory,
        failures=failures,
    )
    if out_dir is not None:
        report.write(out_dir)
    return report


def feasible_region_sample(degree, q_range=(-6.0, 0.0), s_range=(0.0, 1.0),
                           r_range=(0.0, 1.0), resolution=(25, 20, 20),
                           alpha_range=None, s_shared_range=None):
    """Scalar-triple membership grid for the four degree-bound variants.

    For every (Q, S, R) grid point returns a bitmask of the variants whose
    bounds hold at that point (a=1, b=2, c=4, d=8).  Variants a-d are one
    table, shared with :func:`dissinet.network.decentralized_check` and the
    joint synthesis, and each bound is judged with the check's tolerance, so
    a point on a boundary is flagged exactly when the check accepts it.  The
    shared parameters are projected out: variant a pins alpha = 2S and
    variant b pins the shared S at the point's S; optional ranges restrict
    those projections.

    Returns an array of rows (Q, S, R, mask).
    """
    if degree <= 0:
        raise ValueError("degree must be positive")
    Q, S, R = np.meshgrid(np.linspace(q_range[0], q_range[1], resolution[0]),
                          np.linspace(s_range[0], s_range[1], resolution[1]),
                          np.linspace(r_range[0], r_range[1], resolution[2]),
                          indexing="ij")
    alpha = 2.0 * S
    projected = {"a": _within(alpha, alpha_range), "b": _within(S, s_shared_range)}
    mask = np.zeros(Q.shape, dtype=int)
    for variant, bit in REGION_VARIANT_BITS.items():
        ok = projected.get(variant, True)
        for bound in _bound_rows(variant, float(degree), alpha=alpha):
            ok = ok & bound.holds_elementwise(Q, S, R)
        mask |= np.where(ok, bit, 0)
    return np.stack([Q.ravel(), S.ravel(), R.ravel(), mask.ravel()], axis=1)


def _within(x, bounds):
    return True if bounds is None else (bounds[0] <= x) & (x <= bounds[1])


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv(path, header, rows):
    """CSV with '.' decimals and 17-significant-digit floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_eig_csv(path, label, eigenvalues):
    rows = [[label, lam.real, lam.imag, abs(lam)] for lam in eigenvalues]
    write_csv(path, ["node_set", "re", "im", "abs"], rows)


def write_trajectory_csv(path, traj, h, node_dims):
    """Long-format trajectory table: step, time_s, node, state_index, value.

    Streams one step at a time: a %-template in the text of :func:`write_csv`.
    """
    rows = "".join(f"{{0}},{{1}},{node},{j},%.17g\r\n"
                   for node, dim in enumerate(node_dims) for j in range(dim))
    with open(path, "w", newline="") as fh:
        fh.write("step,time_s,node,state_index,value\r\n")
        for k, x in enumerate(traj.states):
            fh.write(rows.format(k, _fmt(k * h)) % tuple(x.tolist()))


def write_region_csv(path, rows):
    """Grid rows (Q, S, R, mask) as %-templates in the text of :func:`write_csv`."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    with open(path, "w", newline="") as fh:
        fh.write("Q,S,R,mask\r\n")
        for chunk in np.split(rows, range(10000, len(rows), 10000)):
            fh.write("%.17g,%.17g,%.17g,%d\r\n" * len(chunk) % tuple(chunk.ravel().tolist()))
