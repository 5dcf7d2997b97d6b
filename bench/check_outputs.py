"""Independent checker of the files the benchmark workloads write.

Uses numpy and scipy only; it never imports dissinet.  Each DT node is
rebuilt from ``params.csv`` with scipy's ``expm`` and every claim in the
report is tested against properties the method must have:

* every certificate satisfies its closed-loop dissipation inequality;
* the global matrix Q + SH + H'S' + H'RH is negative definite for
  H = -L on the graph's Laplacian (and, for the toolkit report, the dual
  test is positive definite on triples inverted here);
* the trajectory has the right rows, is finite, follows the closed-loop
  dynamics, and ends near zero; the logged storage is the certificates'
  storage along it and never increases;
* ``h*`` is the forward-Euler bound of a CT loop assembled here, and the
  reported CT, Euler and controlled DT spectra are those of loops
  assembled here;
* every requested step size is reported, with one certificate per unit;
* every flagged region point passes the global test on small networks
  whose weighted degrees do not exceed ``d``.

Findings are keyed by the operation they reject (``synth:<h>:<i>``,
``network:<h>``, ``ct_bound``, ``simulate``, ``file:<name>``, ``joint:<i>``,
``primal:<i>``, ``global``, ``dual_global``, ``region``), so the benchmark
can count failed operations.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import numpy as np
import scipy.linalg

PIPELINE_FILES = (
    "graph.json", "params.csv", "eigs_ct.csv", "eigs_euler.csv",
    "eigs_dt_controlled.csv", "controllers.json", "trajectory.csv",
    "storage.csv",
)
TOOLKIT_FILES = (
    "graph.json", "params.csv", "certificates.json", "trajectory.csv",
    "storage.csv", "region.csv",
)
# Relative tolerances of the checks; they sit well above the rounding of
# 17-digit text and well below any defect worth reporting.
DISSIPATION_RTOL = 1e-8
DEFINITE_RTOL = 1e-10
DYNAMICS_RTOL = 1e-9
STORAGE_RTOL = 1e-9
HSTAR_RTOL = 1e-8
SPECTRUM_RTOL = 1e-8
SETTLED_RATIO = 1e-3
TINY = 1e-300


class Findings(defaultdict):
    """Operation key -> list of problems found with that operation."""

    def __init__(self):
        super().__init__(list)

    def add(self, key, message):
        self[key].append(message)


# ---------------------------------------------------------------- loading

def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path, header):
    with open(path) as fh:
        first = fh.readline().strip()
        if first != ",".join(header):
            raise ValueError(f"header {first!r}, expected {','.join(header)!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size and data.shape[1] != len(header):
        raise ValueError(f"{data.shape[1]} columns, expected {len(header)}")
    return data


def _read_eig_csv(path):
    with open(path) as fh:
        first = fh.readline().strip()
        rows = [line.rstrip("\n").split(",") for line in fh]
    if first != "node_set,re,im,abs":
        raise ValueError(f"header {first!r}")
    return [(r[0], complex(float(r[1]), float(r[2]))) for r in rows]


def _load(report_dir, names, findings):
    """Parse each file; a file that cannot be read is a failed operation."""
    loaders = {
        "graph.json": _read_json,
        "controllers.json": _read_json,
        "certificates.json": _read_json,
        "params.csv": lambda p: _read_csv(
            p, ["node", "r_int", "l_ind", "c_cap", "y_load", "baseline_ki"]),
        "trajectory.csv": lambda p: _read_csv(
            p, ["step", "time_s", "node", "state_index", "value"]),
        "storage.csv": lambda p: _read_csv(p, ["step", "V"]),
        "region.csv": lambda p: _read_csv(p, ["Q", "S", "R", "mask"]),
        "eigs_ct.csv": _read_eig_csv,
        "eigs_euler.csv": _read_eig_csv,
        "eigs_dt_controlled.csv": _read_eig_csv,
    }
    data = {}
    for name in names:
        try:
            data[name] = loaders[name](os.path.join(report_dir, name))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            findings.add(f"file:{name}", f"{name} unreadable: {exc}")
    return data


# ---------------------------------------------------------- model pieces

def ct_nodes(params):
    """Stacked CT DGU matrices (A, B, G, C) from params.csv rows."""
    r, l, c, y = params[:, 1], params[:, 2], params[:, 3], params[:, 4]
    n = params.shape[0]
    A = np.empty((n, 2, 2))
    A[:, 0, 0] = -y / c
    A[:, 0, 1] = 1.0 / c
    A[:, 1, 0] = -1.0 / l
    A[:, 1, 1] = -r / l
    B = np.zeros((n, 2, 1))
    B[:, 1, 0] = 1.0 / l
    G = np.zeros((n, 2, 1))
    G[:, 0, 0] = 1.0 / c
    C = np.array([[1.0, 0.0]])
    return A, B, G, C


def zoh(A, B, G, h):
    """Held-input discretization from one augmented exponential per node:
    expm([[A, B, G], [0, 0, 0]] h) = [[A_d, B_d, G_d], [0, I, 0], ...]."""
    n = A.shape[0]
    aug = np.zeros((n, 4, 4))
    aug[:, :2, :2] = A
    aug[:, :2, 2:3] = B
    aug[:, :2, 3:4] = G
    E = np.stack([scipy.linalg.expm(M * h) for M in aug])
    return E[:, :2, :2], E[:, :2, 2:3], E[:, :2, 3:4]


def laplacian(graph):
    n = int(graph["n"])
    L = np.zeros((n, n))
    for i, j, w in graph["edges"]:
        L[i, j] -= w
        L[j, i] -= w
        L[i, i] += w
        L[j, j] += w
    return L


def _cert_arrays(certs):
    """Stack P, K and the scalar supply (q, s, r) of 2-state certificates."""
    P = np.array([c["P"] for c in certs], dtype=float)
    K = np.array([c["K"] for c in certs], dtype=float)
    q = np.array([c["supply"]["Q"][0][0] for c in certs], dtype=float)
    s = np.array([c["supply"]["S"][0][0] for c in certs], dtype=float)
    r = np.array([c["supply"]["R"][0][0] for c in certs], dtype=float)
    return P, K, q, s, r


def dissipation_gaps(Ad, Bd, Gd, C, P, K, q, s, r):
    """Largest eigenvalue of each closed-loop dissipation matrix, relative
    to the scale of its storage matrix X = P^-1."""
    X = np.linalg.inv(P)
    X = 0.5 * (X + np.swapaxes(X, 1, 2))
    Ak = Ad + Bd @ K
    AkT = np.swapaxes(Ak, 1, 2)
    n = Ad.shape[0]
    D = np.empty((n, 3, 3))
    D[:, :2, :2] = AkT @ X @ Ak - X - q[:, None, None] * (C.T @ C)
    top_right = AkT @ X @ Gd - s[:, None, None] * C.T
    D[:, :2, 2:] = top_right
    D[:, 2:, :2] = np.swapaxes(top_right, 1, 2)
    D[:, 2:, 2:] = np.swapaxes(Gd, 1, 2) @ X @ Gd - r[:, None, None]
    D = 0.5 * (D + np.swapaxes(D, 1, 2))
    scale = 1.0 + np.abs(X).max(axis=(1, 2))
    return np.linalg.eigvalsh(D)[:, -1] / scale


def global_matrix(q, s, r, H):
    """Q + SH + H'S' + H'RH for scalar node supplies."""
    M = np.diag(q) + s[:, None] * H + H.T * s[None, :] + H.T @ (r[:, None] * H)
    return 0.5 * (M + M.T)


def dual_matrix(q, s, r, H):
    """H Qd H' - H Sd - Sd' H' + Rd with the dual triples inverted here."""
    det = q * r - s * s
    qd, sd, rd = r / det, -s / det, q / det
    M = H @ (qd[:, None] * H.T) - H * sd[None, :] - sd[:, None] * H.T + np.diag(rd)
    return 0.5 * (M + M.T), qd, rd


def closed_loop(Ad, Bd, Gd, C, K, H):
    """Dense blockdiag(A_i + B_i K_i) + G H C of 2-state, 1-port nodes."""
    n = Ad.shape[0]
    Acl = scipy.linalg.block_diag(*(Ad + Bd @ K))
    Gb = np.zeros((2 * n, n))
    Gb[np.arange(0, 2 * n, 2), np.arange(n)] = Gd[:, 0, 0]
    Gb[np.arange(1, 2 * n, 2), np.arange(n)] = Gd[:, 1, 0]
    Cb = np.kron(np.eye(n), C)
    return Acl + Gb @ H @ Cb


def same_spectrum(rows, expected):
    """Whether the (label, eigenvalue) rows hold the expected multiset of
    eigenvalues; sorted real parts, imaginary parts and moduli are compared,
    which needs no pairing of nearly equal eigenvalues."""
    found = np.array([lam for _, lam in rows])
    if found.shape != expected.shape:
        return False
    tol = SPECTRUM_RTOL * (1.0 + np.abs(expected).max())
    return all(np.allclose(np.sort(f(found)), np.sort(f(expected)), rtol=0, atol=tol)
               for f in (np.real, np.imag, np.abs))


def _definite(M, sign):
    w = np.linalg.eigvalsh(M)
    scale = 1.0 + float(np.abs(w).max())
    extreme = w[-1] if sign < 0 else w[0]
    return sign * extreme > DEFINITE_RTOL * scale, float(extreme)


# ----------------------------------------------------------------- checks

def _check_certificates(key_of, Ad, Bd, Gd, C, certs, n, findings):
    if len(certs) != n:
        for i in range(n):
            findings.add(key_of(i), f"{len(certs)} certificates for {n} units")
        return None
    present = [i for i, c in enumerate(certs) if c is not None]
    for i, c in enumerate(certs):
        if c is None:
            findings.add(key_of(i), "no certificate")
    if not present:
        return None
    P, K, q, s, r = _cert_arrays([certs[i] for i in present])
    gaps = dissipation_gaps(Ad[present], Bd[present], Gd[present], C,
                            P, K, q, s, r)
    for i, gap in zip(present, gaps):
        if not gap <= DISSIPATION_RTOL:
            findings.add(key_of(i), f"dissipation inequality fails: {gap:.3e}")
    if len(present) < len(certs):
        return None
    return P, K, q, s, r


def _check_trajectory(key, traj, storage, Acl, X, h, steps, findings):
    """Rows, finiteness, closed-loop dynamics, settling and storage."""
    n_states = Acl.shape[0]
    if traj.shape[0] != (steps + 1) * n_states:
        findings.add(key, f"trajectory has {traj.shape[0]} rows, "
                          f"expected {(steps + 1) * n_states}")
        return
    if not np.all(np.isfinite(traj)):
        findings.add(key, "trajectory has non-finite entries")
        return
    k = np.repeat(np.arange(steps + 1), n_states)
    idx = np.tile(np.arange(n_states), steps + 1)
    if (np.any(traj[:, 0] != k) or np.any(2 * traj[:, 2] + traj[:, 3] != idx)
            or np.any(np.abs(traj[:, 1] - k * h) > 1e-12 * (1.0 + k * h))):
        findings.add(key, "trajectory rows are out of order or mistimed")
        return
    x = traj[:, 4].reshape(steps + 1, n_states)
    pred = x[:-1] @ Acl.T
    bound = DYNAMICS_RTOL * (np.abs(Acl).sum(axis=1).max()
                             * np.abs(x[:-1]).max(axis=1, keepdims=True) + TINY)
    if np.any(np.abs(x[1:] - pred) > bound):
        findings.add(key, "trajectory does not follow the closed-loop dynamics")
    if np.abs(x[-1]).max() > SETTLED_RATIO * np.abs(x[0]).max():
        findings.add(key, f"final state {np.abs(x[-1]).max():.3e} is not near zero")
    if storage.shape != (steps + 1, 2) or np.any(storage[:, 0] != np.arange(steps + 1)):
        findings.add(key, "storage.csv has the wrong rows")
        return
    V = storage[:, 1]
    xs = x.reshape(steps + 1, -1, 2)
    V_here = np.einsum("kni,nij,knj->k", xs, X, xs)
    if np.any(np.abs(V - V_here) > STORAGE_RTOL * V_here + TINY):
        findings.add(key, "storage is not the certificates' storage")
    if np.any(V[1:] > V[:-1] * (1.0 + STORAGE_RTOL) + TINY):
        findings.add(key, "storage increases")


def check_pipeline_report(report_dir, h, steps, stepsizes, n):
    """Check a ``run_pipeline`` report directory of ``n`` units made with the
    zero-order-hold discretization at the step sizes ``stepsizes`` (which
    include the simulation step ``h``); returns Findings."""
    findings = Findings()
    data = _load(report_dir, PIPELINE_FILES, findings)
    needed = ("graph.json", "params.csv", "controllers.json")
    if any(name not in data for name in needed):
        findings.add("ct_bound", "inputs unreadable")
        findings.add("simulate", "inputs unreadable")
        return findings
    params = data["params.csv"]
    A, B, G, C = ct_nodes(params)
    H = -laplacian(data["graph.json"])
    if A.shape[0] != n or H.shape[0] != n:
        findings.add("ct_bound", f"{A.shape[0]} units and a {H.shape[0]}-node "
                                 f"graph, expected {n}")
        findings.add("simulate", "wrong number of units")
        return findings

    K_base = np.zeros((n, 1, 2))
    K_base[:, 0, 1] = params[:, 5]
    A_ct = closed_loop(A, B, G, C, K_base, H)
    eigs = np.linalg.eigvals(A_ct)
    if np.any(eigs.real >= 0):
        findings.add("ct_bound", "baseline CT loop is not Hurwitz")
    else:
        h_star = float(np.min(-2.0 * eigs.real / np.abs(eigs) ** 2))
        reported = float(data["controllers.json"]["h_star"])
        if abs(reported - h_star) > HSTAR_RTOL * h_star:
            findings.add("ct_bound", f"h* {reported!r} differs from {h_star!r}")
    for name, expected in (("eigs_ct.csv", eigs), ("eigs_euler.csv", 1.0 + h * eigs)):
        if name in data and not same_spectrum(data[name], expected):
            findings.add("ct_bound", f"{name} is not the spectrum assembled here")

    entries = data["controllers.json"]["stepsizes"]
    at_h = None
    for hh in sorted(set(stepsizes) | {h}):
        label = f"{hh:.17g}"
        network = f"network:{label}"
        entry = entries.get(label)
        if entry is None:
            for i in range(n):
                findings.add(f"synth:{label}:{i}", "step size not reported")
            findings.add(network, "step size not reported")
            continue
        Ad, Bd, Gd = zoh(A, B, G, hh)
        certs = _check_certificates(lambda i: f"synth:{label}:{i}", Ad, Bd, Gd,
                                    C, entry["certificates"], n, findings)
        if certs is None:
            findings.add(network, "certificates missing or rejected")
            continue
        _, K, q, s, r = certs
        ok, top = _definite(global_matrix(q, s, r, H), -1)
        if not ok:
            findings.add(network, f"global matrix not negative definite: {top:.3e}")
        A_cl = closed_loop(Ad, Bd, Gd, C, K, H)
        dt_eigs = np.linalg.eigvals(A_cl)
        radius = float(np.abs(dt_eigs).max())
        if not radius < 1.0:
            findings.add(network, f"closed loop assembled here has spectral "
                                  f"radius {radius!r}")
        if not abs(entry["spectral_radius"] - radius) <= SPECTRUM_RTOL * (1.0 + radius):
            findings.add(network, f"spectral radius {entry['spectral_radius']!r} "
                                  f"differs from {radius!r}")
        rows = [row for row in data.get("eigs_dt_controlled.csv", [])
                if row[0] == f"zoh_h={label}"]
        if "eigs_dt_controlled.csv" in data and not same_spectrum(rows, dt_eigs):
            findings.add(network, "eigs_dt_controlled.csv is not the spectrum "
                                  "assembled here")
        if hh == h:
            at_h = (A_cl, np.linalg.inv(certs[0]))
    if at_h is None:
        findings.add("simulate", f"no certified controllers at h={h!r}")
    elif "trajectory.csv" in data and "storage.csv" in data:
        _check_trajectory("simulate", data["trajectory.csv"],
                          data["storage.csv"], at_h[0], at_h[1], h, steps,
                          findings)
    else:
        findings.add("simulate", "trajectory or storage unreadable")
    return findings


def region_grid(q_range, s_range, r_range, resolution):
    qs = np.linspace(q_range[0], q_range[1], resolution[0])
    ss = np.linspace(s_range[0], s_range[1], resolution[1])
    rs = np.linspace(r_range[0], r_range[1], resolution[2])
    Q, S, R = np.meshgrid(qs, ss, rs, indexing="ij")
    return np.stack([Q.ravel(), S.ravel(), R.ravel()], axis=1)


def degree_bounded_spectra(d):
    """Laplacian spectra of small networks with weighted degrees <= d: a
    six-cycle of weight d/2 (degree d, largest eigenvalue 2d) and a star
    whose centre has degree d."""
    cycle = {"n": 6, "edges": [[i, (i + 1) % 6, d / 2.0] for i in range(6)]}
    star = {"n": 6, "edges": [[0, i, d / 5.0] for i in range(1, 6)]}
    return [np.linalg.eigvalsh(laplacian(g)) for g in (cycle, star)]


def check_region(rows, d, q_range, s_range, r_range, resolution, findings):
    if rows.shape != (int(np.prod(resolution)), 4):
        findings.add("region", f"region grid has shape {rows.shape}")
        return
    if np.any(np.abs(rows[:, :3] - region_grid(q_range, s_range, r_range,
                                                resolution)) > 1e-12):
        findings.add("region", "region grid points are not the requested grid")
    mask = rows[:, 3]
    if np.any((mask != np.round(mask)) | (mask < 0) | (mask > 15)):
        findings.add("region", "region masks are not variant bit sets")
    flagged = rows[mask > 0]
    q, s, r = flagged[:, 0:1], flagged[:, 1:2], flagged[:, 2:3]
    for lam in degree_bounded_spectra(d):
        # Eigenvalues of qI - 2sL + rL^2, the global matrix for H = -L.
        top = (q - 2.0 * s * lam + r * lam ** 2).max(axis=1)
        bad = np.flatnonzero(top >= 0.0)
        if bad.size:
            i = bad[0]
            findings.add("region", f"{bad.size} flagged points fail the global "
                                   f"test, e.g. Q,S,R={flagged[i, :3].tolist()}")


def check_toolkit_report(report_dir, h, steps, n, degree, resolution,
                         q_range=(-6.0, 0.0), s_range=(0.0, 1.0),
                         r_range=(0.0, 1.0)):
    """Check the toolkit workload's directory of ``n`` units; returns
    Findings."""
    findings = Findings()
    data = _load(report_dir, TOOLKIT_FILES, findings)
    if "region.csv" in data:
        check_region(data["region.csv"], degree, q_range, s_range, r_range,
                     resolution, findings)
    else:
        findings.add("region", "region.csv unreadable")
    needed = ("graph.json", "params.csv", "certificates.json")
    if any(name not in data for name in needed):
        for key in ("global", "dual_global", "simulate"):
            findings.add(key, "inputs unreadable")
        return findings
    A, B, G, C = ct_nodes(data["params.csv"])
    H = -laplacian(data["graph.json"])
    if A.shape[0] != n or H.shape[0] != n:
        for key in ("global", "dual_global", "simulate"):
            findings.add(key, f"{A.shape[0]} units and a {H.shape[0]}-node "
                              f"graph, expected {n}")
        return findings
    Ad, Bd, Gd = zoh(A, B, G, h)
    joint = data["certificates.json"]["joint"]
    primal = data["certificates.json"]["primal"]
    certs = _check_certificates(lambda i: f"joint:{i}", Ad, Bd, Gd, C, joint,
                                n, findings)
    _check_certificates(lambda i: f"primal:{i}", Ad, Bd, Gd, C, primal, n,
                        findings)
    for i, (cj, cp) in enumerate(zip(joint, primal)):
        if cj is not None and cp is not None and cp["supply"] != cj["supply"]:
            findings.add(f"primal:{i}", "certified another supply than asked")
    if certs is None:
        for key in ("global", "dual_global", "simulate"):
            findings.add(key, "joint certificates missing or rejected")
        return findings
    P, K, q, s, r = certs
    ok, top = _definite(global_matrix(q, s, r, H), -1)
    if not ok:
        findings.add("global", f"global matrix not negative definite: {top:.3e}")
    M_dual, qd, rd = dual_matrix(q, s, r, H)
    ok, low = _definite(M_dual, +1)
    if not (ok and np.all(qd < 0) and np.all(rd > 0)):
        findings.add("dual_global", f"dual test not positive definite: {low:.3e}")
    if "trajectory.csv" in data and "storage.csv" in data:
        _check_trajectory("simulate", data["trajectory.csv"],
                          data["storage.csv"], closed_loop(Ad, Bd, Gd, C, K, H),
                          np.linalg.inv(P), h, steps, findings)
    else:
        findings.add("simulate", "trajectory or storage unreadable")
    return findings

