"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) and asserts the criterion at its
stated tolerance.  Certificates produced anywhere in this suite are pooled
so the final criterion can audit every one of them.
"""

import time

import numpy as np
import pytest

from helpers import (
    random_connected_graph,
    random_psd,
    random_sym_with_eigs,
    random_stable_node,
    sample_dual_in_variant,
    sample_primal_in_variant,
)
from dissinet.dissipativity import (
    SupplyRate,
    closed_loop_dissipation_gap,
    dualize_supply,
)
from dissinet.graph import (
    WeightedGraph,
    degree_bound_gaps,
    laplacian_bundle,
    laplacian_flow_lyapunov_check,
    laplacian_pinv,
    regularized_laplacian,
)
from dissinet.matrix_core import eig_general, eig_sym, inertia, symmetrize
from dissinet.microgrid import (
    DguParams,
    MicrogridSpec,
    dgu_ct_matrices,
    ct_stepsize_bound,
    feasible_region_sample,
    run_pipeline,
)
from dissinet.network import (
    Interconnection,
    build_H,
    dual_global_condition,
    global_condition,
    storage_decrease_check,
)
from dissinet.synthesis import (
    SynthesisOptions,
    dual_control,
    primal_control,
)

CERTIFICATE_POOL = []


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def pipeline_report():
    spec = MicrogridSpec(n_dgus=100)
    start = time.monotonic()
    rep = run_pipeline(spec)
    elapsed = time.monotonic() - start
    for entry in rep.controlled.values():
        CERTIFICATE_POOL.extend(c for c in entry["certificates"] if c is not None)
    return rep, elapsed


def test_criterion_1_degree_bounds_imply_global_condition():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = -np.inf
    for trial in range(200):
        g = random_connected_graph(rng, n_max=12)
        b = laplacian_bundle(g)
        m = int(rng.integers(1, 3))
        variant = "abcd"[int(rng.integers(0, 4))]
        alpha = s_shared = None
        supplies = []
        for i in range(g.n_nodes):
            sr, alpha, s_shared = sample_primal_in_variant(
                rng, variant, b.degrees[i], m, margin=1e-3,
                alpha=alpha, s_shared=s_shared,
            )
            supplies.append(sr)
        H = build_H(Interconnection.laplacian(g, block=m))
        M, _ = global_condition(supplies, H)
        w, _ = eig_sym(M)
        worst = max(worst, float(w[-1]))
    elapsed = time.monotonic() - start
    report(
        1,
        worst < -1e-10 and elapsed < 60.0,
        f"200/200 sampled networks negative definite "
        f"(worst max eig {worst:.3e}, {elapsed:.1f}s)",
    )


def test_criterion_2_dual_bounds_mirror():
    rng = np.random.default_rng(202)
    worst = np.inf
    agreements = 0
    for trial in range(200):
        g = random_connected_graph(rng, n_max=12)
        b = laplacian_bundle(g)
        m = int(rng.integers(1, 3))
        variant = "abcd"[int(rng.integers(0, 4))]
        alpha = s_shared = None
        duals = []
        for i in range(g.n_nodes):
            dsr, alpha, s_shared = sample_dual_in_variant(
                rng, variant, b.degrees[i], m, margin=1e-3,
                alpha=alpha, s_shared=s_shared,
            )
            duals.append(dsr)
        H = build_H(Interconnection.laplacian(g, block=m))
        M, dual_verdict = dual_global_condition(duals, H)
        w, _ = eig_sym(M)
        worst = min(worst, float(w[0]))
        # exact agreement with the primal verdict on the inverted triples
        from dissinet.dissipativity import primalize_supply

        primals = [primalize_supply(d) for d in duals]
        _, primal_verdict = global_condition(primals, H)
        agreements += int(primal_verdict.satisfied == dual_verdict.satisfied)
    report(
        2,
        worst > 1e-10 and agreements == 200,
        f"200/200 dual networks positive definite (worst min eig {worst:.3e}), "
        f"primal/dual verdicts agree {agreements}/200",
    )


def test_criterion_3_dualization_agreement():
    rng = np.random.default_rng(303)
    agreements = 0
    for _ in range(100):
        n_nodes = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        supplies = [
            SupplyRate(
                random_sym_with_eigs(rng, m, -3, -0.2),
                rng.standard_normal((m, m)) * 0.5,
                random_sym_with_eigs(rng, m, 0.2, 3),
            )
            for _ in range(n_nodes)
        ]
        H = rng.standard_normal((m * n_nodes, m * n_nodes)) * 0.5
        _, primal = global_condition(supplies, H)
        _, dual = dual_global_condition([dualize_supply(s) for s in supplies], H)
        agreements += int(primal.satisfied == dual.satisfied)
    report(3, agreements == 100, f"verdicts agree in {agreements}/100 systems")


def test_criterion_4_synthesis_verification():
    sr = SupplyRate([[-1.0]], [[0.5]], [[0.4]])
    dsr = dualize_supply(sr)
    rng = np.random.default_rng(404)
    verified = attempts = dual_returned = dual_passed = 0
    while verified < 50 and attempts < 400:
        attempts += 1
        node = random_stable_node(rng, 1 + (attempts % 2))
        opts = SynthesisOptions(seed=attempts, max_iters=800)
        cert = primal_control(node, sr, opts)
        if cert is None:
            continue
        verified += 1
        CERTIFICATE_POOL.append(cert)
        gap = closed_loop_dissipation_gap(node, cert.K, sr, cert.storage_matrix)
        assert gap <= 1e-8, f"closed-loop check failed with gap {gap:.3e}"
        cert_d = dual_control(node, dsr, opts)
        if cert_d is not None:
            dual_returned += 1
            CERTIFICATE_POOL.append(cert_d)
            gap_d = closed_loop_dissipation_gap(
                node, cert_d.K, cert_d.supply, cert_d.storage_matrix
            )
            dual_passed += int(gap_d <= 1e-8)
    report(
        4,
        verified == 50 and dual_passed == dual_returned,
        f"50/50 primal certificates pass the independent check "
        f"({attempts} candidates); dual route returned {dual_returned}, "
        f"all verified",
    )


def test_criterion_5_nominal_stepsize_bound():
    start = time.monotonic()
    node = dgu_ct_matrices(DguParams(0.2, 2.5e-3, 0.01, 0.02))
    K = np.array([[0.0, -1.0]])
    eigs = eig_general(node.A + node.B @ K)
    h_star = ct_stepsize_bound(eigs)
    radius_low = float(np.max(np.abs(1.0 + 0.9 * h_star * eigs)))
    radius_high = float(np.max(np.abs(1.0 + 1.1 * h_star * eigs)))
    elapsed = time.monotonic() - start
    report(
        5,
        0.0050 <= h_star <= 0.0058 and radius_low < 1.0 <= radius_high
        and elapsed < 1.0,
        f"h* = {h_star:.5f} in [0.0050, 0.0058]; Euler radius "
        f"{radius_low:.4f} at 0.9 h*, {radius_high:.4f} at 1.1 h* "
        f"({elapsed:.2f}s)",
    )


def test_criterion_6_full_pipeline(pipeline_report):
    rep, elapsed = pipeline_report
    failures = {h: v for h, v in rep.failures.items() if v}
    radii = {h: rep.controlled[h]["spectral_radius"] for h in sorted(rep.controlled)}
    all_schur = all(r < 1.0 for r in radii.values())
    stepsizes_ok = {1e-4, 1e-3, 5e-3} <= set(rep.controlled)
    report(
        6,
        not failures and all_schur and stepsizes_ok and elapsed < 600.0,
        f"synthesis 100/100 at every stepsize in {elapsed:.0f}s; spectral radii "
        f"{ {f'{h:g}': round(r, 4) for h, r in radii.items()} }",
    )


def test_criterion_7_perturbation_experiment(pipeline_report):
    traj = pipeline_report[0].trajectory
    assert traj is not None
    final_deviation = float(np.max(np.abs(traj.states[-1])))
    worst_increase = storage_decrease_check(traj)
    report(
        7,
        traj.n_steps == 2000 and final_deviation <= 1e-3
        and worst_increase <= 1e-10,
        f"states within {final_deviation:.2e} of the origin after 2000 steps; "
        f"max storage increase {worst_increase:.2e}",
    )


def test_criterion_8_region_oracle():
    d = 0.5
    rows = feasible_region_sample(
        d, q_range=(-6.0, 0.0), s_range=(0.0, 1.0), r_range=(0.0, 1.0),
        resolution=(25, 20, 20),
    )
    assert len(rows) >= 10_000
    H = build_H(Interconnection.laplacian(WeightedGraph(2, ((0, 1, d),)), block=1))
    violations = 0
    flagged = 0
    exclusive = 0
    for q, s, r, mask in rows:
        mask = int(mask)
        if not mask:
            continue
        flagged += 1
        if mask & (mask - 1) == 0:
            exclusive += 1
        supplies = [SupplyRate([[q]], [[s]], [[r]])] * 2
        M, _ = global_condition(supplies, H)
        if np.linalg.eigvalsh(M)[-1] >= -1e-10:
            violations += 1
    report(
        8,
        violations == 0 and exclusive > 0,
        f"{flagged} flagged points of {len(rows)}, 0 oracle violations, "
        f"{exclusive} covered by exactly one variant",
    )


def test_criterion_9_graph_and_matrix_suites():
    rng = np.random.default_rng(909)
    # degree-dominance bounds on 500 connected graphs
    worst_gap = np.inf
    for _ in range(500):
        b = laplacian_bundle(random_connected_graph(rng, n_max=15))
        g1, g2 = degree_bound_gaps(b)
        worst_gap = min(worst_gap, g1, g2)
    gaps_ok = worst_gap >= -1e-9

    # pseudoinverse and regularized-inverse identities
    worst_resid = 0.0
    for _ in range(100):
        b = laplacian_bundle(random_connected_graph(rng, n_max=12))
        n = b.n_nodes
        Lp = laplacian_pinv(b)
        worst_resid = max(
            worst_resid,
            float(np.max(np.abs(Lp @ b.laplacian - np.eye(n) + np.ones((n, n)) / n))),
        )
        beta = float(rng.uniform(0.2, 4.0))
        M, M_inv = regularized_laplacian(b, beta)
        worst_resid = max(
            worst_resid, float(np.max(np.abs(M @ M_inv - np.eye(n))))
        )
    identities_ok = worst_resid <= 1e-8

    # Lyapunov property of block-lifted Laplacian flows
    flows_ok = all(
        laplacian_flow_lyapunov_check(
            laplacian_bundle(random_connected_graph(rng, n_max=8)),
            random_psd(rng, int(rng.integers(1, 4))),
        )
        for _ in range(100)
    )

    # dominated-corner block PSD
    corner = 0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        B = random_psd(rng, k)
        A = B + random_psd(rng, k)
        C = B + random_psd(rng, k)
        w, _ = eig_sym(symmetrize(np.block([[A, B], [B, C]])))
        corner += int(w[0] >= -1e-9 * (1.0 + abs(w[-1])))

    # inertia (p, 0, m) of stacked blocks under the sign conditions
    stacked = 0
    for _ in range(200):
        p, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sr = SupplyRate(
            random_sym_with_eigs(rng, p, -4, -0.2),
            rng.standard_normal((p, m)),
            random_sym_with_eigs(rng, m, 0.2, 4),
        )
        stacked += int(inertia(sr.stacked()).as_tuple() == (p, 0, m))

    report(
        9,
        gaps_ok and identities_ok and flows_ok and corner == 200 and stacked == 200,
        f"degree gaps >= {worst_gap:.2e} on 500 graphs; identity residual "
        f"{worst_resid:.2e}; flows 100/100; corner blocks {corner}/200; "
        f"inertia {stacked}/200",
    )


def test_criterion_10_every_certificate_has_psd_R(pipeline_report):
    assert CERTIFICATE_POOL, "earlier criteria must populate the pool"
    worst = np.inf
    for cert in CERTIFICATE_POOL:
        w, _ = eig_sym(cert.supply.R)
        worst = min(worst, float(w[0]))
    report(
        10,
        worst >= -1e-9,
        f"{len(CERTIFICATE_POOL)} certificates audited, "
        f"min eig(R) >= {worst:.3e}",
    )
