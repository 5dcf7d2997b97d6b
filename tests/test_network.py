import warnings

import numpy as np
import pytest

from helpers import (
    random_connected_graph,
    random_psd,
    random_sym_with_eigs,
    sample_dual_in_variant,
    sample_primal_in_variant,
)
from dissinet.dissipativity import (
    DualSupplyRate,
    LinearNode,
    SupplyRate,
    dualize_supply,
)
from dissinet.graph import WeightedGraph, laplacian_bundle
from dissinet.matrix_core import eig_sym, kron
from dissinet.network import (
    Interconnection,
    NetworkModel,
    NonlinearNode,
    assemble_closed_loop,
    build_H,
    comparison_conditions,
    decentralized_check,
    dual_decentralized_check,
    dual_global_condition,
    global_condition,
    qmi_nonempty_check,
    simulate,
    stability_report,
    storage_decrease_check,
)


def two_node_graph(weight=1.0):
    return WeightedGraph(2, ((0, 1, weight),))


class TestBuildH:
    def test_laplacian_two_node(self):
        H = build_H(Interconnection.laplacian(two_node_graph(), block=1))
        assert np.allclose(H, [[-1.0, 1.0], [1.0, -1.0]])

    def test_feedback_pair(self):
        H = build_H(Interconnection.feedback2(m=1), n_nodes=2)
        assert np.allclose(H, [[0.0, 1.0], [1.0, 0.0]])

    def test_laplacian_coupling_componentwise(self):
        # u_i = sum_j a_ij (y_j - y_i) reproduced entry by entry
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, n_max=8)
        b = laplacian_bundle(g)
        H = build_H(Interconnection.laplacian(g, block=1))
        y = rng.standard_normal(g.n_nodes)
        u = H @ y
        A = b.adjacency
        for i in range(g.n_nodes):
            expected = sum(A[i, j] * (y[j] - y[i]) for j in range(g.n_nodes))
            assert u[i] == pytest.approx(expected)

    def test_skew_symmetric_adjacency_warns_zero(self):
        with pytest.warns(UserWarning, match="identically zero"):
            H = build_H(Interconnection.skew(np.ones((2, 2)), block=1))
        assert np.allclose(H, 0.0)

    def test_skew_directed_nonzero(self):
        adj = np.array([[0.0, 1.0], [0.0, 0.0]])
        H = build_H(Interconnection.skew(adj, block=2))
        assert np.allclose(H, kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(2)))
        assert np.allclose(H, -H.T)

    def test_general_passthrough(self):
        H0 = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert np.allclose(build_H(Interconnection.general(H0)), H0)


class TestGlobalCondition:
    def test_decoupled_reduces_to_q(self):
        supplies = [SupplyRate(-np.eye(1), [[0.0]], [[0.0]]) for _ in range(3)]
        M, verdict = global_condition(supplies, np.zeros((3, 3)))
        assert np.allclose(M, -np.eye(3))
        assert verdict.satisfied

    def test_feedback_pair_blockwise(self):
        rng = np.random.default_rng(1)
        m = 2
        supplies = [
            SupplyRate(
                random_sym_with_eigs(rng, m, -3, -1),
                rng.standard_normal((m, m)) * 0.2,
                random_sym_with_eigs(rng, m, 0.1, 0.5),
            )
            for _ in range(2)
        ]
        H = build_H(Interconnection.feedback2(m=m), n_nodes=2)
        M, _ = global_condition(supplies, H)
        s0, s1 = supplies
        expected = np.block(
            [
                [s0.Q + s1.R, s0.S + s1.S.T],
                [(s0.S + s1.S.T).T, s0.R + s1.Q],
            ]
        )
        assert np.allclose(M, expected)

    def test_two_node_laplacian_example(self):
        # both nodes (-5I, I/2, 0.4I) over a unit edge: M = -5I - 0.2 L,
        # eigenvalues {-5, -5.4}
        m = 1
        supplies = [SupplyRate([[-5.0]], [[0.5]], [[0.4]]) for _ in range(2)]
        H = build_H(Interconnection.laplacian(two_node_graph(), block=m))
        M, verdict = global_condition(supplies, H)
        w, _ = eig_sym(M)
        assert np.allclose(w, [-5.4, -5.0])
        assert verdict.satisfied


class TestDualGlobalCondition:
    def test_agreement_with_primal_fuzz(self):
        rng = np.random.default_rng(2)
        agreements = 0
        for _ in range(50):
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
            duals = [dualize_supply(s) for s in supplies]
            _, dual = dual_global_condition(duals, H)
            assert primal.satisfied == dual.satisfied
            agreements += 1
        assert agreements == 50

    def test_identity_blocks(self):
        duals = [DualSupplyRate(-np.eye(1), [[0.0]], [[1.0]])]
        _, verdict = dual_global_condition(duals, np.zeros((1, 1)))
        assert verdict.satisfied  # reduces to dual R > 0

    def test_sign_preconditions_enforced(self):
        bad = [DualSupplyRate(np.eye(1), [[0.0]], [[1.0]])]
        with pytest.raises(ValueError, match="Q < 0"):
            dual_global_condition(bad, np.zeros((1, 1)))


class TestDecentralizedCheck:
    def test_reference_point_inside(self):
        sr = SupplyRate([[-3.0]], [[0.5]], [[0.8]])
        assert decentralized_check(0.5, sr, "a", alpha=1.0)

    def test_r_bound_violated(self):
        sr = SupplyRate([[-3.0]], [[0.5]], [[1.2]])
        assert not decentralized_check(0.5, sr, "a", alpha=1.0)

    def test_alpha_above_one_drops_q_floor(self):
        sr = SupplyRate([[-0.01]], [[0.5]], [[0.8]])
        assert decentralized_check(0.5, sr, "a", alpha=1.0)
        sr_half = SupplyRate([[-0.01]], [[0.25]], [[0.8]])
        assert not decentralized_check(0.5, sr_half, "a", alpha=0.5)

    def test_variant_parameter_required(self):
        sr = SupplyRate([[-3.0]], [[0.5]], [[0.8]])
        with pytest.raises(ValueError, match="alpha"):
            decentralized_check(0.5, sr, "a")
        with pytest.raises(ValueError, match="s_shared"):
            decentralized_check(0.5, sr, "b")

    def test_samplers_land_inside(self):
        rng = np.random.default_rng(3)
        for variant in "abcd":
            for _ in range(15):
                d = float(rng.uniform(0.1, 20.0))
                m = int(rng.integers(1, 3))
                sr, alpha, s_shared = sample_primal_in_variant(rng, variant, d, m)
                assert decentralized_check(d, sr, variant, alpha=alpha,
                                           s_shared=s_shared)

    def test_degree_must_be_positive(self):
        sr = SupplyRate([[-3.0]], [[0.5]], [[0.8]])
        with pytest.raises(ValueError, match="degree"):
            decentralized_check(0.0, sr, "a", alpha=1.0)


class TestDualDecentralizedCheck:
    def test_change_of_variables_agreement(self):
        rng = np.random.default_rng(4)
        for variant in "abcd":
            for _ in range(15):
                d = float(rng.uniform(0.1, 10.0))
                m = int(rng.integers(1, 3))
                dsr, alpha, s_shared = sample_dual_in_variant(rng, variant, d, m)
                renamed = SupplyRate(-dsr.R, dsr.S.T, -dsr.Q)
                assert dual_decentralized_check(
                    d, dsr, variant, alpha=alpha, s_shared=s_shared
                ) == decentralized_check(
                    d, renamed, variant, alpha=alpha, s_shared=s_shared
                )

    def test_sampled_duals_pass(self):
        rng = np.random.default_rng(5)
        for variant in "abcd":
            dsr, alpha, s_shared = sample_dual_in_variant(rng, variant, 2.0, 1)
            assert dual_decentralized_check(2.0, dsr, variant, alpha=alpha,
                                            s_shared=s_shared)


class TestDegreeBoundSoundness:
    def test_primal_variants_imply_global_condition(self):
        # the soundness property behind the whole decentralized story
        rng = np.random.default_rng(6)
        for trial in range(40):
            g = random_connected_graph(rng, n_max=10)
            b = laplacian_bundle(g)
            m = int(rng.integers(1, 3))
            variant = "abcd"[trial % 4]
            alpha = s_shared = None
            supplies = []
            for i in range(g.n_nodes):
                sr, alpha, s_shared = sample_primal_in_variant(
                    rng, variant, b.degrees[i], m, alpha=alpha, s_shared=s_shared
                )
                supplies.append(sr)
            H = build_H(Interconnection.laplacian(g, block=m))
            M, verdict = global_condition(supplies, H)
            w, _ = eig_sym(M)
            assert w[-1] < -1e-10, f"variant {variant} violated soundness"
            assert verdict.satisfied

    def test_dual_variants_imply_dual_condition(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            g = random_connected_graph(rng, n_max=10)
            b = laplacian_bundle(g)
            m = int(rng.integers(1, 3))
            variant = "abcd"[trial % 4]
            alpha = s_shared = None
            duals = []
            for i in range(g.n_nodes):
                dsr, alpha, s_shared = sample_dual_in_variant(
                    rng, variant, b.degrees[i], m, alpha=alpha, s_shared=s_shared
                )
                duals.append(dsr)
            H = build_H(Interconnection.laplacian(g, block=m))
            M, verdict = dual_global_condition(duals, H)
            w, _ = eig_sym(M)
            assert w[0] > 1e-10
            assert verdict.satisfied


class TestComparisonConditions:
    def test_diagonal_bounds_imply_output_strict(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            g = random_connected_graph(rng, n_max=8)
            b = laplacian_bundle(g)
            m = int(rng.integers(1, 3))
            Q_hat, R_hat = [], []
            for d_i in b.degrees:
                Q_hat.append(np.diag(rng.uniform(1e-3, d_i - 1e-3, size=m)))
                R_hat.append(np.diag(rng.uniform(1e-3, 1 / (2 * d_i) - 1e-3, size=m)))
            assert comparison_conditions(b, "diagonal", Q_hat, R_hat)
            assert comparison_conditions(b, "output_strict", Q_hat, R_hat)

    def test_state_strict_with_identity_c_matches_output_strict(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(rng, n_max=6)
        b = laplacian_bundle(g)
        m = 2
        Q_hat = [random_psd(rng, m) + 0.5 * np.eye(m) for _ in range(g.n_nodes)]
        R_hat = [np.diag(rng.uniform(0.01, 0.05, size=m)) for _ in range(g.n_nodes)]
        C = np.eye(m * g.n_nodes)
        assert comparison_conditions(b, "state_strict", Q_hat, R_hat, C=C) == \
            comparison_conditions(b, "output_strict", Q_hat, R_hat)

    def test_diagonal_rejects_boundary(self):
        b = laplacian_bundle(two_node_graph())
        Q_hat = [np.array([[1.0]]), np.array([[0.5]])]
        R_hat = [np.array([[0.0]]), np.array([[0.1]])]  # R = 0 is excluded
        assert not comparison_conditions(b, "diagonal", Q_hat, R_hat)

    def test_state_strict_needs_c(self):
        b = laplacian_bundle(two_node_graph())
        with pytest.raises(ValueError, match="output map"):
            comparison_conditions(b, "state_strict", [np.eye(1)] * 2, [np.eye(1)] * 2)


class TestQmiNecessity:
    def test_identity_case_holds(self):
        assert qmi_nonempty_check([SupplyRate(-np.eye(2), np.zeros((2, 2)), np.eye(2))])

    def test_positive_q_fails(self):
        assert not qmi_nonempty_check([SupplyRate(np.eye(2), np.zeros((2, 2)), np.eye(2))])

    def test_never_violated_when_global_holds(self):
        rng = np.random.default_rng(10)
        hits = 0
        for _ in range(60):
            n_nodes = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            supplies = [
                SupplyRate(
                    random_sym_with_eigs(rng, m, -3, -0.1),
                    rng.standard_normal((m, m)) * 0.5,
                    random_sym_with_eigs(rng, m, 0.05, 1.0),
                )
                for _ in range(n_nodes)
            ]
            H = rng.standard_normal((m * n_nodes, m * n_nodes)) * 0.4
            _, verdict = global_condition(supplies, H)
            if verdict.satisfied:
                hits += 1
                assert qmi_nonempty_check(supplies)
        assert hits > 5  # the fuzz actually exercised the implication


class TestClosedLoopAssembly:
    def test_decoupled_is_block_diagonal(self):
        nodes = [
            LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]], time_domain="dt"),
            LinearNode([[0.2]], [[1.0]], [[0.1]], [[1.0]], time_domain="dt"),
        ]
        Ks = [np.array([[0.0]]), np.array([[0.1]])]
        A = assemble_closed_loop(nodes, Ks, np.zeros((2, 2)))
        assert np.allclose(A, np.diag([0.5, 0.3]))

    def test_two_node_hand_computation(self):
        nodes = [
            LinearNode([[0.5]], [[1.0]], [[0.2]], [[1.0]], time_domain="dt")
            for _ in range(2)
        ]
        Ks = [np.array([[-0.1]]), np.array([[-0.2]])]
        H = np.array([[-1.0, 1.0], [1.0, -1.0]])
        A = assemble_closed_loop(nodes, Ks, H)
        assert np.allclose(A, [[0.4 - 0.2, 0.2], [0.2, 0.3 - 0.2]])

    def test_missing_controller(self):
        nodes = [LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]], time_domain="dt")]
        with pytest.raises(ValueError, match="missing a controller"):
            assemble_closed_loop(nodes, [None], np.zeros((1, 1)))

    def test_decoupled_radius_is_nodewise_max(self):
        nodes = [
            LinearNode([[a]], [[0.0]], [[0.0]], [[1.0]], time_domain="dt")
            for a in (0.3, -0.8, 0.6)
        ]
        Ks = [np.zeros((1, 1))] * 3
        A = assemble_closed_loop(nodes, Ks, np.zeros((3, 3)))
        assert stability_report(A, "dt").spectral_radius == pytest.approx(0.8)


class TestStabilityReport:
    def test_dt_stable(self):
        rep = stability_report(np.diag([0.5]), "dt")
        assert rep.stable and rep.spectral_radius == pytest.approx(0.5)

    def test_ct_nominal_closed_loop(self):
        M = np.array([[-2.0, 100.0], [-400.0, -480.0]])
        rep = stability_report(M, "ct")
        assert rep.stable
        assert rep.spectral_abscissa == pytest.approx(-110.1527608, rel=1e-6)

    def test_euler_beyond_critical_step_unstable(self):
        M = np.array([[-2.0, 100.0], [-400.0, -480.0]])
        h_star = min(-2 * lam.real / abs(lam) ** 2
                     for lam in np.linalg.eigvals(M))
        for h, expect in ((0.9 * h_star, True), (1.1 * h_star, False)):
            rep = stability_report(np.eye(2) + h * M, "dt")
            assert rep.stable is expect


def make_network(a_values, g=0.1, weight=1.0, controllers=None):
    nodes = [
        LinearNode([[a]], [[1.0]], [[g]], [[1.0]], time_domain="dt")
        for a in a_values
    ]
    graph = WeightedGraph(len(nodes), tuple(
        (i, i + 1, weight) for i in range(len(nodes) - 1)
    ))
    return NetworkModel(
        nodes=nodes,
        interconnection=Interconnection.laplacian(graph, block=1),
        controllers=controllers,
    )


class TestSimulate:
    def test_zero_initial_state_stays_zero(self):
        net = make_network([0.5, 0.3])
        traj = simulate(net, np.zeros(2), 20)
        assert np.allclose(traj.states, 0.0)
        assert not traj.truncated

    def test_decoupled_geometric_decay(self):
        net = make_network([0.5, -0.25], g=0.0)
        traj = simulate(net, np.array([1.0, 1.0]), 10)
        assert np.allclose(traj.states[:, 0], 0.5 ** np.arange(11))
        assert np.allclose(traj.states[:, 1], (-0.25) ** np.arange(11))

    def test_overflow_truncates_with_message(self):
        net = make_network([3.0, 3.0], g=0.0)
        traj = simulate(net, np.ones(2), 200, overflow_limit=1e6)
        assert traj.truncated
        assert "overflow" in traj.message
        assert traj.states.shape[0] < 201

    def test_nonlinear_node_joins_the_loop(self):
        saturating = NonlinearNode(
            state_dim=1, input_dim=1, output_dim=1,
            update=lambda x, u: 0.5 * np.tanh(x) + 0.1 * u,
            output=lambda x: x,
        )
        linear = LinearNode([[0.4]], [[1.0]], [[0.1]], [[1.0]], time_domain="dt")
        graph = WeightedGraph(2, ((0, 1, 1.0),))
        net = NetworkModel(
            nodes=[saturating, linear],
            interconnection=Interconnection.laplacian(graph, block=1),
        )
        traj = simulate(net, np.array([0.5, -0.5]), 50)
        assert not traj.truncated
        assert np.max(np.abs(traj.states[-1])) < 1e-3

    def test_nonlinear_node_must_fix_origin(self):
        with pytest.raises(ValueError, match="origin"):
            NonlinearNode(1, 1, 1, update=lambda x, u: x + 1.0, output=lambda x: x)

    def test_asserted_nonlinear_supplies_certify_the_network(self):
        # caller asserts the saturating node is (-0.5, 0, 0.02)-dissipative
        # for V(x) = x^2 (via (a+b)^2 <= 2a^2 + 2b^2 and tanh^2 x <= x^2);
        # the global condition then certifies the coupled pair, and the
        # simulated storage sum never increases
        def update(x, u):
            return 0.5 * np.tanh(x) + 0.1 * u

        nodes = [
            NonlinearNode(1, 1, 1, update=update, output=lambda x: x)
            for _ in range(2)
        ]
        sr = SupplyRate([[-0.5]], [[0.0]], [[0.02]])
        graph = WeightedGraph(2, ((0, 1, 1.0),))
        ic = Interconnection.laplacian(graph, block=1)
        H = build_H(ic)
        M, verdict = global_condition([sr, sr], H)
        assert verdict.satisfied
        net = NetworkModel(nodes=nodes, interconnection=ic, supplies=[sr, sr])
        traj = simulate(net, np.array([0.8, -0.6]), 80)
        V = np.sum(traj.states ** 2, axis=1)
        assert np.max(np.diff(V)) <= 1e-12
        assert np.max(np.abs(traj.states[-1])) < 1e-6

    def test_controllers_applied(self):
        net = make_network([1.5], g=0.0, controllers=[np.array([[-1.0]])])
        # single node, no coupling: x+ = (1.5 - 1.0) x
        traj = simulate(net, np.array([1.0]), 5)
        assert np.allclose(traj.states[:, 0], 0.5 ** np.arange(6))

    def test_non_finite_state_stays_in_its_node(self):
        net = make_network([0.5, 0.3, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = simulate(net, np.array([np.inf, 1.0, 2.0]), 10)
        assert traj.truncated and traj.states.shape[0] == 1
        assert np.array_equal(traj.outputs[0], [np.inf, 1.0, 2.0])
        # u = H y with a sparse H: only node 0's neighbour sees the inf
        assert np.array_equal(traj.inputs[0], [-np.inf, np.inf, -1.0])

    @pytest.mark.parametrize("a_last, truncates", [(0.7, False), (3.0, True)])
    def test_matches_per_node_reference(self, a_last, truncates):
        from dissinet.dissipativity import StorageCertificate

        rng = np.random.default_rng(5)
        nodes = [
            LinearNode([[0.9, 0.2], [-0.1, 0.8]], [[0.0], [1.0]], [[0.1], [0.05]],
                       [[1.0, 0.5]]),
            NonlinearNode(1, 1, 1, update=lambda x, u: 0.5 * np.tanh(x) + 0.1 * u,
                          output=lambda x: np.sin(x)),
            LinearNode([[a_last]], [[1.0]], [[0.1]], [[1.0]]),
        ]
        certificates = []
        for node in nodes:
            W = rng.standard_normal((node.n, node.n))
            certificates.append(StorageCertificate(
                P=np.eye(node.n), storage_matrix=W @ W.T + np.eye(node.n),
                K=np.zeros((1, node.n)),
                supply=SupplyRate([[-1.0]], [[0.5]], [[0.4]]), margin=0.0))
        graph = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 0.5)))
        net = NetworkModel(
            nodes=nodes, interconnection=Interconnection.laplacian(graph),
            controllers=[np.array([[-0.1, -0.3]]), None, None],
            certificates=certificates,
        )
        x0 = np.array([0.6, -0.4, 0.8, -0.5])
        traj = simulate(net, x0, 120, overflow_limit=1e6)
        ref = per_node_simulation(net, x0, 120, overflow_limit=1e6)
        assert traj.truncated == truncates == (len(ref["states"]) < 121)
        for name in ("states", "outputs", "inputs", "storage"):
            got, want = getattr(traj, name), ref[name]
            assert got.shape == want.shape
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(want))))

    def test_linear_network_steps_the_closed_loop(self):
        rng = np.random.default_rng(8)
        graph = random_connected_graph(rng, n_max=6)
        nodes = [
            LinearNode(0.4 * rng.standard_normal((2, 2)), rng.standard_normal((2, 1)),
                       0.1 * rng.standard_normal((2, 1)), rng.standard_normal((1, 2)))
            for _ in range(graph.n_nodes)
        ]
        gains = [0.1 * rng.standard_normal((1, 2)) for _ in nodes]
        net = NetworkModel(nodes=nodes, interconnection=Interconnection.laplacian(graph),
                           controllers=gains)
        traj = simulate(net, rng.standard_normal(2 * graph.n_nodes), 50)
        A_cl = assemble_closed_loop(nodes, gains, net.H())
        scale = np.max(np.abs(traj.states))
        np.testing.assert_allclose(traj.states[1:], traj.states[:-1] @ A_cl.T,
                                   rtol=0, atol=1e-12 * scale)


def per_node_simulation(net, x0, steps, overflow_limit):
    """Reference for :func:`simulate`: u = H y, then every node's own update
    x+ = A x + G u + B (K x), or its nonlinear map."""
    H = net.H()
    parts = np.split(x0, np.cumsum([node.n for node in net.nodes])[:-1])
    u_splits = np.cumsum([node.m for node in net.nodes])[:-1]
    out = {"states": [], "outputs": [], "inputs": [], "storage": []}
    for k in range(steps + 1):
        y = np.concatenate([
            node.C @ x if isinstance(node, LinearNode) else np.atleast_1d(node.output(x))
            for node, x in zip(net.nodes, parts)
        ])
        u = H @ y
        x = np.concatenate(parts)
        out["states"].append(x)
        out["outputs"].append(y)
        out["inputs"].append(u)
        out["storage"].append(sum(float(xi @ c.storage_matrix @ xi)
                                  for xi, c in zip(parts, net.certificates)))
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > overflow_limit or k == steps:
            break
        new_parts = []
        for node, K, xi, ui in zip(net.nodes, net.controllers, parts, np.split(u, u_splits)):
            if isinstance(node, LinearNode):
                xn = node.A @ xi + node.G @ ui
                new_parts.append(xn if K is None else xn + node.B @ (K @ xi))
            else:
                new_parts.append(np.atleast_1d(node.update(xi, ui)))
        parts = new_parts
    return {name: np.array(rows) for name, rows in out.items()}


class TestStorageCheck:
    def test_zero_trajectory(self):
        from dissinet.dissipativity import StorageCertificate

        net = make_network([0.5, 0.3])
        cert = StorageCertificate(
            P=np.eye(1), storage_matrix=np.eye(1), K=np.zeros((1, 1)),
            supply=SupplyRate([[-1.0]], [[0.5]], [[0.4]]), margin=0.0,
        )
        net.certificates = [cert, cert]
        traj = simulate(net, np.zeros(2), 10)
        assert storage_decrease_check(traj) == 0.0

    def test_requires_storage_column(self):
        net = make_network([0.5, 0.3])
        traj = simulate(net, np.zeros(2), 5)
        with pytest.raises(ValueError, match="storage"):
            storage_decrease_check(traj)

    def test_bad_gains_can_increase_storage(self):
        from dissinet.dissipativity import StorageCertificate

        net = make_network([1.4, 1.4], g=0.0)
        cert = StorageCertificate(
            P=np.eye(1), storage_matrix=np.eye(1), K=np.zeros((1, 1)),
            supply=SupplyRate([[-1.0]], [[0.5]], [[0.4]]), margin=0.0,
        )
        net.certificates = [cert, cert]
        traj = simulate(net, np.ones(2), 10)
        assert storage_decrease_check(traj) > 0.0


class TestNetworkJson:
    def test_round_trip(self):
        net = make_network([0.5, 0.3], controllers=[np.eye(1), np.eye(1)])
        net.supplies = [SupplyRate([[-1.0]], [[0.5]], [[0.4]])] * 2
        back = NetworkModel.from_json_dict(net.to_json_dict())
        assert np.allclose(back.nodes[0].A, net.nodes[0].A)
        assert np.allclose(back.supplies[1].R, net.supplies[1].R)
        assert np.allclose(back.H(), net.H())

    def test_nonlinear_placeholder_rejected_on_load(self):
        saturating = NonlinearNode(
            1, 1, 1, update=lambda x, u: 0.5 * x + u, output=lambda x: x,
        )
        linear = LinearNode([[0.4]], [[1.0]], [[0.1]], [[1.0]], time_domain="dt")
        net = NetworkModel(
            nodes=[saturating, linear],
            interconnection=Interconnection.laplacian(two_node_graph(), block=1),
        )
        payload = net.to_json_dict()
        assert payload["nodes"][0] == {"nonlinear": True, "n": 1, "m": 1, "p": 1}
        with pytest.raises(ValueError, match="nonlinear"):
            NetworkModel.from_json_dict(payload)
