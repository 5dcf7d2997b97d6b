import numpy as np
import pytest

from helpers import random_stable_node
from dissinet.dissipativity import (
    DualSupplyRate,
    LinearNode,
    StorageCertificate,
    SupplyRate,
    closed_loop_dissipation_gap,
    dualize_supply,
    stabilizability,
    detectability,
)
from dissinet import lmi, synthesis
from dissinet.matrix_core import definiteness
from dissinet.microgrid import (
    DguParams,
    MicrogridSpec,
    _microgrid_population,
    build_microgrid,
    dgu_ct_matrices,
    zoh_discretize,
)
from dissinet.network import dual_decentralized_check
from dissinet.synthesis import (
    SynthesisOptions,
    dual_control,
    joint_decentralized_synthesis,
    primal_control,
)

REFERENCE_SUPPLY = SupplyRate([[-1.0]], [[0.5]], [[0.4]])


def scalar_node():
    return LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]], time_domain="dt")


def nominal_dgu_dt(h=1e-3):
    params = DguParams(0.2, 2.5e-3, 0.01, 0.02)
    return zoh_discretize(dgu_ct_matrices(params), h)


class TestPrimalControl:
    def test_scalar_reference_node(self):
        cert = primal_control(scalar_node(), REFERENCE_SUPPLY,
                              SynthesisOptions(seed=0))
        assert cert is not None
        gap = closed_loop_dissipation_gap(
            scalar_node(), cert.K, REFERENCE_SUPPLY, cert.storage_matrix
        )
        assert gap <= 1e-8

    def test_unstabilizable_node_not_found(self):
        node = LinearNode([[2.0]], [[0.0]], [[0.1]], [[1.0]], time_domain="dt")
        assert not stabilizability(node.A, node.B)
        cert = primal_control(node, REFERENCE_SUPPLY,
                              SynthesisOptions(seed=0, max_iters=400))
        assert cert is None

    def test_static_node_trivially_dissipative(self):
        node = LinearNode([[0.0]], [[0.0]], [[0.0]], [[1.0]], time_domain="dt")
        cert = primal_control(node, SupplyRate([[-1.0]], [[0.0]], [[1.0]]),
                              SynthesisOptions(seed=0))
        assert cert is not None
        assert np.allclose(cert.K, 0.0)

    def test_requires_negative_definite_q(self):
        with pytest.raises(ValueError, match="Q < 0"):
            primal_control(scalar_node(), SupplyRate([[1.0]], [[0.5]], [[0.4]]))

    def test_rejects_ct_node(self):
        node = LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]], time_domain="ct")
        with pytest.raises(ValueError, match="DT"):
            primal_control(node, REFERENCE_SUPPLY)

    def test_storage_is_inverse_of_p(self):
        cert = primal_control(scalar_node(), REFERENCE_SUPPLY,
                              SynthesisOptions(seed=1))
        assert np.allclose(cert.P @ cert.storage_matrix, np.eye(1), atol=1e-9)


class TestDualControl:
    def test_cross_oracle_with_primal(self):
        # dualize the reference triple, synthesize through the dual LMI,
        # and confirm the closed loop against the primal dissipation check
        node = scalar_node()
        dsr = dualize_supply(REFERENCE_SUPPLY)
        cert = dual_control(node, dsr, SynthesisOptions(seed=0))
        assert cert is not None
        assert np.allclose(cert.supply.Q, REFERENCE_SUPPLY.Q, atol=1e-9)
        gap = closed_loop_dissipation_gap(node, cert.K, REFERENCE_SUPPLY,
                                          cert.storage_matrix)
        assert gap <= 1e-8

    def test_undetectable_node_still_verifies_honestly(self):
        # with C = 0 the output is identically zero and the closed loop is
        # dissipative for any stabilizing gain, so the dual route may well
        # return a certificate; detectability is reported false regardless,
        # and whatever comes back must survive the independent check
        node = LinearNode([[2.0]], [[1.0]], [[0.1]], [[0.0]], time_domain="dt")
        assert not detectability(node.C, node.A)
        dsr = dualize_supply(REFERENCE_SUPPLY)
        cert = dual_control(node, dsr,
                            SynthesisOptions(seed=0, max_iters=400))
        assert cert is not None
        gap = closed_loop_dissipation_gap(node, cert.K, cert.supply,
                                          cert.storage_matrix)
        assert gap <= 1e-8

    def test_unstabilizable_node_not_found(self):
        # stabilizability genuinely is necessary for the dual design LMI
        node = LinearNode([[2.0]], [[0.0]], [[0.1]], [[1.0]], time_domain="dt")
        dsr = dualize_supply(REFERENCE_SUPPLY)
        cert = dual_control(node, dsr,
                            SynthesisOptions(seed=0, max_iters=400))
        assert cert is None

    def test_identity_scale_boundary_case(self):
        # feasible only with the dissipation inequality holding with
        # equality; the margin-zero fallback must still verify it
        node = LinearNode(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2),
                          time_domain="dt")
        dsr = DualSupplyRate(-np.eye(2), np.zeros((2, 2)), np.eye(2))
        cert = dual_control(node, dsr, SynthesisOptions(seed=0))
        assert cert is not None
        assert cert.margin >= -1e-8

    def test_sign_preconditions(self):
        with pytest.raises(ValueError, match="dual Q < 0"):
            dual_control(scalar_node(),
                         DualSupplyRate([[1.0]], [[0.0]], [[1.0]]))


class TestJointSynthesis:
    def test_nominal_dgu_variant_a(self):
        # single resistive line, resistance-valued weight: degree 0.05
        res = joint_decentralized_synthesis(
            nominal_dgu_dt(), "a", 0.05, alpha=1.0, options=SynthesisOptions(seed=0)
        )
        assert res is not None
        cert, dsr = res
        assert cert.variant == "a"
        assert dual_decentralized_check(0.05, dsr, "a", alpha=1.0)
        gap = closed_loop_dissipation_gap(nominal_dgu_dt(), cert.K, cert.supply,
                                          cert.storage_matrix)
        assert gap <= 1e-8

    @pytest.mark.parametrize("variant", ["c", "d"])
    def test_nominal_dgu_parameter_free_variants(self, variant):
        res = joint_decentralized_synthesis(
            nominal_dgu_dt(), variant, 0.5, options=SynthesisOptions(seed=0)
        )
        assert res is not None
        cert, dsr = res
        assert dual_decentralized_check(0.5, dsr, variant)

    def test_variant_b_with_shared_block(self):
        res = joint_decentralized_synthesis(
            nominal_dgu_dt(), "b", 0.5, s_shared=np.array([[0.2]]),
            options=SynthesisOptions(seed=0),
        )
        assert res is not None
        _, dsr = res
        assert dual_decentralized_check(0.5, dsr, "b", s_shared=np.array([[0.2]]))

    def test_alpha_at_least_one_drops_r_floor(self):
        # alpha >= 1 leaves only dual R > 0; the returned dual R may be tiny
        res = joint_decentralized_synthesis(
            nominal_dgu_dt(), "a", 0.05, alpha=1.5, options=SynthesisOptions(seed=0)
        )
        assert res is not None
        _, dsr = res
        assert definiteness(dsr.R, "PD").satisfied

    def test_parameter_validation(self):
        node = nominal_dgu_dt()
        with pytest.raises(ValueError, match="alpha"):
            joint_decentralized_synthesis(node, "a", 0.5)
        with pytest.raises(ValueError, match="s_shared"):
            joint_decentralized_synthesis(node, "b", 0.5)
        with pytest.raises(ValueError, match="degree"):
            joint_decentralized_synthesis(node, "a", 0.0, alpha=1.0)
        with pytest.raises(ValueError, match="variant"):
            joint_decentralized_synthesis(node, "e", 0.5)

    def test_supply_is_block_inverse_of_dual(self):
        res = joint_decentralized_synthesis(
            nominal_dgu_dt(), "a", 0.5, alpha=1.0, options=SynthesisOptions(seed=3)
        )
        cert, dsr = res
        stack = cert.supply.stacked() @ dsr.stacked()
        assert np.allclose(stack, np.eye(2), atol=1e-8)


class TestPrimalDualConsistency:
    def test_cross_route_verification_fuzz(self):
        # wherever the primal route certifies a triple, the dual route with
        # the blockwise-inverted triple must also pass the closed-loop check
        # whenever it returns a certificate (and vice versa)
        rng = np.random.default_rng(42)
        tried = both = 0
        while both < 8 and tried < 60:
            tried += 1
            n = int(rng.integers(1, 4))
            node = random_stable_node(rng, n)
            sr = SupplyRate(
                [[-float(rng.uniform(0.5, 2.0))]],
                [[float(rng.uniform(-0.5, 0.5))]],
                [[float(rng.uniform(0.2, 1.0))]],
            )
            opts = SynthesisOptions(seed=tried, max_iters=600)
            cert_p = primal_control(node, sr, opts)
            if cert_p is None:
                continue
            gap_p = closed_loop_dissipation_gap(node, cert_p.K, sr,
                                                cert_p.storage_matrix)
            assert gap_p <= 1e-8
            cert_d = dual_control(node, dualize_supply(sr), opts)
            if cert_d is None:
                continue
            gap_d = closed_loop_dissipation_gap(node, cert_d.K, cert_d.supply,
                                                cert_d.storage_matrix)
            assert gap_d <= 1e-8
            both += 1
        assert both >= 8


def recorded_solves(monkeypatch):
    """Route synthesis through a recorder of every LMI solution."""
    solutions = []

    def recording(problems, options):
        sols = lmi._solve_all(problems, options)
        solutions.extend(sols)
        return sols

    monkeypatch.setattr(synthesis, "_solve_all", recording)
    return solutions


class TestMicrogridUnits:
    @pytest.mark.parametrize("topology_seed,degree", [(2, 1.5), (3, 1.55)])
    def test_variant_c_certifies_hub(self, topology_seed, degree):
        # the hubs with the largest weighted degree over these topologies;
        # a feasible point exists, so the solver must find it
        net = build_microgrid(MicrogridSpec(n_dgus=200, topology_seed=topology_seed))
        degrees = -np.diag(net.H())
        hub = int(np.argmax(degrees))
        assert degrees[hub] == pytest.approx(degree)
        node = net.nodes[hub]
        res = joint_decentralized_synthesis(node, "c", degrees[hub])
        assert res is not None
        cert, dsr = res
        assert dual_decentralized_check(degrees[hub], dsr, "c")
        gap = closed_loop_dissipation_gap(node, cert.K, cert.supply,
                                          cert.storage_matrix)
        assert gap <= 1e-8

    def test_degree_two_units_verify_within_newton_budget(self, monkeypatch):
        # the degree-2 units (weighted degree 0.1) at h=1e-4 were the slow
        # tail of the pipeline's synthesis
        spec = MicrogridSpec(n_dgus=100)
        bundle, _, ct_nodes = _microgrid_population(spec)
        units = [i for i, d in enumerate(bundle.degrees) if d == pytest.approx(0.1)]
        assert units
        solutions = recorded_solves(monkeypatch)
        for i in units:
            node = zoh_discretize(ct_nodes[i], 1e-4)
            assert joint_decentralized_synthesis(
                node, spec.variant, bundle.degrees[i], alpha=spec.alpha) is not None
        assert len(solutions) == len(units)
        assert all(s.verified and s.iterations <= 100 for s in solutions)

    def test_margin_ladder_solves_once(self, monkeypatch):
        # the boundary case verifies only at margin zero; the lower ladder
        # levels judge the one solved point instead of searching again
        solutions = recorded_solves(monkeypatch)
        node = LinearNode(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2),
                          time_domain="dt")
        dsr = DualSupplyRate(-np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert dual_control(node, dsr) is not None
        assert len(solutions) == 1
        assert not solutions[0].verified


def recorded_problems(monkeypatch, run):
    """The (problem, options) pairs that ``run`` hands the solver."""
    seen = []

    def recording(problems, options):
        seen.extend(zip(problems, options))
        return lmi._solve_all(problems, options)

    with monkeypatch.context() as m:
        m.setattr(synthesis, "_solve_all", recording)
        run()
    return seen


def stage_jobs(h, n_dgus=100):
    """The joint LMIs of one demo-microgrid step size, with the options the
    pipeline solves them with."""
    spec = MicrogridSpec(n_dgus=n_dgus)
    bundle, _, ct_nodes = _microgrid_population(spec)
    problems, options = [], []
    for node, degree in zip(ct_nodes, bundle.degrees):
        problem, consts, initial, _ = synthesis._joint_problem(
            zoh_discretize(node, h), spec.variant, degree, spec.alpha, None)
        problems.append(problem)
        options.append(lmi.SolveOptions(target_margin=synthesis._auto_margin(consts),
                                        initial=initial))
    return problems, options


def assert_same_solution(a, b):
    assert a.status == b.status and a.iterations == b.iterations
    assert a.achieved_margin == b.achieved_margin
    assert a.assignment.keys() == b.assignment.keys()
    for name in a.assignment:
        assert np.array_equal(a.assignment[name], b.assignment[name]), name
    assert [r.min_eig for r in a.reports] == [r.min_eig for r in b.reports]
    assert [r.required for r in a.reports] == [r.required for r in b.reports]


class TestLockstep:
    @pytest.mark.parametrize("h", [1e-4, 1e-3, 5e-3])
    def test_stage_equals_single_solves(self, h):
        # a stage solved as one batch gives every node exactly the solution
        # it gets alone
        problems, options = stage_jobs(h)
        batch = lmi._solve_all(problems, options)
        for problem, opts, sol in zip(problems, options, batch):
            assert sol.verified
            assert_same_solution(sol, lmi.solve(problem, opts))

    def test_verified_start_point_comes_back_unchanged(self):
        # a node whose warm start already verifies takes no step inside a
        # batch of nodes that do
        problems, options = stage_jobs(1e-3, n_dgus=6)
        alone = [lmi.solve(p, o) for p, o in zip(problems, options)]
        assert all(s.verified and s.iterations > 0 for s in alone)
        held = lmi.SolveOptions(target_margin=options[2].target_margin,
                                initial=alone[2].assignment)
        batch = lmi._solve_all(problems, options[:2] + [held] + options[3:])
        assert batch[2].verified and batch[2].iterations == 0
        for name, value in alone[2].assignment.items():
            assert np.array_equal(batch[2].assignment[name], value)
        for i in (0, 1, 3, 4, 5):
            assert_same_solution(batch[i], alone[i])

    def test_mixed_structures_are_grouped(self):
        # problems of different structures in one call are solved in their
        # own groups and come back in order
        joint, joint_opts = stage_jobs(1e-3, n_dgus=3)
        scalar = lmi.LmiProblem(
            variables=[lmi.MatrixVariable("x", (1, 1))],
            constraints=[lmi.LmiConstraint(lmi.BlockForm([1]).put_var(0, 0, "x").expr())],
            margin=5.0)
        problems = [joint[0], scalar, joint[1], scalar, joint[2]]
        options = [joint_opts[0], lmi.SolveOptions(), joint_opts[1],
                   lmi.SolveOptions(max_iters=1), joint_opts[2]]
        batch = lmi._solve_all(problems, options)
        for problem, opts, sol in zip(problems, options, batch):
            assert_same_solution(sol, lmi.solve(problem, opts))
        assert batch[3].iterations == 1

    def test_backtracking_in_a_batch_equals_single_solves(self, monkeypatch):
        # random primal problems whose damped steps sometimes leave the
        # domain, so the line search halves some problems' steps while the
        # rest of the batch moves on
        rng = np.random.default_rng(404)
        problems, options = [], []
        for k in range(1, 80):
            node = random_stable_node(rng, 1 + k % 2)
            if node.n == 2:
                problems += recorded_problems(monkeypatch, lambda: primal_control(
                    node, REFERENCE_SUPPLY, SynthesisOptions(max_iters=800)))
        problems, options = zip(*problems)
        failed_trials = []
        whitened = lmi._Compiled.whitened

        def counting(self, z, trial):
            ok, E, g = whitened(self, z, trial)
            failed_trials.append(np.count_nonzero(trial) - np.count_nonzero(ok))
            return ok, E, g

        monkeypatch.setattr(lmi._Compiled, "whitened", counting)
        batch = lmi._solve_all(list(problems), list(options))
        assert sum(failed_trials) > 0
        for problem, opts, sol in zip(problems, options, batch):
            assert_same_solution(sol, lmi.solve(problem, opts))

    def test_pipeline_stage_equals_per_node_synthesis(self):
        spec = MicrogridSpec(n_dgus=12)
        bundle, _, ct_nodes = _microgrid_population(spec)
        nodes = [zoh_discretize(node, 1e-3) for node in ct_nodes]
        batch = synthesis._joint_synthesis_all(nodes, spec.variant, bundle.degrees,
                                               alpha=spec.alpha)
        for node, degree, res in zip(nodes, bundle.degrees, batch):
            single = joint_decentralized_synthesis(node, spec.variant, degree,
                                                   alpha=spec.alpha)
            assert np.array_equal(res[0].K, single[0].K)
            assert np.array_equal(res[0].storage_matrix, single[0].storage_matrix)
            assert res[0].margin == single[0].margin
            assert np.array_equal(res[1].Q, single[1].Q)


class TestSynthesisRequest:
    def test_dispatches_each_mode(self):
        from dissinet.synthesis import SynthesisRequest

        node = scalar_node()
        opts = SynthesisOptions(seed=0)
        primal = SynthesisRequest("primal", supply=REFERENCE_SUPPLY)
        assert primal.run(node, opts) is not None
        dual = SynthesisRequest("dual", dual_supply=dualize_supply(REFERENCE_SUPPLY))
        assert dual.run(node, opts) is not None
        joint = SynthesisRequest("joint", variant="a", degree=0.05, alpha=1.0)
        cert, dsr = joint.run(nominal_dgu_dt(), opts)
        assert cert.variant == "a"

    def test_mode_validation(self):
        from dissinet.synthesis import SynthesisRequest

        with pytest.raises(ValueError, match="mode"):
            SynthesisRequest("riccati")
        with pytest.raises(ValueError, match="supply"):
            SynthesisRequest("primal")
        with pytest.raises(ValueError, match="variant"):
            SynthesisRequest("joint")


class TestCertificateJson:
    def test_round_trip(self):
        cert = primal_control(scalar_node(), REFERENCE_SUPPLY,
                              SynthesisOptions(seed=0))
        payload = cert.to_json_dict()
        assert set(payload) == {"P", "K", "supply", "margin", "variant"}
        back = StorageCertificate.from_json_dict(payload)
        assert np.allclose(back.P, cert.P)
        assert np.allclose(back.K, cert.K)
        assert np.allclose(back.storage_matrix, cert.storage_matrix, atol=1e-10)
        assert back.variant == "fixed"
