import csv
import json
import os

import numpy as np
import pytest

from dissinet.dissipativity import LinearNode
from dissinet.graph import is_connected
from dissinet.matrix_core import eig_general
from dissinet.graph import laplacian_bundle
from dissinet.microgrid import (
    DguParams,
    MicrogridSpec,
    PARAM_INTERVALS,
    REGION_VARIANT_BITS,
    _microgrid_population,
    build_microgrid,
    ct_stepsize_bound,
    dgu_ct_matrices,
    euler_discretize,
    feasible_region_sample,
    run_pipeline,
    sample_params,
    write_region_csv,
    write_trajectory_csv,
    zoh_discretize,
)
from dissinet.network import (
    Interconnection,
    Trajectory,
    decentralized_check,
    global_condition,
    stability_report,
    storage_decrease_check,
)
from dissinet.dissipativity import SupplyRate

NOMINAL = DguParams(r_int=0.2, l_ind=2.5e-3, c_cap=0.01, y_load=0.02)
BASELINE_GAIN = np.array([[0.0, -1.0]])


class TestDguModel:
    def test_nominal_matrices(self):
        node = dgu_ct_matrices(NOMINAL)
        assert np.allclose(node.A, [[-2.0, 100.0], [-400.0, -80.0]])
        assert np.allclose(node.B, [[0.0], [400.0]])
        assert np.allclose(node.G, [[100.0], [0.0]])
        assert np.allclose(node.C, [[1.0, 0.0]])
        assert node.time_domain == "ct"

    def test_closed_loop_eigenvalues_by_quadratic_formula(self):
        node = dgu_ct_matrices(NOMINAL)
        A_cl = node.A + node.B @ BASELINE_GAIN
        assert np.allclose(A_cl, [[-2.0, 100.0], [-400.0, -480.0]])
        w = np.sort(eig_general(A_cl).real)
        tr, det = np.trace(A_cl), np.linalg.det(A_cl)
        disc = np.sqrt(tr * tr - 4 * det)
        assert w == pytest.approx([(tr - disc) / 2, (tr + disc) / 2])

    def test_vanishing_load_conductance(self):
        p = DguParams(r_int=0.2, l_ind=2.5e-3, c_cap=0.01, y_load=1e-12)
        assert dgu_ct_matrices(p).A[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DguParams(r_int=0.0, l_ind=1e-3, c_cap=1e-2, y_load=1e-2)


class TestParamSampling:
    def test_seed_reproducibility(self):
        assert sample_params(11) == sample_params(11)

    def test_draws_inside_intervals(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            p = sample_params(rng)
            for name, value in (("r_int", p.r_int), ("l_ind", p.l_ind),
                                ("c_cap", p.c_cap), ("y_load", p.y_load)):
                center, half = PARAM_INTERVALS[name]
                assert center - half <= value <= center + half

    def test_generator_stream_advances(self):
        rng = np.random.default_rng(1)
        assert sample_params(rng) != sample_params(rng)


class TestStepsizeBound:
    def test_real_pole(self):
        assert ct_stepsize_bound([-1.0]) == pytest.approx(2.0)

    def test_conjugate_pair_formula(self):
        a, b = 2.0, 5.0
        got = ct_stepsize_bound([complex(-a, b), complex(-a, -b)])
        assert got == pytest.approx(2 * a / (a * a + b * b))

    def test_nominal_closed_loop_near_five_ms(self):
        node = dgu_ct_matrices(NOMINAL)
        eigs = eig_general(node.A + node.B @ BASELINE_GAIN)
        h_star = ct_stepsize_bound(eigs)
        assert 0.0050 <= h_star <= 0.0058

    def test_rejects_unstable_spectrum(self):
        with pytest.raises(ValueError, match="Hurwitz"):
            ct_stepsize_bound([-1.0, 0.5])


class TestDiscretization:
    def test_euler_small_step_is_identity_like(self):
        node = dgu_ct_matrices(NOMINAL)
        dt = euler_discretize(node, 1e-12)
        assert np.allclose(dt.A, np.eye(2), atol=1e-9)

    def test_euler_scalar_stability_boundary(self):
        node = LinearNode([[-2.0]], [[1.0]], [[1.0]], [[1.0]], time_domain="ct")
        stable = euler_discretize(node, 0.9)   # |1 - 1.8| < 1
        unstable = euler_discretize(node, 1.1)  # |1 - 2.2| > 1
        assert abs(stable.A[0, 0]) < 1.0 < abs(unstable.A[0, 0])

    def test_euler_nominal_dgu_beyond_bound_unstable(self):
        node = dgu_ct_matrices(NOMINAL)
        closed = LinearNode(node.A + node.B @ BASELINE_GAIN, node.B, node.G,
                            node.C, time_domain="ct")
        dt = euler_discretize(closed, 0.006)
        assert stability_report(dt.A, "dt").spectral_radius > 1.0

    def test_euler_eigenvalue_map_is_affine(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((4, 4))
        h = 0.37
        lhs = np.sort_complex(eig_general(np.eye(4) + h * M))
        rhs = np.sort_complex(1.0 + h * eig_general(M))
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_zoh_static_limit(self):
        node = LinearNode(np.zeros((2, 2)), np.ones((2, 1)), np.ones((2, 1)),
                          np.ones((1, 2)), time_domain="ct")
        dt = zoh_discretize(node, 0.25)
        assert np.allclose(dt.A, np.eye(2))
        assert np.allclose(dt.B, 0.25 * node.B)
        assert np.allclose(dt.G, 0.25 * node.G)

    def test_zoh_scalar_closed_forms(self):
        a, h = -3.0, 0.2
        node = LinearNode([[a]], [[1.0]], [[2.0]], [[1.0]], time_domain="ct")
        dt = zoh_discretize(node, h)
        assert dt.A[0, 0] == pytest.approx(np.exp(a * h))
        assert dt.B[0, 0] == pytest.approx((np.exp(a * h) - 1) / a)
        assert dt.G[0, 0] == pytest.approx(2 * (np.exp(a * h) - 1) / a)

    def test_zoh_eigenvalue_map(self):
        node = dgu_ct_matrices(NOMINAL)
        h = 1e-3
        dt = zoh_discretize(node, h)
        lhs = np.sort_complex(eig_general(dt.A))
        rhs = np.sort_complex(np.exp(h * eig_general(node.A)))
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_zoh_of_hurwitz_is_schur_for_any_step(self):
        node = dgu_ct_matrices(NOMINAL)
        closed = LinearNode(node.A + node.B @ BASELINE_GAIN, node.B, node.G,
                            node.C, time_domain="ct")
        for h in (1e-4, 1e-2, 0.5, 3.0):
            dt = zoh_discretize(closed, h)
            assert stability_report(dt.A, "dt").stable

    def test_discretize_rejects_dt_input(self):
        node = LinearNode([[0.5]], [[1.0]], [[1.0]], [[1.0]], time_domain="dt")
        with pytest.raises(ValueError):
            euler_discretize(node, 0.1)


class TestBuildMicrogrid:
    def test_minimal_two_nodes(self):
        spec = MicrogridSpec(n_dgus=2)
        net = build_microgrid(spec)
        assert net.n_nodes == 2
        assert all(node.time_domain == "dt" for node in net.nodes)
        bundle = laplacian_bundle(net.interconnection.graph)
        assert bundle.graph.n_edges == 1
        assert bundle.degrees[0] == pytest.approx(spec.line_resistance)

    def test_hundred_node_tree(self):
        net = build_microgrid(MicrogridSpec(n_dgus=100))
        g = net.interconnection.graph
        assert g.n_edges == 99
        assert is_connected(g)
        assert np.all(laplacian_bundle(g).degrees > 0)

    def test_nodes_match_direct_discretization(self):
        spec = MicrogridSpec(n_dgus=3, h=2e-3)
        net = build_microgrid(spec)
        _, params, ct_nodes = _microgrid_population(spec)
        expected = zoh_discretize(ct_nodes[0], spec.h)
        assert np.allclose(net.nodes[0].A, expected.A)
        assert np.allclose(net.nodes[0].G, expected.G)

    def test_conductance_rule_available(self):
        spec = MicrogridSpec(n_dgus=2, line_weight="conductance")
        net = build_microgrid(spec)
        bundle = laplacian_bundle(net.interconnection.graph)
        assert bundle.degrees[0] == pytest.approx(1.0 / spec.line_resistance)

    def test_spec_json_round_trip(self):
        spec = MicrogridSpec(n_dgus=5, h=5e-4, variant="c")
        back = MicrogridSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict()))
        )
        assert back == spec

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="two"):
            MicrogridSpec(n_dgus=1)
        with pytest.raises(ValueError, match="h"):
            MicrogridSpec(n_dgus=2, h=0.0)
        with pytest.raises(ValueError, match="discretization"):
            MicrogridSpec(n_dgus=2, discretization="tustin")
        with pytest.raises(ValueError, match="line_weight"):
            MicrogridSpec(n_dgus=2, line_weight="admittance")


@pytest.fixture(scope="module")
def small_report():
    spec = MicrogridSpec(n_dgus=4, fig_stepsizes=(1e-3,), sim_steps=300)
    return spec, run_pipeline(spec)


class TestPipeline:
    def test_everything_synthesized(self, small_report):
        _, rep = small_report
        assert rep.all_synthesized

    def test_controlled_network_is_schur(self, small_report):
        _, rep = small_report
        for h, entry in rep.controlled.items():
            assert entry["spectral_radius"] < 1.0

    def test_trajectory_settles_with_monotone_storage(self, small_report):
        _, rep = small_report
        assert np.max(np.abs(rep.trajectory.states[-1])) < 1e-3
        assert storage_decrease_check(rep.trajectory) <= 1e-10

    def test_network_euler_bound_brackets(self, small_report):
        _, rep = small_report
        ct_eigs = rep.ct_eigenvalues
        assert np.all(ct_eigs.real < 0)
        for factor, expect in ((0.9, True), (1.1, False)):
            h = factor * rep.h_star
            radius = float(np.max(np.abs(1.0 + h * ct_eigs)))
            assert (radius < 1.0) == expect

    def test_determinism(self, small_report):
        spec, rep = small_report
        rep2 = run_pipeline(spec)
        assert np.array_equal(rep.trajectory.states, rep2.trajectory.states)
        assert rep.controlled.keys() == rep2.controlled.keys()
        for h in rep.controlled:
            k1 = [c.K for c in rep.controlled[h]["certificates"]]
            k2 = [c.K for c in rep2.controlled[h]["certificates"]]
            assert len(k1) == len(k2) == spec.n_dgus
            assert all(np.array_equal(a, b) for a, b in zip(k1, k2))

    def test_written_report_is_byte_identical(self, small_report, tmp_path):
        spec, rep = small_report
        rep2 = run_pipeline(spec)
        dirs = []
        for name, r in (("one", rep), ("two", rep2)):
            out = tmp_path / name
            r.write(out)
            dirs.append(out)
        for fname in os.listdir(dirs[0]):
            a = (dirs[0] / fname).read_bytes()
            b = (dirs[1] / fname).read_bytes()
            assert a == b, f"{fname} differs between reruns"

    def test_report_directory_layout(self, small_report, tmp_path):
        _, rep = small_report
        out = tmp_path / "report"
        rep.write(out)
        expected = {
            "graph.json", "params.csv", "eigs_ct.csv", "eigs_euler.csv",
            "eigs_dt_controlled.csv", "controllers.json", "trajectory.csv",
            "storage.csv",
        }
        assert expected <= set(os.listdir(out))
        with open(out / "graph.json") as fh:
            g = json.load(fh)
        assert g["n"] == 4
        with open(out / "controllers.json") as fh:
            ctl = json.load(fh)
        assert not any(v["failures"] for v in ctl["stepsizes"].values())
        header = (out / "eigs_dt_controlled.csv").read_text().splitlines()[0]
        assert header == "node_set,re,im,abs"

    def test_trajectory_csv_full_precision(self, small_report, tmp_path):
        # every row parses back exactly to (k, k*h, node, index, x_k[node, index])
        spec, rep = small_report
        out = tmp_path / "prec"
        rep.write(out)
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,time_s,node,state_index,value"
        states = rep.trajectory.states
        assert len(lines) - 1 == states.size
        for row, line in enumerate(lines[1:]):
            step, time_s, node, idx, value = line.split(",")
            k, col = divmod(row, states.shape[1])
            assert (int(step), float(time_s)) == (k, k * spec.h)
            assert (int(node), int(idx)) == divmod(col, 2)
            assert float(value) == states[k, col]


class TestBaselineNetworks:
    def test_twenty_seeded_networks_bracket_the_euler_bound(self):
        # baseline current feedback keeps every CT network Hurwitz, and the
        # computed largest Euler step is exact: stable at 0.9 h*, not at 1.1 h*
        from dissinet.microgrid import _baseline_gains
        from dissinet.network import assemble_closed_loop

        for seed in range(20):
            spec = MicrogridSpec(n_dgus=100, topology_seed=seed,
                                 param_seed=seed + 100, baseline_seed=seed + 200)
            bundle, _, ct_nodes = _microgrid_population(spec)
            gains = _baseline_gains(spec)
            A_cl = assemble_closed_loop(ct_nodes, gains, -bundle.laplacian)
            eigs = eig_general(A_cl)
            assert np.all(eigs.real < 0)
            h_star = ct_stepsize_bound(eigs)
            assert float(np.max(np.abs(1.0 + 0.9 * h_star * eigs))) < 1.0
            assert float(np.max(np.abs(1.0 + 1.1 * h_star * eigs))) >= 1.0


class TestParallelSynthesis:
    def test_thread_cap_preserves_results(self, monkeypatch):
        # The pipeline has no thread knob of its own: a leftover
        # DISSINET_THREADS is ignored, and callers that run pipelines on
        # their own (capped) pool get the serial results.
        from concurrent.futures import ThreadPoolExecutor

        spec = MicrogridSpec(n_dgus=6, fig_stepsizes=(1e-3,), sim_steps=50)
        serial = run_pipeline(spec)
        monkeypatch.setenv("DISSINET_THREADS", "4")
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(run_pipeline, [spec, spec]))
        for parallel in runs:
            assert serial.controlled.keys() == parallel.controlled.keys()
            for h in serial.controlled:
                k1 = [c.K for c in serial.controlled[h]["certificates"]]
                k2 = [c.K for c in parallel.controlled[h]["certificates"]]
                assert len(k1) == len(k2) == spec.n_dgus
                assert all(np.array_equal(a, b) for a, b in zip(k1, k2))
            assert np.array_equal(serial.trajectory.states, parallel.trajectory.states)


class TestFeasibleRegion:
    def test_grid_shape_and_mask_range(self):
        rows = feasible_region_sample(0.5, resolution=(5, 5, 5))
        assert rows.shape == (125, 4)
        assert set(np.unique(rows[:, 3])) <= set(range(16))

    def test_large_r_excludes_bounded_variants(self):
        d = 0.5
        rows = feasible_region_sample(d, resolution=(10, 10, 10))
        bad = rows[rows[:, 2] >= 1.0 / (2 * d)]
        mask_abc = (REGION_VARIANT_BITS["a"] | REGION_VARIANT_BITS["b"]
                    | REGION_VARIANT_BITS["c"])
        assert not np.any(bad[:, 3].astype(int) & mask_abc)

    def test_exclusive_point_exists(self):
        rows = feasible_region_sample(0.5, resolution=(25, 20, 20))
        masks = rows[:, 3].astype(int)
        exclusive = [m for m in masks if m and (m & (m - 1)) == 0]
        assert exclusive

    def test_restricted_projections_allow_d_only_points(self):
        # with the shared parameters confined, the fourth variant can be
        # the only one covering a point
        rows = feasible_region_sample(
            0.5, resolution=(25, 20, 20),
            alpha_range=(0.0, 1.0), s_shared_range=(0.0, 0.3),
        )
        masks = rows[:, 3].astype(int)
        only_d = masks == REGION_VARIANT_BITS["d"]
        assert np.any(only_d)

    def test_masks_agree_with_decentralized_check(self):
        # the grid and the check judge every point, boundary points
        # included, by the same bounds and the same tolerance
        d = 0.5
        free = feasible_region_sample(d, resolution=(25, 20, 20))
        confined = feasible_region_sample(d, resolution=(25, 20, 20),
                                          alpha_range=(0.0, 1.0),
                                          s_shared_range=(0.0, 0.3))
        assert np.array_equal(free[:, :3], confined[:, :3])
        for (q, s, r, mask), conf_mask in zip(free, confined[:, 3]):
            sr = SupplyRate([[q]], [[s]], [[r]])
            in_range = {"a": 0.0 <= 2.0 * s <= 1.0, "b": 0.0 <= s <= 0.3,
                        "c": True, "d": True}
            for variant, bit in REGION_VARIANT_BITS.items():
                holds = decentralized_check(d, sr, variant, alpha=2.0 * s,
                                            s_shared=[[s]])
                assert bool(int(mask) & bit) == holds, (q, s, r, variant)
                assert (bool(int(conf_mask) & bit)
                        == (holds and in_range[variant])), (q, s, r, variant)

    def test_flagged_points_pass_two_node_oracle(self):
        d = 0.5
        rows = feasible_region_sample(d, resolution=(10, 8, 8))
        from dissinet.graph import WeightedGraph
        from dissinet.network import build_H

        H = build_H(Interconnection.laplacian(
            WeightedGraph(2, ((0, 1, d),)), block=1))
        flagged = rows[rows[:, 3] > 0]
        assert len(flagged) > 0
        for q, s, r, _ in flagged:
            supplies = [SupplyRate([[q]], [[s]], [[r]])] * 2
            M, _ = global_condition(supplies, H)
            assert np.linalg.eigvalsh(M)[-1] < -1e-10


def reference_csv(path, header, rows):
    """The writers' format, cell by cell through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else
                             str(v) if isinstance(v, (int, np.integer)) else
                             f"{float(v):.17g}" for v in row])


EDGE_VALUES = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
               0.1, 1.0 / 3.0, 123456789.0, 2.0**-1074 * 3]


class TestWriters:
    def test_trajectory_csv_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
        states[1, :] = EDGE_VALUES[:5]
        states[2, :] = EDGE_VALUES[5:10]
        states[3, :3] = EDGE_VALUES[10:]
        traj = Trajectory(states=states, outputs=states[:, :1], inputs=states[:, :1])
        dims = [2, 1, 2]
        for h in (1e-3, 0.1, 5e-324, 1e300):
            write_trajectory_csv(tmp_path / "fast.csv", traj, h, dims)
            reference_csv(tmp_path / "ref.csv", ["step", "time_s", "node", "state_index", "value"],
                          [[k, k * h, node, j, x[i]]
                           for k, x in enumerate(states)
                           for i, (node, j) in enumerate(
                               (node, j) for node, dim in enumerate(dims) for j in range(dim))])
            assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("as_list", [False, True])
    def test_region_csv_matches_csv_writer(self, tmp_path, as_list):
        rows = feasible_region_sample(0.5, resolution=(30, 21, 40))   # 25,200 rows
        rows[:len(EDGE_VALUES), 0] = EDGE_VALUES
        rows[:len(EDGE_VALUES), 2] = EDGE_VALUES[::-1]
        rows[:3, 3] = [0.0, 15.0, 3.0]
        given = [list(r) for r in rows] if as_list else rows
        write_region_csv(tmp_path / "fast.csv", given)
        reference_csv(tmp_path / "ref.csv", ["Q", "S", "R", "mask"],
                      [[r[0], r[1], r[2], int(r[3])] for r in rows])
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_empty_region_csv_has_the_header_only(self, tmp_path):
        write_region_csv(tmp_path / "r.csv", [])
        assert (tmp_path / "r.csv").read_bytes() == b"Q,S,R,mask\r\n"
