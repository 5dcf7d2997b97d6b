import json

import numpy as np
import pytest

from helpers import sample_primal_in_variant
from dissinet.cli import main
from dissinet.dissipativity import LinearNode, SupplyRate
from dissinet.graph import WeightedGraph, is_connected, laplacian_bundle
from dissinet.microgrid import DguParams, dgu_ct_matrices, zoh_discretize
from dissinet.network import (
    Interconnection,
    NetworkModel,
    build_H,
    global_condition,
)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def microgrid_pair_network(h=1e-3, weight=0.05, supplies=None):
    params = DguParams(0.2, 2.5e-3, 0.01, 0.02)
    node = zoh_discretize(dgu_ct_matrices(params), h)
    graph = WeightedGraph(2, ((0, 1, weight),))
    return NetworkModel(
        nodes=[node, node],
        interconnection=Interconnection.laplacian(graph, block=1),
        supplies=supplies,
    )


class TestGenGraph:
    def test_minimal_tree(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gen-graph", "--n", "3", "--seed", "0",
                     "--out", str(out)]) == 0
        g = WeightedGraph.from_json_dict(json.loads(out.read_text()))
        assert g.n_edges == 2

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["gen-graph", "--n", "30", "--seed", "5", "--out", str(out)])
        assert a.read_text() == b.read_text()

    def test_large_graph_connected(self, tmp_path):
        out = tmp_path / "g.json"
        main(["gen-graph", "--n", "100", "--seed", "1", "--out", str(out)])
        g = WeightedGraph.from_json_dict(json.loads(out.read_text()))
        assert is_connected(g) and g.n_edges == 99

    def test_matches_library_call(self, tmp_path):
        from dissinet.graph import barabasi_albert

        out = tmp_path / "g.json"
        main(["gen-graph", "--n", "40", "--m-attach", "2", "--seed", "9",
              "--weight", "0.5", "--out", str(out)])
        g = WeightedGraph.from_json_dict(json.loads(out.read_text()))
        assert g == barabasi_albert(40, 2, 9, weight=0.5)


class TestCheck:
    def test_decoupled_global_holds(self, tmp_path):
        net = {
            "nodes": [LinearNode([[0.5]], [[1.0]], [[0.0]], [[1.0]]).to_json_dict()],
            "interconnection": {"kind": "general", "H": [[0.0]]},
            "supplies": [SupplyRate([[-1.0]], [[0.0]], [[0.0]]).to_json_dict()],
        }
        path = tmp_path / "net.json"
        write_json(path, net)
        assert main(["check", str(path), "--mode", "global"]) == 0

    def test_sampled_decentralized_network_passes_all_modes(self, tmp_path):
        rng = np.random.default_rng(0)
        graph = WeightedGraph(3, ((0, 1, 0.5), (1, 2, 0.5)))
        bundle = laplacian_bundle(graph)
        supplies = []
        for d in bundle.degrees:
            sr, alpha, _ = sample_primal_in_variant(rng, "a", d, 1, alpha=1.0)
            supplies.append(sr)
        node = LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]]).to_json_dict()
        net = {
            "nodes": [node] * 3,
            "interconnection": {"kind": "laplacian",
                                "graph": graph.to_json_dict(), "block": 1},
            "supplies": [s.to_json_dict() for s in supplies],
        }
        path = tmp_path / "net.json"
        write_json(path, net)
        assert main(["check", str(path), "--mode", "decentralized",
                     "--variant", "a", "--alpha", "1.0"]) == 0
        assert main(["check", str(path), "--mode", "global"]) == 0
        assert main(["check", str(path), "--mode", "dual"]) == 0
        assert main(["check", str(path), "--mode", "qmi"]) == 0

    def test_violated_bound_fails(self, tmp_path):
        graph = WeightedGraph(2, ((0, 1, 0.5),))
        node = LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]]).to_json_dict()
        net = {
            "nodes": [node] * 2,
            "interconnection": {"kind": "laplacian",
                                "graph": graph.to_json_dict(), "block": 1},
            "supplies": [SupplyRate([[-3.0]], [[0.5]], [[1.2]]).to_json_dict()] * 2,
        }
        path = tmp_path / "net.json"
        write_json(path, net)
        assert main(["check", str(path), "--mode", "decentralized",
                     "--variant", "a", "--alpha", "1.0"]) == 1

    def test_comparison_mode(self, tmp_path):
        graph = WeightedGraph(2, ((0, 1, 1.0),))
        node = LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]]).to_json_dict()
        net = {
            "nodes": [node] * 2,
            "interconnection": {"kind": "laplacian",
                                "graph": graph.to_json_dict(), "block": 1},
            "virtual": {"Qhat": [[[0.5]], [[0.5]]],
                        "Rhat": [[[0.2]], [[0.2]]]},
        }
        path = tmp_path / "net.json"
        write_json(path, net)
        assert main(["check", str(path), "--mode", "comparison",
                     "--which", "diagonal"]) == 0
        assert main(["check", str(path), "--mode", "comparison",
                     "--which", "output_strict"]) == 0

    def test_missing_file_is_input_error(self):
        assert main(["check", "no_such_file.json", "--mode", "global"]) == 2

    def test_malformed_network_is_input_error(self, tmp_path):
        path = tmp_path / "net.json"
        write_json(path, {"nodes": []})
        assert main(["check", str(path), "--mode", "global"]) == 2

    @pytest.mark.parametrize("doc", [
        {"nodes": [LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]]).to_json_dict()],
         "interconnection": {"kind": "laplacian",
                             "graph": {"n": None, "edges": []}}},
        {"nodes": [1], "interconnection": {"kind": "general", "H": [[0.0]]}},
        {"nodes": [LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]]).to_json_dict()],
         "interconnection": {"kind": "laplacian", "graph": {"n": 1, "edges": []},
                             "block": None}},
        {"nodes": [{"A": {}, "B": [[1.0]], "G": [[0.1]], "C": [[1.0]]}],
         "interconnection": {"kind": "general", "H": [[0.0]]}},
    ], ids=["graph-n-null", "node-not-object", "block-null", "node-A-object"])
    def test_wrongly_typed_network_is_input_error(self, tmp_path, capsys, doc):
        path = tmp_path / "net.json"
        write_json(path, doc)
        assert main(["check", str(path), "--mode", "global"]) == 2
        err = capsys.readouterr().err
        assert "must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["H", "supply", "node"])
    def test_non_finite_entry_is_input_error(self, tmp_path, capsys, where):
        net = {
            "nodes": [LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]]).to_json_dict()],
            "interconnection": {"kind": "general", "H": [[0.0]]},
            "supplies": [SupplyRate([[-1.0]], [[0.0]], [[0.5]]).to_json_dict()],
        }
        if where == "H":
            net["interconnection"]["H"] = [[float("nan")]]
        elif where == "supply":
            net["supplies"][0]["R"] = [[float("inf")]]
        else:
            net["nodes"][0]["A"] = [[float("nan")]]
        path = tmp_path / "net.json"
        write_json(path, net)
        assert main(["check", str(path), "--mode", "global"]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("edge", [[0, 1], [0, 1, None]])
    def test_edge_without_weight_is_input_error(self, tmp_path, capsys, edge):
        node = LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]]).to_json_dict()
        net = {
            "nodes": [node] * 2,
            "interconnection": {"kind": "laplacian",
                                "graph": {"n": 2, "edges": [edge]}, "block": 1},
            "supplies": [SupplyRate([[-1.0]], [[0.0]], [[0.5]]).to_json_dict()] * 2,
        }
        path = tmp_path / "net.json"
        write_json(path, net)
        assert main(["check", str(path), "--mode", "global"]) == 2
        err = capsys.readouterr().err
        assert "[i, j, weight]" in err and "Traceback" not in err

    def test_dual_mode_sign_violation_is_input_error(self, tmp_path):
        node = LinearNode([[0.5]], [[1.0]], [[0.1]], [[1.0]]).to_json_dict()
        net = {
            "nodes": [node],
            "interconnection": {"kind": "general", "H": [[0.0]]},
            # R = 0 breaks the dual sign precondition
            "supplies": [SupplyRate([[-1.0]], [[0.0]], [[0.0]]).to_json_dict()],
        }
        path = tmp_path / "net.json"
        write_json(path, net)
        assert main(["check", str(path), "--mode", "dual"]) == 2


class TestSynth:
    def test_microgrid_pair(self, tmp_path):
        net = microgrid_pair_network()
        net_path = tmp_path / "net.json"
        out_path = tmp_path / "controllers.json"
        write_json(net_path, net.to_json_dict())
        code = main(["synth", str(net_path), "--variant", "a",
                     "--alpha", "1.0", "--seed", "0", "--out", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["failures"] == []
        assert len(data["nodes"]) == 2
        assert data["nodes"][0]["variant"] == "a"

    def test_rerun_identical(self, tmp_path):
        net = microgrid_pair_network()
        net_path = tmp_path / "net.json"
        write_json(net_path, net.to_json_dict())
        outs = []
        for name in ("c1.json", "c2.json"):
            out = tmp_path / name
            main(["synth", str(net_path), "--variant", "a", "--alpha", "1.0",
                  "--seed", "0", "--out", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_unstabilizable_node_reports_failure(self, tmp_path):
        bad = LinearNode([[2.0]], [[0.0]], [[0.1]], [[1.0]])
        net = {
            "nodes": [bad.to_json_dict()],
            "interconnection": {"kind": "general", "H": [[0.0]]},
            "supplies": [SupplyRate([[-1.0]], [[0.5]], [[0.4]]).to_json_dict()],
        }
        net_path = tmp_path / "net.json"
        out_path = tmp_path / "controllers.json"
        write_json(net_path, net)
        code = main(["synth", str(net_path), "--variant", "fixed",
                     "--seed", "0", "--max-iters", "300",
                     "--out", str(out_path)])
        assert code == 1
        data = json.loads(out_path.read_text())
        assert data["failures"] == [0]
        assert data["nodes"][0] is None

    def test_matches_library_call(self, tmp_path):
        # the CLI is a thin adapter: identical gain to the direct call
        from dissinet.synthesis import SynthesisOptions, joint_decentralized_synthesis

        net = microgrid_pair_network()
        net_path = tmp_path / "net.json"
        out_path = tmp_path / "controllers.json"
        write_json(net_path, net.to_json_dict())
        main(["synth", str(net_path), "--variant", "a", "--alpha", "1.0",
              "--seed", "11", "--out", str(out_path)])
        data = json.loads(out_path.read_text())
        bundle = laplacian_bundle(net.interconnection.graph)
        cert, _ = joint_decentralized_synthesis(
            net.nodes[0], "a", bundle.degrees[0], alpha=1.0,
            options=SynthesisOptions(seed=11),
        )
        assert np.allclose(np.array(data["nodes"][0]["K"]), cert.K)


class TestSimulate:
    def _synth_controllers(self, tmp_path, net):
        net_path = tmp_path / "net.json"
        ctl_path = tmp_path / "controllers.json"
        write_json(net_path, net.to_json_dict())
        assert main(["synth", str(net_path), "--variant", "a", "--alpha", "1.0",
                     "--seed", "0", "--out", str(ctl_path)]) == 0
        return net_path, ctl_path

    def test_zero_initial_state(self, tmp_path):
        net = microgrid_pair_network()
        net_path, ctl_path = self._synth_controllers(tmp_path, net)
        x0_path = tmp_path / "x0.json"
        write_json(x0_path, [0.0, 0.0, 0.0, 0.0])
        out = tmp_path / "traj.csv"
        code = main(["simulate", str(net_path), "--controllers", str(ctl_path),
                     "--x0", str(x0_path), "--steps", "50", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert all(float(r.split(",")[-1]) == 0.0 for r in rows)

    def test_certified_run_storage_monotone(self, tmp_path, capsys):
        net = microgrid_pair_network()
        net_path, ctl_path = self._synth_controllers(tmp_path, net)
        out = tmp_path / "traj.csv"
        code = main(["simulate", str(net_path), "--controllers", str(ctl_path),
                     "--perturb-seed", "3", "--steps", "400", "--out", str(out)])
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["max_storage_increase"] <= 1e-10
        assert (tmp_path / "traj_storage.csv").exists()

    def test_tampered_certificate_is_input_error(self, tmp_path, capsys):
        net = microgrid_pair_network()
        net_path, ctl_path = self._synth_controllers(tmp_path, net)
        data = json.loads(ctl_path.read_text())
        data["nodes"][1]["K"] = [[0.0, 5000.0]]
        write_json(ctl_path, data)
        out = tmp_path / "traj.csv"
        code = main(["simulate", str(net_path), "--controllers", str(ctl_path),
                     "--steps", "50", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "node 1" in err and "dissipation" in err
        assert not out.exists()

    def test_explosive_gains_truncate(self, tmp_path, capsys):
        net = microgrid_pair_network()
        net.controllers = [np.array([[0.0, 5000.0]])] * 2
        net_path = tmp_path / "net.json"
        write_json(net_path, net.to_json_dict())
        out = tmp_path / "traj.csv"
        code = main(["simulate", str(net_path), "--perturb-seed", "1",
                     "--steps", "2000", "--out", str(out)])
        assert code == 1
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["truncated"]


class TestDemoMicrogrid:
    def test_two_node_smoke(self, tmp_path, capsys):
        spec = {
            "n_dgus": 2, "sim_steps": 200, "fig_stepsizes": [1e-3],
        }
        spec_path = tmp_path / "spec.json"
        write_json(spec_path, spec)
        out_dir = tmp_path / "report"
        code = main(["demo-microgrid", "--spec", str(spec_path),
                     "--out", str(out_dir)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert all(not v for v in summary["failures"].values())
        assert (out_dir / "trajectory.csv").exists()


class TestRegion:
    def test_csv_matches_library(self, tmp_path):
        from dissinet.microgrid import feasible_region_sample

        out = tmp_path / "region.csv"
        code = main(["region", "--d", "0.5", "--q-steps", "6", "--s-steps", "5",
                     "--r-steps", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "Q,S,R,mask"
        rows = feasible_region_sample(0.5, resolution=(6, 5, 5))
        assert len(lines) - 1 == len(rows)
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            assert [float(v) for v in fields[:3]] == list(row[:3])
            assert int(fields[3]) == int(row[3])
