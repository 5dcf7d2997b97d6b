"""Command-line front end.

Subcommands: gen-graph, check, synth, simulate, demo-microgrid, region.
All input and output is JSON/CSV so results can be plotted elsewhere.
Exit codes: 0 = success / condition holds, 1 = condition fails or partial
synthesis failure, 2 = input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .dissipativity import StorageCertificate, closed_loop_dissipation_gap, dualize_supply
from .graph import barabasi_albert, laplacian_bundle
from .microgrid import (
    MicrogridSpec,
    feasible_region_sample,
    run_pipeline,
    write_region_csv,
    write_csv,
    write_trajectory_csv,
)
from .network import (
    NetworkModel,
    decentralized_check,
    dual_global_condition,
    global_condition,
    qmi_nonempty_check,
    comparison_conditions,
    simulate,
    storage_decrease_check,
)
from .synthesis import SynthesisOptions, _joint_synthesis_all, primal_control

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _dump_json(obj, path):
    if path is None:
        json.dump(obj, sys.stdout)
        sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            json.dump(obj, fh)


def cmd_gen_graph(args):
    g = barabasi_albert(args.n, args.m_attach, args.seed, weight=args.weight)
    _dump_json(g.to_json_dict(), args.out)
    return EXIT_OK


def _network_from_file(path):
    return NetworkModel.from_json_dict(_load_json(path))


def cmd_check(args):
    data = _load_json(args.network)
    net = NetworkModel.from_json_dict(data)
    H = net.H()
    result = {"mode": args.mode}
    tol = args.tol

    if args.mode in ("global", "dual", "decentralized", "qmi") and net.supplies is None:
        raise ValueError("network file has no supplies")

    if args.mode == "global":
        _, verdict = global_condition(net.supplies, H, tol)
        holds = verdict.satisfied
        result.update(max_eig=verdict.max_eig, min_eig=verdict.min_eig)
    elif args.mode == "dual":
        duals = [dualize_supply(s, tol) for s in net.supplies]
        _, verdict = dual_global_condition(duals, H, tol)
        holds = verdict.satisfied
        result.update(max_eig=verdict.max_eig, min_eig=verdict.min_eig)
    elif args.mode == "decentralized":
        if net.interconnection.kind != "laplacian":
            raise ValueError("decentralized bounds need a laplacian interconnection")
        bundle = laplacian_bundle(net.interconnection.graph)
        s_shared = np.array(args.s_shared) if args.s_shared is not None else None
        per_node = [
            decentralized_check(bundle.degrees[i], s, args.variant,
                                alpha=args.alpha, s_shared=s_shared, tol=tol)
            for i, s in enumerate(net.supplies)
        ]
        holds = all(per_node)
        result.update(per_node=per_node)
    elif args.mode == "qmi":
        holds = qmi_nonempty_check(net.supplies, tol)
    elif args.mode == "comparison":
        if net.interconnection.kind != "laplacian":
            raise ValueError("comparison conditions need a laplacian interconnection")
        bundle = laplacian_bundle(net.interconnection.graph)
        virtual = data.get("virtual")
        if virtual is None:
            raise ValueError("comparison mode needs a 'virtual' section with Qhat/Rhat")
        Q_hat = [np.array(b, dtype=float) for b in virtual["Qhat"]]
        R_hat = [np.array(b, dtype=float) for b in virtual["Rhat"]]
        C = None
        if args.which == "state_strict":
            from .matrix_core import block_diag

            C = block_diag([node.C for node in net.nodes])
        holds = comparison_conditions(bundle, args.which, Q_hat, R_hat, C=C, tol=tol)
    else:
        raise ValueError(f"unknown check mode {args.mode!r}")

    result["holds"] = bool(holds)
    _dump_json(result, args.out)
    return EXIT_OK if holds else EXIT_FAIL


def cmd_synth(args):
    net = _network_from_file(args.network)
    options = SynthesisOptions(seed=args.seed, max_iters=args.max_iters)
    if args.variant == "fixed":
        if net.supplies is None:
            raise ValueError("fixed-supply synthesis needs supplies in the network file")
        certificates = [primal_control(node, sr, options)
                        for node, sr in zip(net.nodes, net.supplies)]
    else:
        if net.interconnection.kind != "laplacian":
            raise ValueError("joint synthesis needs a laplacian interconnection")
        bundle = laplacian_bundle(net.interconnection.graph)
        s_shared = np.array(args.s_shared) if args.s_shared is not None else None
        results = _joint_synthesis_all(net.nodes, args.variant, bundle.degrees,
                                       alpha=args.alpha, s_shared=s_shared, options=options)
        certificates = [None if res is None else res[0] for res in results]
    failures = [i for i, c in enumerate(certificates) if c is None]
    out = {
        "nodes": [None if c is None else c.to_json_dict() for c in certificates],
        "failures": failures,
    }
    _dump_json(out, args.out)
    return EXIT_OK if not failures else EXIT_FAIL


def cmd_simulate(args):
    net = _network_from_file(args.network)
    certificates = None
    if args.controllers is not None:
        data = _load_json(args.controllers)
        certs = [
            None if c is None else StorageCertificate.from_json_dict(c)
            for c in data["nodes"]
        ]
        if any(c is None for c in certs):
            raise ValueError("controllers file has missing certificates")
        for i, (node, c) in enumerate(zip(net.nodes, certs, strict=True)):
            gap = closed_loop_dissipation_gap(node, c.K, c.supply, c.storage_matrix)
            if gap > SynthesisOptions().check_tol:
                raise ValueError(f"certificate of node {i} fails the closed-loop "
                                 f"dissipation check (gap {gap:.3e})")
        net.controllers = [c.K for c in certs]
        certificates = certs
    net.certificates = certificates
    total = sum(node.n for node in net.nodes)
    if args.x0 is not None:
        x0 = np.array(_load_json(args.x0), dtype=float).reshape(-1)
    else:
        rng = np.random.default_rng(args.perturb_seed)
        x0 = np.zeros(total)
        offset = 0
        for node in net.nodes:
            x0[offset] = rng.uniform(-1.0, 1.0)
            offset += node.n
    traj = simulate(net, x0, args.steps)
    write_trajectory_csv(args.out or "trajectory.csv", traj, args.h,
                         [node.n for node in net.nodes])
    result = {"truncated": traj.truncated, "message": traj.message,
              "final_max_abs_state": float(np.max(np.abs(traj.states[-1])))}
    if traj.storage is not None:
        result["max_storage_increase"] = storage_decrease_check(traj)
        base = os.path.splitext(args.out or "trajectory.csv")[0]
        write_csv(base + "_storage.csv", ["step", "V"],
                  [[k, v] for k, v in enumerate(traj.storage)])
    print(json.dumps(result))
    return EXIT_OK if not traj.truncated else EXIT_FAIL


def cmd_demo_microgrid(args):
    if args.spec is not None:
        spec = MicrogridSpec.from_json_dict(_load_json(args.spec))
    else:
        spec = MicrogridSpec(
            n_dgus=args.n, h=args.h, discretization=args.method,
            variant=args.variant, alpha=args.alpha, topology_seed=args.seed,
            param_seed=args.seed + 1, baseline_seed=args.seed + 2,
            synth_seed=args.seed + 3, perturb_seed=args.seed + 4,
        )
    report = run_pipeline(spec, out_dir=args.out)
    summary = {
        "h_star": report.h_star,
        "failures": {f"{h:.17g}": v for h, v in report.failures.items()},
        "spectral_radii": {
            f"{h:.17g}": report.controlled[h]["spectral_radius"]
            for h in sorted(report.controlled)
        },
    }
    print(json.dumps(summary))
    return EXIT_OK if report.all_synthesized else EXIT_FAIL


def cmd_region(args):
    rows = feasible_region_sample(
        args.d,
        q_range=(args.q_min, args.q_max),
        s_range=(args.s_min, args.s_max),
        r_range=(args.r_min, args.r_max),
        resolution=(args.q_steps, args.s_steps, args.r_steps),
    )
    write_region_csv(args.out or "region.csv", rows)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dissinet",
        description="Stability certification and decentralized synthesis "
                    "for interconnected discrete-time dissipative systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="random preferential-attachment graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-attach", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("check", help="evaluate a network stability condition")
    p.add_argument("network")
    p.add_argument("--mode", required=True,
                   choices=["global", "dual", "decentralized", "comparison", "qmi"])
    p.add_argument("--variant", choices=["a", "b", "c", "d"], default="a")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--s-shared", type=json.loads, default=None,
                   help="shared S block as a JSON matrix")
    p.add_argument("--which", default="output_strict",
                   choices=["state_strict", "output_strict", "diagonal"])
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synth", help="per-node controller synthesis")
    p.add_argument("network")
    p.add_argument("--variant", choices=["a", "b", "c", "d", "fixed"], default="a")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--s-shared", type=json.loads, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=1500)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="closed-loop network simulation")
    p.add_argument("network")
    p.add_argument("--controllers", default=None)
    p.add_argument("--x0", default=None, help="JSON file with the initial state")
    p.add_argument("--perturb-seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--h", type=float, default=1e-3,
                   help="step length used for the time column")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demo-microgrid", help="full microgrid experiment")
    p.add_argument("--spec", default=None, help="JSON spec file")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--method", choices=["euler", "zoh"], default="zoh")
    p.add_argument("--variant", choices=["a", "b", "c", "d"], default="a")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_demo_microgrid)

    p = sub.add_parser("region", help="scalar feasible-region grid")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--q-min", type=float, default=-6.0)
    p.add_argument("--q-max", type=float, default=0.0)
    p.add_argument("--q-steps", type=int, default=25)
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=1.0)
    p.add_argument("--s-steps", type=int, default=20)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--r-steps", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_region)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
