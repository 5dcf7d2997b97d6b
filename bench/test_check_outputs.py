"""Each check of check_outputs rejects a corrupted output.

    python3 -m pytest bench/test_check_outputs.py

Small reports are made with dissinet from the checkout's src/, copied, and
corrupted one way per case; the checker must accept the untouched reports
and name the operation each corruption breaks.
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dissinet as dn  # noqa: E402

import check_outputs  # noqa: E402
import workloads  # noqa: E402

H = 1e-3
STEPSIZES = (1e-3, 5e-3)
N_PIPELINE = 6
STEPS = 150


class SmallToolkit(workloads.Toolkit):
    N = 8
    SIM_STEPS = STEPS
    REGION_RESOLUTION = (12, 10, 10)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pipeline"))
    spec = dn.MicrogridSpec(n_dgus=N_PIPELINE, h=H, fig_stepsizes=STEPSIZES,
                            sim_steps=STEPS)
    dn.run_pipeline(spec).write(out)
    return out


@pytest.fixture(scope="module")
def toolkit():
    wl = SmallToolkit()
    wl.setup(0)
    return wl


@pytest.fixture(scope="module")
def toolkit_dir(tmp_path_factory, toolkit):
    out = str(tmp_path_factory.mktemp("toolkit"))
    toolkit.write(toolkit.compute(), out)
    return out


def _edit_json(name, edit):
    def corrupt(d):
        path = os.path.join(d, name)
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return corrupt


def _edit_lines(name, edit):
    def corrupt(d):
        path = os.path.join(d, name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        edit(lines)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return corrupt


def _set_field(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value(cells[col])
    lines[row] = ",".join(cells)


def _pipeline_cert(doc):
    return doc["stepsizes"][f"{H:.17g}"]["certificates"][2]


def _flip_gain(cert):
    cert["K"] = [[-k for k in cert["K"][0]]]


def _raise_q(cert):
    cert["supply"]["Q"] = [[10.0]]


def _raise_storage(lines):
    _set_field(lines, 40, 1, lambda v: repr(float(v) * 1.5))


def _wrong_flag(lines):
    # Q = 0 (the grid's last Q value) never passes the global test.
    row = next(i for i, line in enumerate(lines[1:], 1)
               if line.startswith("0,") and line.endswith(",0"))
    _set_field(lines, row, 3, lambda v: "1")


def _drop_step(doc):
    del doc["stepsizes"][f"{STEPSIZES[1]:.17g}"]


def _drop_cert(doc):
    doc["stepsizes"][f"{H:.17g}"]["certificates"].pop()


def _check_pipeline(report_dir):
    return check_outputs.check_pipeline_report(report_dir, H, STEPS, STEPSIZES,
                                               N_PIPELINE)


def _remove(name):
    return lambda d: os.remove(os.path.join(d, name))


PIPELINE_CASES = {
    "flipped gain": (_edit_json("controllers.json",
                                lambda doc: _flip_gain(_pipeline_cert(doc))),
                     f"synth:{H:.17g}:2"),
    "supply not network-safe": (_edit_json("controllers.json",
                                           lambda doc: _raise_q(_pipeline_cert(doc))),
                                f"network:{H:.17g}"),
    "h* off": (_edit_json("controllers.json",
                          lambda doc: doc.update(h_star=doc["h_star"] * 1.001)),
               "ct_bound"),
    "raised storage": (_edit_lines("storage.csv", _raise_storage), "simulate"),
    "missing row": (_edit_lines("trajectory.csv", lambda lines: lines.pop(7)),
                    "simulate"),
    "non-finite state": (_edit_lines(
        "trajectory.csv", lambda lines: _set_field(lines, 30, 4, lambda v: "nan")),
        "simulate"),
    "state off the dynamics": (_edit_lines(
        "trajectory.csv",
        lambda lines: _set_field(lines, 30, 4, lambda v: repr(float(v) + 1e-3))),
        "simulate"),
    "unsettled final state": (_edit_lines(
        "trajectory.csv",
        lambda lines: _set_field(lines, len(lines) - 1, 4, lambda v: "0.5")),
        "simulate"),
    "CT spectrum off": (_edit_lines(
        "eigs_ct.csv", lambda lines: _set_field(lines, 1, 1, lambda v: repr(float(v) * 1.01))),
        "ct_bound"),
    "controlled spectrum off": (_edit_lines(
        "eigs_dt_controlled.csv",
        lambda lines: _set_field(lines, 1, 1, lambda v: repr(float(v) * 0.99))),
        f"network:{H:.17g}"),
    "spectral radius off": (_edit_json(
        "controllers.json",
        lambda doc: doc["stepsizes"][f"{H:.17g}"].update(spectral_radius=0.5)),
        f"network:{H:.17g}"),
    "step size skipped": (_edit_json("controllers.json", _drop_step),
                          f"synth:{STEPSIZES[1]:.17g}:0"),
    "certificate dropped": (_edit_json("controllers.json", _drop_cert),
                            f"synth:{H:.17g}:{N_PIPELINE - 1}"),
    "missing file": (_remove("eigs_ct.csv"), "file:eigs_ct.csv"),
}

TOOLKIT_CASES = {
    "flipped joint gain": (_edit_json("certificates.json",
                                      lambda doc: _flip_gain(doc["joint"][3])),
                           "joint:3"),
    "joint certificate dropped": (_edit_json(
        "certificates.json", lambda doc: doc["joint"].pop()),
        f"joint:{SmallToolkit.N - 1}"),
    "flipped primal gain": (_edit_json("certificates.json",
                                       lambda doc: _flip_gain(doc["primal"][5])),
                            "primal:5"),
    "primal for another supply": (_edit_json(
        "certificates.json",
        lambda doc: doc["primal"][1].update(supply=doc["joint"][0]["supply"])),
        "primal:1"),
    "global test fails": (_edit_json("certificates.json",
                                     lambda doc: _raise_q(doc["joint"][0])),
                          "global"),
    "dual test fails": (_edit_json("certificates.json",
                                   lambda doc: _raise_q(doc["joint"][0])),
                        "dual_global"),
    "raised storage": (_edit_lines("storage.csv", _raise_storage), "simulate"),
    "wrongly flagged region point": (_edit_lines("region.csv", _wrong_flag),
                                     "region"),
    "missing file": (_remove("region.csv"), "file:region.csv"),
}


def test_untouched_pipeline_report_passes(pipeline_dir):
    assert not _check_pipeline(pipeline_dir)


def test_untouched_toolkit_report_passes(toolkit, toolkit_dir):
    assert not toolkit.check(toolkit_dir)


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_pipeline_corruption_is_rejected(case, pipeline_dir, tmp_path):
    corrupt, key = PIPELINE_CASES[case]
    copy = shutil.copytree(pipeline_dir, str(tmp_path / "report"))
    corrupt(copy)
    findings = _check_pipeline(copy)
    assert key in findings, dict(findings)


@pytest.mark.parametrize("case", sorted(TOOLKIT_CASES))
def test_toolkit_corruption_is_rejected(case, toolkit, toolkit_dir, tmp_path):
    corrupt, key = TOOLKIT_CASES[case]
    copy = shutil.copytree(toolkit_dir, str(tmp_path / "report"))
    corrupt(copy)
    findings = toolkit.check(copy)
    assert key in findings, dict(findings)


def test_region_grid_matches_the_program():
    rows = dn.feasible_region_sample(0.3, resolution=(5, 4, 3))
    grid = check_outputs.region_grid((-6.0, 0.0), (0.0, 1.0), (0.0, 1.0),
                                     (5, 4, 3))
    assert np.array_equal(rows[:, :3], grid)
