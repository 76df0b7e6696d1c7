"""Each workload's correctness check accepts real output and rejects damage.

The CLI runs once per workload at a reduced size. Each damaged copy either
moves one CSV value by 1e-6 and re-signs the manifest, so that only the
value check can catch it, or alters one manifest checksum.
"""

import json
import math
import random
import shutil

import numpy as np
import pytest

import run
import workloads
from workloads import OUT

QUBIT = workloads.qubit_text(7)

CASES = {
    "evolve": (workloads.Evolve(steps=40), ["distribution.csv", "trace.csv"]),
    "weaklimit": (workloads.Weaklimit(steps=2000), ["weaklimit.csv"]),
    "timeavg": (workloads.Timeavg(sites=101), ["timeavg.csv"]),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, tmp_path_factory):
    workload, csvs = CASES[request.param]
    run_dir = tmp_path_factory.mktemp(request.param)
    record = run.invoke(workload.argv(QUBIT), run_dir, trace=False)
    return workload, csvs, run_dir, record["code"], workload.reference(QUBIT)


def _damaged_copy(run_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    return copy


def _resign(copy, name):
    manifest_path = copy / OUT / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][name] = workloads.sha256(copy / OUT / name)
    manifest_path.write_text(json.dumps(manifest))


def _cells(lines, count, rng):
    cells = [(r, c) for r in range(1, len(lines)) for c in range(len(lines[1].split(",")))]
    edges = [cell for cell in cells if cell[0] in (1, len(lines) - 1)]
    return edges + rng.sample(cells, min(count, len(cells)))


def test_real_output_passes(case):
    workload, _, run_dir, code, ref = case
    assert workload.check(run_dir, code, ref) == []


def test_one_csv_value_moved_by_1e_minus_6_fails(case, tmp_path):
    workload, csvs, run_dir, code, ref = case
    rng = random.Random(1)
    for name in csvs:
        lines = (run_dir / OUT / name).read_text().splitlines()
        for row, col in _cells(lines, 25, rng):
            copy = _damaged_copy(run_dir, tmp_path)
            fields = lines[row].split(",")
            fields[col] = format(float(fields[col]) + 1e-6, ".17g")
            damaged = lines[:row] + [",".join(fields)] + lines[row + 1 :]
            (copy / OUT / name).write_text("\n".join(damaged) + "\n")
            _resign(copy, name)
            assert workload.check(copy, code, ref), (name, row, col)
            shutil.rmtree(copy)


def test_altered_manifest_checksum_fails(case, tmp_path):
    workload, csvs, run_dir, code, ref = case
    copy = _damaged_copy(run_dir, tmp_path)
    manifest_path = copy / OUT / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    digest = manifest["outputs"][csvs[0]]
    manifest["outputs"][csvs[0]] = ("0" if digest[0] != "0" else "1") + digest[1:]
    manifest_path.write_text(json.dumps(manifest))
    assert workload.check(copy, code, ref)


def test_nonzero_exit_fails(case):
    workload, _, run_dir, _, ref = case
    assert workload.check(run_dir, 1, ref)


def test_verify_check(tmp_path):
    workload = workloads.Verify()
    record = run.invoke(workload.argv(QUBIT), tmp_path, trace=False)
    assert workload.check(tmp_path, record["code"], None) == []
    stdout = tmp_path / "stdout.txt"
    lines = stdout.read_text().splitlines()
    stdout.write_text("\n".join([lines[0].replace("PASS", "FAIL", 1), *lines[1:]]) + "\n")
    assert workload.check(tmp_path, 0, None)
    stdout.write_text("\n".join(lines[:-1]) + "\n")
    assert workload.check(tmp_path, 0, None)


def test_qubit_is_deterministic_normalized_and_parsed_by_the_cli():
    from triwalk.cli import _parse_qubit

    assert workloads.qubit_text(3) == workloads.qubit_text(3) != workloads.qubit_text(4)
    for seed in range(20):
        psi0 = workloads.parse_qubit(workloads.qubit_text(seed))
        assert math.isclose(float(np.sum(np.abs(psi0) ** 2)), 1.0, abs_tol=1e-15)
        assert _parse_qubit(workloads.qubit_text(seed)).as_array() == pytest.approx(psi0)


def test_reference_cycle_average_matches_the_package():
    from triwalk.timeavg import cycle_time_average
    from triwalk.walk import QubitState

    for seed, n_sites in [(0, 3), (1, 5), (2, 31), (3, 401)]:
        psi0 = workloads.parse_qubit(workloads.qubit_text(seed))
        want = cycle_time_average(n_sites, QubitState(*psi0))
        assert workloads.cycle_average(psi0, n_sites) == pytest.approx(want, abs=1e-12)
