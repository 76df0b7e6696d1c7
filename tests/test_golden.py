"""The benchmark's seed-0 invocations reproduce its committed output bytes.

``perfbench/golden.json`` holds the SHA-256 of stdout and of every file that
each benchmark workload writes for the default (seed 0) qubit. Running the
same argv must give exactly those bytes: an output change has to come with a
golden refresh, never slip through.

Each argv runs in a child interpreter with the BLAS thread count pinned to 1,
as the benchmark runs it. In process that count is fixed when NumPy loads,
and the ``verify`` line "quadrature matches direct evolution" depends on it:
the wavefunction's quadrature sum is a BLAS product, and its last bits move
with the number of threads that split it (worst gap 2.03e-15 on one thread,
1.18e-15 on two).

Each workload's own reference and check also run, in process, on a small
instance, so an API change that the benchmark reads fails here rather than
as failed benchmark operations.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triwalk
from triwalk import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_zero_outputs_match_golden(name, tmp_path):
    argv = workloads.WORKLOADS[name].argv(workloads.qubit_text(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(triwalk.__file__).resolve().parent.parent)
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    result = subprocess.run(
        [sys.executable, "-m", "triwalk", *argv], cwd=tmp_path, env=env, capture_output=True
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    actual = {"stdout.txt": _sha256(result.stdout)}
    out = tmp_path / workloads.OUT
    if out.is_dir():
        actual.update({f"{workloads.OUT}/{f.name}": _sha256(f.read_bytes()) for f in out.iterdir()})
    assert actual == GOLDEN[name]


@pytest.mark.parametrize(
    "workload",
    [workloads.Evolve(steps=20), workloads.Weaklimit(steps=100), workloads.Timeavg(sites=21), workloads.Verify()],
    ids=lambda w: w.name,
)
def test_workload_checks_pass_on_small_instances(workload, tmp_path, monkeypatch, capsys):
    qubit = workloads.qubit_text(0)
    monkeypatch.chdir(tmp_path)
    code = cli.main(workload.argv(qubit))
    (tmp_path / "stdout.txt").write_text(capsys.readouterr().out, encoding="utf-8")
    assert workload.check(tmp_path, code, workload.reference(qubit)) == []
