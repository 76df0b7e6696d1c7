"""Benchmark of the triwalk command line, one fresh process per invocation.

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 25 --trace 0

Runs the workload's ``triwalk`` invocation again and again for
``--seconds`` seconds in a closed loop: one child interpreter at a time,
each importing ``triwalk.cli`` from ``src/`` and calling ``main(argv)``.
Every invocation's outputs are checked for correctness. With ``--trace 0``
the end-to-end metrics are the medians over the invocations; with
``--trace 1`` traced and untraced invocations alternate, and the per-layer
metrics are medians over the traced ones. ``--workload all`` runs every
workload in both modes. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
list the same metrics by name and unit. A run record with the machine and
versions goes to ``.perfbench_out/``. ``--write-golden`` refreshes the
committed output checksums for the default seed. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
INVOCATION_TIMEOUT_S = 120.0

#: Typical ``child.speed_probe`` time on the 2-vCPU shared virtual machine
#: the benchmark was built on. Reported times are scaled by
#: PROBE_REF_S / probe_s of their own invocation: seconds at that speed.
PROBE_REF_S = 0.1

END_TO_END = {"setup_s": "s", "wall_s": "s", "process_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "first_s": "s"}
PER_LAYER_SPECIAL = {
    "walk.site_steps": "count",
    "walk.distribution.calls_per_step": "ratio",
    "cli.bytes_written": "B",
    "cli.golden_match": "count",
    "spectral.quad_nodes": "count",
    "timeavg.modes": "count",
    "timeavg.groups": "count",
    "weaklimit.limit_cdf.calls_per_position": "ratio",
    "trace_overhead_frac": "frac",
}


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_SPECIAL.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def invoke(argv: list[str], run_dir: Path, trace: bool) -> dict:
    """Run one CLI invocation in a child interpreter; return its record.

    The record has ``code`` None when the child died before writing one.
    """
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record_path = run_dir / "record.json"
    command = [sys.executable, str(HERE / "child.py"), str(record_path), str(int(trace)), *argv]
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=run_dir, stdout=out, stderr=err, env=_child_env())
        try:
            proc.wait(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        process_s = time.perf_counter() - start
    if proc.returncode != 0 and not record_path.is_file():
        return {"code": None, "exit": proc.returncode}
    record = json.loads(record_path.read_text(encoding="utf-8"))
    # The probe is the benchmark's, not part of what a user waits for.
    record["process_s"] = process_s - record["probe_s"]
    record["peak_rss_mb"] = record.pop("peak_rss_kb") / 1024.0
    return record


def _problems(workload, run_dir: Path, record: dict, ref) -> list[str]:
    if record["code"] is None:
        err = (run_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
        return [f"child died with exit {record['exit']}: {err[-1] if err else ''}"]
    module = Path(record["module"]).resolve()
    if SRC.resolve() not in module.parents:
        return [f"triwalk imported from {module}, not from {SRC}"]
    return workload.check(run_dir, record["code"], ref)


def _speed(record: dict) -> float:
    return PROBE_REF_S / record["probe_s"]


def _scaled(record: dict, name: str) -> float:
    return record[name] * _speed(record) if unit(name) == "s" else record[name]


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``workload``; returns metrics and counts."""
    qubit = workloads.qubit_text(seed)
    ref = workload.reference(qubit)
    run_dir = WORK / "run"
    # Compile bytecode and warm the file cache once; users do not pay that per run.
    subprocess.run([sys.executable, "-c", "import triwalk.cli"], env=_child_env())

    # A traced run starts with one untraced invocation on the default seed's
    # inputs, whose outputs are compared with the committed golden checksums,
    # then alternates traced and untraced invocations on the run's inputs.
    default = workloads.qubit_text(DEFAULT_SEED)
    same = workload.argv(default) == workload.argv(qubit)
    default_ref = ref if same else workload.reference(default)
    untraced, traced, problems = [], [], []
    attempted = 0
    golden_match = 0
    deadline = time.perf_counter() + seconds
    while attempted < 1 + trace or time.perf_counter() < deadline:
        golden = trace and attempted == 0
        traced_run = trace and attempted % 2 == 1
        argv, run_ref = (workload.argv(default), default_ref) if golden else (workload.argv(qubit), ref)
        record = invoke(argv, run_dir, traced_run)
        attempted += 1
        found = _problems(workload, run_dir, record, run_ref)
        if found:
            problems.append(found)
            continue
        record["bytes_written"] = workloads.bytes_written(run_dir)
        if golden:
            expected = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload.name, {})
            actual = workloads.output_hashes(run_dir)
            golden_match = sum(actual.get(name) == digest for name, digest in expected.items())
        (traced if traced_run else untraced).append(record)

    probes = [r["probe_s"] for r in untraced + traced]
    metrics: dict[str, tuple[float, int]] = {}
    raw: dict[str, float] = {}
    if untraced and not trace:
        for name in END_TO_END:
            raw[name] = statistics.median([r[name] for r in untraced])
            metrics[name] = (statistics.median([_scaled(r, name) for r in untraced]), len(untraced))
    if traced and untraced:
        layers = [
            {name: v * _speed(r) if unit(name) == "s" else v for name, v in tracer.layer_metrics(r["spans"]).items()}
            for r in traced
        ]
        for name in layers[0]:
            metrics[name] = (statistics.median([m[name] for m in layers]), len(layers))
        metrics["cli.bytes_written"] = (statistics.median([r["bytes_written"] for r in traced]), len(traced))
        metrics["cli.golden_match"] = (golden_match, 1)
        ratio = statistics.median([_scaled(r, "wall_s") for r in traced]) / statistics.median(
            [_scaled(r, "wall_s") for r in untraced]
        )
        metrics["trace_overhead_frac"] = (ratio - 1.0, len(traced) + len(untraced))
    return {
        "workload": workload.name,
        "seed": seed,
        "qubit": qubit,
        "trace": int(trace),
        "seconds": seconds,
        "attempted": attempted,
        "failed": len(problems),
        "failed_frac": len(problems) / attempted,
        "problems": problems[:5],
        "metrics": metrics,
        "unscaled_medians": raw,
        "probe_s_median": statistics.median(probes) if probes else None,
    }


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _machine() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg_start": os.getloadavg(),
    }


def _report(result: dict, machine: dict) -> None:
    name, trace = result["workload"], result["trace"]
    WORK.mkdir(parents=True, exist_ok=True)
    record = dict(machine, **result)
    record["metrics"] = {
        m: {"value": v, "unit": unit(m), "samples": n} for m, (v, n) in result["metrics"].items()
    }
    path = WORK / f"record-{name}-trace{trace}-seed{result['seed']}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# {name} (trace {trace}, seed {result['seed']}): {result['attempted']} invocations, "
          f"{result['failed']} failed, failed_frac {result['failed_frac']:.6g} frac")
    for problem in result["problems"]:
        print(f"#   FAILED: {'; '.join(problem)}")
    for m, (v, n) in result["metrics"].items():
        print(f"#   {m} = {v:.6g} {unit(m)} (median of {n})")
    print(f"#   record: {path.relative_to(ROOT)}")


def write_golden() -> int:
    golden = {}
    for workload in workloads.WORKLOADS.values():
        qubit = workloads.qubit_text(DEFAULT_SEED)
        run_dir = WORK / "run"
        record = invoke(workload.argv(qubit), run_dir, trace=False)
        problems = _problems(workload, run_dir, record, workload.reference(qubit))
        if problems:
            print(f"{workload.name}: not writing golden output, {problems}", file=sys.stderr)
            return 1
        golden[workload.name] = workloads.output_hashes(run_dir)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "triwalk" / "cli.py").is_file():
        print(f"error: no triwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()

    machine = _machine()
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    for name, trace in runs:
        result = measure(workloads.WORKLOADS[name], args.seed, args.seconds, trace)
        _report(result, machine)
        results.append(result)

    if any(not r["metrics"] for r in results):
        print("error: no invocation succeeded", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": unit(m)}
        for r in results
        for m, (v, _) in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
