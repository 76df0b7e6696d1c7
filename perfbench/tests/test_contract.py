"""BENCHMARK.json names exactly the metrics the benchmark prints, with their units."""

import json
from pathlib import Path

import run
import tracer

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match_the_spec():
    printed = [*tracer.layer_metrics([]), "cli.bytes_written", "cli.golden_match", "trace_overhead_frac"]
    assert [m["name"] for m in SPEC["per_layer"]] == printed
    assert all(m["unit"] == run.unit(m["name"]) for m in SPEC["per_layer"])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.WORKLOADS)
