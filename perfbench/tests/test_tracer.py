"""Self-time arithmetic, layer aggregation, and tracing a real child."""

import json

import pytest

import run
import tracer


def test_self_time_subtracts_child_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("walk.evolve_line", 1.0, 4.0, 0, None),
        ("walk.step_line", 2.0, 3.0, 1, 7),
        ("walk.distribution", 5.0, 9.0, 0, None),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("a.f", 0.0, 10.0, -1, None),
        ("a.g", 1.0, 5.0, 0, None),
        ("a.g", 4.0, 6.0, 0, None),
        ("a.g", 9.0, 12.0, 0, None),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_aggregate_calls_self_time_and_counts():
    spans = [
        ("cli.main", 0.0, 20.0, -1, None),
        ("walk.step_line", 1.0, 2.0, 0, 3),
        ("walk.distribution", 2.0, 4.0, 0, None),
        ("walk.step_line", 4.0, 5.5, 0, 5),
        ("walk.distribution", 6.0, 7.0, 0, None),
        ("stationary.limit_probability", 8.0, 12.0, 0, None),
        ("stationary.limit_component", 9.0, 10.0, 5, None),
        ("spectral.wavefunction", 13.0, 15.0, 0, 256),
        ("spectral.wavefunction", 15.0, 15.5, 0, 256),
        ("spectral.j_kernel", 16.0, 17.0, 0, 512),
    ]
    m = tracer.layer_metrics(spans)
    assert m["walk.step_line.calls"] == 2
    assert m["walk.step_line.self_s"] == pytest.approx(2.5)
    assert m["walk.site_steps"] == 8
    assert m["walk.distribution.calls_per_step"] == pytest.approx(1.0)
    assert m["walk.distribution.self_s"] == pytest.approx(3.0)
    assert m["cli.main.self_s"] == pytest.approx(20.0 - 1.0 - 2.0 - 1.5 - 1.0 - 4.0 - 2.5 - 1.0)
    assert m["stationary.calls"] == 1
    assert m["stationary.self_s"] == pytest.approx(4.0)
    assert m["spectral.wavefunction.calls"] == 2
    assert m["spectral.wavefunction.first_s"] == pytest.approx(2.0)
    assert m["spectral.kernels.calls"] == 1
    assert m["spectral.quad_nodes"] == 1024
    assert m["weaklimit.limit_cdf.calls_per_position"] == 0.0


def test_every_layer_metric_has_a_unit():
    for name in tracer.layer_metrics([]):
        assert run.unit(name)


def test_traced_child_sees_calls_through_module_globals(tmp_path):
    argv = ["evolve", "--qubit=1,0,0", "--steps", "3", "--out", "out"]
    record = run.invoke(argv, tmp_path, trace=True)
    assert record["code"] == 0
    assert record["probe_s"] > 0 and record["process_s"] > record["setup_s"] + record["wall_s"]
    names = [span[0] for span in record["spans"]]
    assert names[0] == "cli.main"
    assert names.count("walk.step_line") == 3
    assert names.count("walk.distribution") == 1 + 3 + 1
    # step_line reaches projector_matrices through walk's module globals.
    parents = {i: span[3] for i, span in enumerate(record["spans"])}
    step = names.index("walk.step_line")
    assert any(names[i] == "walk.projector_matrices" and p == step for i, p in parents.items())
    widths = [span[4] for span in record["spans"] if span[0] == "walk.step_line"]
    assert widths == [3, 5, 7]
    json.dumps(record)


def test_traced_child_sees_names_imported_from_another_module(tmp_path):
    argv = ["timeavg", "--qubit=1,0,0", "--sites", "5", "--out", "out"]
    record = run.invoke(argv, tmp_path, trace=True)
    assert record["code"] == 0
    spans = record["spans"]
    blocks = [i for i, span in enumerate(spans) if span[0] == "timeavg.momentum_blocks"]
    assert len(blocks) == 1 and spans[blocks[0]][4] == 5
    inside = [span[0] for span in spans if span[3] == blocks[0]]
    assert inside.count("spectral.dispersion") == 4
    assert inside.count("spectral.fourier_operator") == 5
    metrics = tracer.layer_metrics(spans)
    assert metrics["timeavg.groups"] == metrics["timeavg.modes"] + 1
