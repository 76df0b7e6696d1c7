"""End-to-end command-line behavior, run in process."""

from __future__ import annotations

import builtins
import functools
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import triwalk
from calls import record_calls
from triwalk import _svg, cli, spectral, stationary, walk
from triwalk import (
    DEFAULT_GRID_SIZE,
    QubitState,
    cdf_distance,
    cycle_time_average,
    distribution,
    empirical_rescaled,
    evolve_line,
    infinite_time_average_total,
    limit_cdf,
    stationary_profile,
    total_mass,
)
from triwalk.cli import _write_csv, main

# Written with repr so the CLI parses back the exact doubles used in-test.
INV_SQRT2 = 1.0 / math.sqrt(2.0)
FIGURE_QUBIT = f"0+{INV_SQRT2!r}i,0,{INV_SQRT2!r}"


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEvolve:
    def test_single_step_distribution(self, tmp_path):
        code = main(
            ["evolve", "--qubit", "1,0,0", "--steps", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "distribution.csv")
        assert header == ["n", "p_total", "p_L", "p_0", "p_R"]
        values = {int(r[0]): float(r[1]) for r in rows}
        assert values[-1] == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert values[0] == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert values[1] == pytest.approx(4.0 / 9.0, abs=1e-15)
        t_header, t_rows = read_csv(tmp_path / "trace.csv")
        assert t_header == ["t", "p0"]
        assert [r[0] for r in t_rows] == ["0", "1"]
        assert float(t_rows[0][1]) == 1.0

    def test_csv_round_trips_doubles_exactly(self, tmp_path):
        main(
            [
                "evolve",
                "--qubit",
                FIGURE_QUBIT,
                "--steps",
                "20",
                "--out",
                str(tmp_path),
            ]
        )
        _, rows = read_csv(tmp_path / "distribution.csv")
        q = QubitState(1j * INV_SQRT2, 0.0, INV_SQRT2)
        dist = distribution(evolve_line(q, 20))
        for row in rows:
            n = int(row[0])
            assert float(row[1]) == dist.total(n)
            assert [float(v) for v in row[2:]] == dist.probabilities[n - dist.first_site].tolist()

    def test_steps_and_observers_as_the_tracer_pins_them(self, tmp_path, monkeypatch):
        # The benchmark's tracer test pins these call shapes of ``evolve --steps
        # 3``; the wrappers rebind the names in walk's module globals, as it does.
        walk._coin.cache_clear()
        log = record_calls(monkeypatch, walk, "step_line", "distribution", "projector_matrices")
        assert main(["evolve", "--qubit=1,0,0", "--steps", "3", "--out", str(tmp_path)]) == 0
        names = [name for name, _, _ in log]
        steps = [i for i, name in enumerate(names) if name == "step_line"]
        assert [log[i][2].amplitudes.shape[0] for i in steps] == [3, 5, 7]
        assert names.count("distribution") == 1 + 3 + 1
        # The first step_line builds the coin through walk's projector_matrices.
        coins = [parent for name, parent, _ in log if name == "projector_matrices"]
        assert coins == [steps[0]]

    def test_cycle_evolution(self, tmp_path):
        code = main(
            [
                "evolve",
                "--qubit",
                "1,0,0",
                "--steps",
                "1",
                "--cycle",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "distribution.csv")
        values = {int(r[0]): float(r[1]) for r in rows}
        assert sorted(values) == [0, 1, 2, 3, 4]
        # Site -1 wraps to ring site 4.
        assert values[4] == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_manifest_checksums_match_files(self, tmp_path):
        main(
            ["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", str(tmp_path)]
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "evolve"
        assert manifest["parameters"]["steps"] == 3
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_identical_runs_are_bit_identical(self, tmp_path):
        args = ["evolve", "--qubit", FIGURE_QUBIT, "--steps", "60"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("distribution.csv", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_accepts_qubit_within_norm_tolerance(self, tmp_path):
        # |q|^2 = 1.00000000016: accepted as input, so evolving it must not
        # trip the conservation check.
        code = main(
            ["evolve", "--qubit=0.6,0,0.8000000001i", "--steps", "3", "--out", str(tmp_path)]
        )
        assert code == 0

    def test_rejects_unnormalized_qubit(self, tmp_path, capsys):
        code = main(
            ["evolve", "--qubit", "0.5,0.5,0.5", "--steps", "1", "--out", str(tmp_path)]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err
        # NaN amplitudes used to pass the norm check and write NaN tables, and
        # an amplitude whose square overflows raised OverflowError.
        for argv in (
            ["evolve", "--qubit=nan,0,0", "--steps", "3"],
            ["evolve", "--qubit=1e200,0,0", "--steps", "3"],
            ["stationary", "--qubit=1,nan,0"],
            ["timeavg", "--qubit=0,0,nan", "--sites", "5"],
        ):
            out = tmp_path / argv[0]
            assert main(argv + ["--out", str(out)]) == 3
            assert "error" in capsys.readouterr().err
            assert not out.exists()

    def test_rejects_unparseable_qubit(self, tmp_path):
        assert (
            main(["evolve", "--qubit", "x,0,0", "--steps", "1", "--out", str(tmp_path)])
            == 2
        )
        assert (
            main(["evolve", "--qubit", "1,0", "--steps", "1", "--out", str(tmp_path)])
            == 2
        )

    def test_rejects_even_cycle(self, tmp_path):
        code = main(
            [
                "evolve",
                "--qubit",
                "1,0,0",
                "--steps",
                "1",
                "--cycle",
                "6",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_rejects_negative_steps(self, tmp_path):
        code = main(
            ["evolve", "--qubit", "1,0,0", "--steps", "-2", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_missing_required_argument(self):
        assert main(["evolve", "--steps", "1"]) == 2

    @pytest.mark.parametrize(
        "sizes, message",
        [
            (["--steps", str(cli._MAX_EVOLVE_STEPS + 1)], f"--steps must be from 0 to {cli._MAX_EVOLVE_STEPS}"),
            (["--steps", "1", "--cycle", str(cli._MAX_EVOLVE_CYCLE + 2)],
             f"--cycle must be at most {cli._MAX_EVOLVE_CYCLE} and {cli._MAX_EVOLVE_STEPS**2} / --steps"),
            # 5001 sites times 5000 steps is 5000 site-steps over the cap.
            (["--steps", str(cli._MAX_EVOLVE_STEPS), "--cycle", "5001"],
             f"--cycle must be at most {cli._MAX_EVOLVE_CYCLE} and {cli._MAX_EVOLVE_STEPS**2} / --steps"),
        ],
        ids=["line steps", "cycle sites", "cycle site-steps"],
    )
    def test_refuses_sizes_above_the_caps_before_any_work(self, sizes, message, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the cap must refuse before computing")

        monkeypatch.setattr(cli.walk, "evolve_line", no_work)
        monkeypatch.setattr(cli.walk, "evolve_cycle", no_work)
        out = tmp_path / "out"
        assert main(["evolve", "--qubit", FIGURE_QUBIT, *sizes, "--heatmap", str(tmp_path / "h.svg"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_svg_and_heatmap_are_well_formed(self, tmp_path):
        svg = tmp_path / "trace.svg"
        heat = tmp_path / "heat.svg"
        code = main(
            [
                "evolve",
                "--qubit",
                FIGURE_QUBIT,
                "--steps",
                "30",
                "--out",
                str(tmp_path),
                "--svg",
                str(svg),
                "--heatmap",
                str(heat),
            ]
        )
        assert code == 0
        for path in (svg, heat):
            root = ET.fromstring(path.read_text())
            assert root.tag.endswith("svg")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


S6 = 1.0 / math.sqrt(6.0)
#: The zero-localization state: its stationary profile has exact zeros,
#: which the log-scale plot drops.
ZERO_LOCALIZATION_QUBIT = f"{S6!r},{-2 * S6!r},{S6!r}"

#: SHA-256 of writer outputs the benchmark golden does not reach, recorded
#: with the per-cell writers and, for heatmaps, the whole heat grid; each argv
#: runs with ``--out .`` in a fresh directory.
PINNED_OUTPUTS = {
    "line heatmap, 220 does not divide t + 1": (
        ["evolve", f"--qubit={FIGURE_QUBIT}", "--steps", "1000", "--heatmap", "heat.svg"],
        {
            "distribution.csv": "d8f35fb994c443271db0bcfeadb2ea384294c5852c2779575dc7dde62c627e80",
            "trace.csv": "97e5d4a6c5c3d46ca0667fb7ad495f196b4297c21556261c0cf24b3b570c4dcb",
            "heat.svg": "2b4433d462c2489722360e8082c536a01f009163fd530cb27ce056d6e8571c81",
        },
    ),
    "line heatmap, fewer than 220 rows": (
        ["evolve", f"--qubit={FIGURE_QUBIT}", "--steps", "150", "--heatmap", "heat.svg"],
        {
            "distribution.csv": "47c7e3a77cda44b84c8b3c439ac0ff04ce6f192d1728da1dd97fecbc6276b739",
            "trace.csv": "3fe29098f5ef384e8a9e15f8b409ddbdaddffee2946ab77ec04a196fb5ccd9fc",
            "heat.svg": "7e71e190c13cdc5a1383cd6f208f3e1f62764afa503c450e60a54166235c8a1b",
        },
    ),
    "cycle heatmap, no block averaging": (
        ["evolve", f"--qubit={FIGURE_QUBIT}", "--steps", "40", "--cycle", "21",
         "--heatmap", "heat.svg"],
        {
            "distribution.csv": "f57fb1703c53000e0fff3e201cbeeb40d8059c5951cd3d025e3931205bf4985d",
            "trace.csv": "09e047e451f3ad1d66c95214df48e1465acde3ca416f00bdab7d9eca5a06fb66",
            "heat.svg": "9bd2d64e311124edae76c00a6ef1590c88065018ca844d35db9ce881290246fc",
        },
    ),
    "zero steps, one-cell heatmap": (
        ["evolve", f"--qubit={FIGURE_QUBIT}", "--steps", "0", "--svg", "trace.svg",
         "--heatmap", "heat.svg"],
        {
            "distribution.csv": "5ec59bc30ebb5c8e704786d6e4761302a2fd7c2989bb07c694802ab13df9a519",
            "trace.csv": "f7f0f3a3db41e17d7a6125e02853a02e062b6e34bc7abd9525a819ecb64031ca",
            "trace.svg": "c63a757acb0faafb7d0f38f5323b053a47c699b05174b8f27fd231a436c537b0",
            "heat.svg": "e6d9a77f611e18e4d270ad2332fefb51da42b8b3e151abf0dbe52b3961673228",
        },
    ),
    "cycle heatmap, 2 x 5 blocks": (
        ["evolve", f"--qubit={FIGURE_QUBIT}", "--cycle", "1001", "--steps", "300", "--svg", "trace.svg",
         "--heatmap", "heat.svg"],
        {
            "distribution.csv": "ca216dcd62a4998a73fb0cb2147e3a63ace7cb98010c43efa6932f250a7b8b04",
            "trace.csv": "7316b6ddddc21db40e316e83f3cbffac0ab9d00a369de008c742eb5b205ff0c6",
            "trace.svg": "074942f446ffbe2169ab37af8191ee2f0952328ff3b8ef175b9dea91cceafb97",
            "heat.svg": "71096cdbd5601b4a925ab4f5f6d2ec2f5e9aafc8cf23066ff4fe69307eba7080",
        },
    ),
    "stationary log plot drops zeros": (
        ["stationary", f"--qubit={ZERO_LOCALIZATION_QUBIT}", "--svg", "profile.svg"],
        {
            "stationary.csv": "6927406f2427d2c76c0cf3de2a53d3e9fa8a64d3ebb33730f2411ff6ccc00f9a",
            "profile.svg": "3b3fe26fd09b6fabe48254f4edd31e65d0878a39d444c75dba8ada7841d96c45",
        },
    ),
    "weaklimit two series": (
        ["weaklimit", "--steps", "100", "--svg", "cdf.svg"],
        {
            "weaklimit.csv": "00e5f1555b4fe43ecfe17024d232157e56636a2220073b7d14a24a9f726d7c03",
            "cdf.svg": "b9b57804bcb7d82e9b3d2ea58f802bb1d9bdf9ddfbfa25a1f8e6c6438408154e",
        },
    ),
}


def full_grid_means(field: np.ndarray) -> np.ndarray:
    """Block means of a whole field at once: the smallest blocks that leave at
    most 220 a side, trailing rows and columns that fill no block dropped."""
    rows, cols = field.shape
    row_step, col_step = math.ceil(rows / 220), math.ceil(cols / 220)
    kept = field[: rows // row_step * row_step, : cols // col_step * col_step]
    return kept.reshape(rows // row_step, row_step, cols // col_step, col_step).mean(axis=(1, 3))


def streamed_means(field: np.ndarray, windows=None) -> np.ndarray:
    """Feed ``field`` to ``heat_blocks`` one row at a time, each row only over
    its ``windows[t]`` slice (the whole row by default)."""
    means, add = _svg.heat_blocks(*field.shape)
    for t, row in enumerate(field):
        start, stop = windows[t] if windows is not None else (0, len(row))
        add(t, start, row[start:stop])
    return means


def per_cell_rects(means: np.ndarray) -> list[str]:
    """The heatmap's cells written one f-string per cell, as a reference."""
    rows, cols = means.shape
    shade = np.sqrt(np.clip(means / (float(means.max()) or 1.0), 0.0, 1.0))
    cell_w = (_svg._WIDTH - _svg._MARGIN_L - _svg._MARGIN_R) / cols
    cell_h = (_svg._HEIGHT - _svg._MARGIN_T - _svg._MARGIN_B) / rows
    size = f'width="{cell_w + 0.3:.2f}" height="{cell_h + 0.3:.2f}"'
    return [
        f'<rect x="{_svg._MARGIN_L + c * cell_w:.2f}" y="{_svg._HEIGHT - _svg._MARGIN_B - (r + 1) * cell_h:.2f}" '
        f'{size} fill="rgb({round(255.0 - 247.0 * v)},{round(255.0 - 207.0 * v)},{round(255.0 - 148.0 * v)})"/>'
        for r, row in enumerate(shade.tolist())
        for c, v in enumerate(row)
        if v > 0.0
    ]


def draw_heatmap(field, *, x0: int, title: str) -> tuple[np.ndarray, str]:
    """Stream ``field`` row by row into block means and draw them, as evolve
    does; returns the means and the heatmap's text."""
    field = np.asarray(field, dtype=float)
    means = streamed_means(field)
    return means, _svg.heatmap(means, extent=field.shape, x0=x0, title=title, x_label="n", y_label="t")


class TestWriters:
    @pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
    def test_pinned_output_bytes(self, case, tmp_path, monkeypatch):
        argv, expected = PINNED_OUTPUTS[case]
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "."]) == 0
        assert {name: sha256_of(tmp_path / name) for name in expected} == expected

    @pytest.mark.parametrize(
        "steps, cycle",
        [(500, None), (1000, None), (150, None), (0, None), (441, 5), (300, 101)],
        ids=["t = 500", "220 does not divide t + 1", "t below 220", "t = 0", "cycle 5", "cycle 101"],
    )
    def test_streamed_heatmap_is_the_full_grid_heatmap(self, steps, cycle, tmp_path):
        # The reference keeps every distribution row in one (t + 1, width)
        # grid and block-averages it once.
        q = QubitState(1j * INV_SQRT2, 0.0, INV_SQRT2)
        if cycle is None:
            state, step, first_site, width = walk.evolve_line(q, 0), walk.step_line, -steps, 2 * steps + 1
        else:
            state, step, first_site, width = walk.evolve_cycle(q, cycle, 0), walk.step_cycle, 0, cycle
        grid = np.zeros((steps + 1, width))
        for t in range(steps + 1):
            state = step(state) if t else state
            dist = walk.distribution(state)
            grid[t, dist.first_site - first_site : dist.first_site - first_site + len(dist)] = dist.totals
        means = full_grid_means(grid)
        reference = _svg.heatmap(
            means, extent=grid.shape, x0=first_site,
            title="Space-time probability density", x_label="n", y_label="t",
        )
        argv = ["evolve", f"--qubit={FIGURE_QUBIT}", "--steps", str(steps), "--heatmap", str(tmp_path / "heat.svg")]
        argv += ["--out", str(tmp_path)] + (["--cycle", str(cycle)] if cycle else [])
        assert main(argv) == 0
        text = (tmp_path / "heat.svg").read_text()
        assert text == reference
        # Between the background and the plot frame: one rect per drawn cell.
        cells = per_cell_rects(means)
        frame = '<rect x="70" y="40" width="550" height="330" fill="none" stroke="#333"/>'
        assert text.splitlines()[2 : 3 + len(cells)] == [*cells, frame]

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (219, 439), (221, 661), (441, 5), (301, 601), (1001, 1201)])
    def test_streamed_means_equal_the_full_grid_means(self, shape):
        # Each row is fed over a random window; the rest of the row must read
        # 0 even where the same block row held wider values one block earlier.
        rng = np.random.default_rng(shape[0])
        field = rng.random(shape)
        edges = np.sort(rng.integers(0, shape[1] + 1, size=(shape[0], 2)), axis=1)
        for t, (start, stop) in enumerate(edges):
            field[t, :start] = field[t, stop:] = 0.0
        assert streamed_means(field, edges.tolist()).tobytes() == full_grid_means(field).tobytes()

    def test_evolve_heatmap_holds_one_block_of_rows(self, tmp_path):
        # The whole 1001 x 2001 heat grid of t = 1000 would take 16 MB alone.
        argv = ["evolve", f"--qubit={FIGURE_QUBIT}", "--steps", "1000", "--heatmap", str(tmp_path / "heat.svg")]
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1001 * 2001 * 8

    def test_all_zero_heatmap_bytes(self):
        # The peak falls back to 1.0 and no cell is drawn.
        _, text = draw_heatmap(np.zeros((3, 5)), x0=-2, title="empty")
        assert text.count("<rect") == 2
        assert hashlib.sha256(text.encode()).hexdigest() == "a78ef88ff268f4b0c25abe3589bd18d84077a91f5f0684f8bbafb96143f19ebd"

    def test_heatmap_draws_one_rect_per_positive_block(self):
        rng = np.random.default_rng(3)
        field = rng.random((301, 601)) * (rng.random((301, 601)) < 0.002)
        blocked = full_grid_means(field)
        assert blocked.shape == (301 // 2, 601 // 3)
        means, text = draw_heatmap(field, x0=-300, title="field")
        assert means.tobytes() == blocked.tobytes()
        # The background and the plot frame, then one rect per positive block.
        assert text.count("<rect") == 2 + int(np.count_nonzero(blocked > 0.0))
        assert 0 < np.count_nonzero(blocked > 0.0) < blocked.size
        peaks = int(np.count_nonzero(blocked == blocked.max()))
        assert text.count('fill="rgb(8,48,107)"') == peaks
        assert text.splitlines()[2 : 2 + len(per_cell_rects(blocked))] == per_cell_rects(blocked)

    def test_heatmap_half_shade_rounds_to_even(self):
        # Shade sqrt(0.25) = 0.5: red 131.5 and green 151.5 round to even.
        _, text = draw_heatmap([[1.0, 0.25], [0.0, 0.25]], x0=0, title="half")
        assert text.count("<rect") == 2 + 3
        assert text.count('fill="rgb(132,152,181)"') == 2
        assert text.count('fill="rgb(8,48,107)"') == 1

    def test_renderers_open_no_file(self):
        # The charts come back as text; cli._write is what writes them.
        def no_open(file, *args, **kwargs):
            raise AssertionError(f"a renderer opened {file}")

        xs = np.arange(5.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(builtins, "open", no_open)
            patch.setattr(io, "open", no_open)
            charts = [
                _svg.line_chart([(xs, xs**2, "squares")], title="hline", x_label="x", y_label="y", hline=2.0),
                _svg.line_chart([(xs, np.zeros(5), "zeros")], title="no points", x_label="x", y_label="y", log_y=True),
                _svg.line_chart([(xs, xs, "up"), (xs, 4.0 - xs, "down")], title="two", x_label="x", y_label="y"),
                _svg.heatmap(np.eye(3), extent=(3, 3), x0=-1, title="heat", x_label="n", y_label="t"),
            ]
        assert [type(chart) for chart in charts] == [str] * 4
        assert [chart.count("<polyline") for chart in charts] == [1, 0, 2, 0]
        assert all(chart.endswith("\n</svg>\n") for chart in charts)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072014e-308 / 3.0)
    @example(1e-05)
    @example(1e16)
    @example(0.1 + 0.2)
    def test_percent_format_is_round_trip_format(self, x):
        text = "%.17g" % x
        assert text == format(x, ".17g")
        back = float(text)
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)

    def test_integer_columns_keep_str_int(self, tmp_path):
        tables = [
            ("n_sites,site,cycle_average,limit_average",
             [[4001, 0, 0.10101951754089237, 1e-05]]),
            ("n,p_total,p_L,p_0,p_R",
             [[-12, 0.0, 1e16, 5e-324, -0.0], [0, 0.25, 1.0 / 3.0, 2.0 / 3.0, 1.5],
              # Beyond 17 digits "%.17g" would print an exponent.
              [10**17 + 1, 1.0, 0.0, 0.0, 1.0]]),
        ]
        for header, rows in tables:
            path = tmp_path / "table.csv"
            written = _write_csv(path, header, *zip(*rows))
            assert written == (path, hashlib.sha256(path.read_bytes()).hexdigest())
            expected = [header] + [
                ",".join(str(v) if isinstance(v, int) else format(v, ".17g") for v in row)
                for row in rows
            ]
            assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


class TestStationary:
    def test_profile_rows(self, tmp_path):
        code = main(
            [
                "stationary",
                "--qubit",
                FIGURE_QUBIT,
                "--window",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "stationary.csv")
        assert header == ["n", "p_total", "p_L", "p_0", "p_R"]
        assert [int(r[0]) for r in rows] == list(range(-3, 4))
        q = QubitState(1j * INV_SQRT2, 0.0, INV_SQRT2)
        center = next(r for r in rows if int(r[0]) == 0)
        assert float(center[1]) == pytest.approx(10.0 - 4.0 * math.sqrt(6.0), abs=1e-12)
        profile = stationary_profile(q, 3)
        for row in rows:
            n = int(row[0])
            parts = float(row[2]) + float(row[3]) + float(row[4])
            assert float(row[1]) == parts
            assert float(row[1]) == profile.total(n)
            assert [float(v) for v in row[2:]] == profile.probabilities[n + 3].tolist()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["total_mass"] == total_mass(q)

    def test_prints_summary(self, tmp_path, capsys):
        main(
            [
                "stationary",
                "--qubit",
                FIGURE_QUBIT,
                "--window",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert "P(0) = 0.2020410288672" in out
        assert "total localized mass" in out

    def test_zero_localization_state_emits_zeros(self, tmp_path):
        s6 = 1.0 / math.sqrt(6.0)
        main(
            [
                "stationary",
                "--qubit",
                f"{s6},{-2 * s6},{s6}",
                "--window",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        _, rows = read_csv(tmp_path / "stationary.csv")
        for row in rows:
            assert abs(float(row[1])) < 1e-30

    def test_rejects_bad_window(self, tmp_path):
        assert (
            main(
                [
                    "stationary",
                    "--qubit",
                    FIGURE_QUBIT,
                    "--window",
                    "0",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 2
        )

    def test_refuses_window_above_the_cap_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the cap must refuse before computing")

        monkeypatch.setattr(cli.stationary, "stationary_profile", no_work)
        monkeypatch.setattr(cli.stationary, "total_mass", no_work)
        out = tmp_path / "out"
        window = cli._MAX_STATIONARY_WINDOW + 1
        code = main(["stationary", "--qubit", FIGURE_QUBIT, "--window", str(window), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --window must be at most {cli._MAX_STATIONARY_WINDOW}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_accepts_the_widest_window(self, tmp_path):
        window = cli._MAX_STATIONARY_WINDOW
        argv = ["stationary", "--qubit", FIGURE_QUBIT, "--window", str(window), "--out", str(tmp_path)]
        assert main(argv) == 0
        _, rows = read_csv(tmp_path / "stationary.csv")
        assert [int(rows[0][0]), int(rows[-1][0])] == [-window, window]
        # The geometric profile underflows to exactly 0 long before the edge.
        assert float(rows[0][1]) == float(rows[-1][1]) == 0.0


class TestTimeavg:
    def test_values_match_library(self, tmp_path):
        code = main(
            [
                "timeavg",
                "--qubit",
                FIGURE_QUBIT,
                "--sites",
                "21",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "timeavg.csv")
        assert header == ["n_sites", "site", "cycle_average", "limit_average"]
        assert len(rows) == 1
        q = QubitState(1j * INV_SQRT2, 0.0, INV_SQRT2)
        assert int(rows[0][0]) == 21
        assert float(rows[0][2]) == cycle_time_average(21, q)
        assert float(rows[0][3]) == infinite_time_average_total(q)

    def test_rejects_even_sites(self, tmp_path):
        code = main(
            [
                "timeavg",
                "--qubit",
                FIGURE_QUBIT,
                "--sites",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_refuses_sites_above_the_cap_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the cap must refuse before computing")

        monkeypatch.setattr(cli.timeavg, "cycle_time_average", no_work)
        out = tmp_path / "out"
        sites = cli._MAX_TIMEAVG_SITES + 2
        code = main(["timeavg", "--qubit", FIGURE_QUBIT, "--sites", str(sites), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --sites must be at most {cli._MAX_TIMEAVG_SITES}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_accepts_sites_just_below_the_cap(self, tmp_path):
        sites = cli._MAX_TIMEAVG_SITES - 2
        argv = ["timeavg", "--qubit", FIGURE_QUBIT, "--sites", str(sites), "--out", str(tmp_path)]
        assert main(argv) == 0
        _, rows = read_csv(tmp_path / "timeavg.csv")
        assert int(rows[0][0]) == sites
        # The finite-cycle average approaches the closed form at rate 1/N.
        assert sites * abs(float(rows[0][2]) - float(rows[0][3])) < 5.0


class TestWeaklimit:
    def test_table_and_distance(self, tmp_path):
        code = main(["weaklimit", "--steps", "100", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "weaklimit.csv")
        assert header == ["x", "cdf_empirical", "cdf_limit"]
        assert len(rows) == 201
        assert float(rows[0][0]) == -1.0
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)
        for row in rows:
            assert float(row[2]) == limit_cdf(float(row[0]))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        expected = cdf_distance(empirical_rescaled(100))
        assert manifest["parameters"]["kolmogorov_distance"] == pytest.approx(
            expected, abs=1e-15
        )

    def test_rejects_short_runs(self, tmp_path):
        assert main(["weaklimit", "--steps", "50", "--out", str(tmp_path)]) == 2

    def test_refuses_steps_above_the_cap_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the cap must refuse before computing")

        monkeypatch.setattr(cli.weaklimit, "empirical_rescaled", no_work)
        out = tmp_path / "out"
        steps = cli._MAX_WEAKLIMIT_STEPS + 1
        assert main(["weaklimit", "--steps", str(steps), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --steps must be at most {cli._MAX_WEAKLIMIT_STEPS}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_accepts_steps_at_the_cap(self, tmp_path, capsys, monkeypatch):
        # The run at the cap takes seconds, so it stands in a t = 100 walk and
        # checks only that the cap admits the size and passes it on.
        asked = []

        def short_walk(steps):
            asked.append(steps)
            return empirical_rescaled(100)

        monkeypatch.setattr(cli.weaklimit, "empirical_rescaled", short_walk)
        steps = cli._MAX_WEAKLIMIT_STEPS
        assert steps >= 12000
        assert main(["weaklimit", "--steps", str(steps), "--out", str(tmp_path)]) == 0
        assert asked == [steps]
        assert capsys.readouterr().out.startswith(f"Kolmogorov distance at t = {steps}: ")


#: The line prefixes ``verify --suite all`` prints, in order.
VERIFY_PREFIXES = [
    "PASS [paper-constants] coin unitarity:",
    "PASS [paper-constants] stationary origin value:",
    "PASS [paper-constants] localized total masses:",
    "PASS [paper-constants] decay ratio root identity:",
    "PASS [paper-constants] time-average level without stayer amplitude:",
    "PASS [paper-constants] time average equals stationary at origin:",
    "PASS [paper-constants] limit density at 0:",
    "PASS [paper-constants] localization mass 1/3:",
    "PASS [paper-constants] continuous mass 2/3:",
    "PASS [evolution] single step from a pure left mover:",
    "PASS [evolution] probability conservation at t = 1000:",
    "PASS [evolution] origin probability near the localized limit:",
    "PASS [evolution] zero-localization state decays:",
    "PASS [evolution] cycle wraparound after one step:",
    "PASS [evolution] cycle matches line before wraparound:",
    "PASS [spectral] dispersion identity on a 1024-node grid:",
    "PASS [spectral] eigenvector orthonormality:",
    "PASS [spectral] eigenvector residuals:",
    "PASS [spectral] quadrature matches direct evolution:",
    "PASS [spectral] kernel normalization at t = 0:",
    "PASS [spectral] stationary plus remainder reconstructs the walk:",
]


def pointwise_spectral_gaps() -> list[float]:
    """The batched spectral checks' values, one momentum, site or time per call."""
    q = cli._FIGURE_STATE
    points = [spectral.dispersion(k) for k in spectral.quadrature_nodes(1024).tolist()]
    gaps = [max(abs(c * c + s * s - 1.0) for c, s, _ in points)]
    ortho = residual = 0.0
    for k in spectral.quadrature_nodes(1024)[::8].tolist():
        phases, vectors = spectral.eigensystem(k)
        ortho = max(ortho, float(np.max(np.abs(vectors.conj() @ vectors.T - np.eye(3)))))
        op = spectral.fourier_operator(k)
        for phase, vec in zip(phases, vectors):
            residual = max(residual, float(np.max(np.abs(op @ vec - np.exp(1j * phase) * vec))))
    gaps += [ortho, residual]
    worst = 0.0
    for t in (1, 5, 20):
        for n in range(-5, 6):
            psi = spectral.wavefunction(n, t, q).as_array()
            worst = max(worst, float(np.max(np.abs(evolve_line(q, t).amplitude(n).as_array() - psi))))
    gaps.append(worst)
    worst = 0.0
    for t in (0, 5, 20):
        for n in range(-2, 3):
            moving = spectral.oscillatory_remainder(n, t, q).as_array()
            localized = np.array([stationary.limit_amplitude(n, l, q) for l in (1, 2, 3)])
            gap = moving + localized - evolve_line(q, t).amplitude(n).as_array()
            worst = max(worst, float(np.max(np.abs(gap))))
    return gaps + [worst]


def verify_lines(suite: str, capsys) -> list[str]:
    assert main(["verify", "--suite", suite]) == 0
    return capsys.readouterr().out.splitlines()


class TestVerify:
    def test_paper_constants_suite_passes(self, capsys):
        assert main(["verify", "--suite", "paper-constants"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_all_suites_in_order(self, capsys):
        lines = verify_lines("all", capsys)
        assert len(lines) == len(VERIFY_PREFIXES) + 1 == 22
        for line, prefix in zip(lines, VERIFY_PREFIXES):
            assert line.startswith(prefix + " ")
        assert lines[-1] == "all checks passed"

    def test_each_suite_prints_its_own_checks(self, capsys):
        for suite in ("paper-constants", "evolution", "spectral"):
            lines = verify_lines(suite, capsys)
            own = [p for p in VERIFY_PREFIXES if p.startswith(f"PASS [{suite}] ")]
            assert len(lines) == len(own) + 1
            for line, prefix in zip(lines, own):
                assert line.startswith(prefix + " ")
            assert lines[-1] == "all checks passed"

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'bogus'" in captured.err
        for suite in (*cli._SUITES, "all"):
            assert f"'{suite}'" in captured.err

    def test_batched_spectral_checks_equal_the_pointwise_loops(self):
        # Each spectral check evaluates all its momenta, sites or times in one
        # batch; its value must be the one-at-a-time value bit for bit.
        batched = [
            cli._dispersion_identity()[0],
            *cli._eigen_gaps(),
            cli._quadrature_vs_direct()[0],
            cli._reconstruction()[0],
        ]
        assert batched == pointwise_spectral_gaps()

    def test_help_names_every_suite(self, capsys):
        assert main(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        for suite in (*cli._SUITES, "all"):
            assert suite in out

    def test_failed_checks_exit_1(self, capsys, monkeypatch):
        # A check passes only when value < bound: a value on the bound and a
        # NaN value both fail.
        checks = (
            ("demo", "below bound", 1.0, lambda: (0.5, "value 0.5")),
            ("demo", "on bound", 1.0, lambda: (1.0, "value 1.0")),
            ("demo", "not a number", 1.0, lambda: (math.nan, "value nan")),
        )
        monkeypatch.setattr(cli, "_CHECKS", checks)
        assert main(["verify", "--suite", "all"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS [demo] below bound: value 0.5",
            "FAIL [demo] on bound: value 1.0",
            "FAIL [demo] not a number: value nan",
            "2 check(s) failed",
        ]

    def test_ignores_grid_environment_variable(self, tmp_path, capsys, monkeypatch):
        # The CLI always uses the default quadrature grid; a TRIWALK_GRID
        # left in the environment changes neither verify nor the manifest.
        monkeypatch.delenv("TRIWALK_GRID", raising=False)
        plain = verify_lines("spectral", capsys)
        for value in ("abc", "64", "256", "2048"):
            monkeypatch.setenv("TRIWALK_GRID", value)
            assert verify_lines("spectral", capsys) == plain
        main(["timeavg", "--qubit", "1,0,0", "--sites", "5", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["grid_size"] == DEFAULT_GRID_SIZE == 16384


#: One small run of each writing subcommand and the manifest parameters it
#: records: every option but --out, plus the computed values.
MANIFEST_PARAMETERS = {
    "evolve on the line": (
        ["evolve", "--qubit", "1,0,0", "--steps", "3", "--svg", "t.svg"],
        {"qubit": "1,0,0", "steps": 3, "cycle": None, "svg": "t.svg", "heatmap": None, "grid_size": 16384},
    ),
    "evolve on a cycle": (
        ["evolve", "--qubit", "1,0,0", "--steps", "3", "--cycle", "5", "--heatmap", "h.svg"],
        {"qubit": "1,0,0", "steps": 3, "cycle": 5, "svg": None, "heatmap": "h.svg", "grid_size": 16384},
    ),
    "stationary": (
        ["stationary", "--qubit", "1,0,0", "--window", "4"],
        {"qubit": "1,0,0", "window": 4, "svg": None, "grid_size": 16384,
         "total_mass": 0.40824829046386657},
    ),
    "timeavg": (
        ["timeavg", "--qubit", "1,0,0", "--sites", "5"],
        {"qubit": "1,0,0", "sites": 5, "grid_size": 16384},
    ),
    "weaklimit": (
        ["weaklimit", "--steps", "100", "--svg", "cdf.svg"],
        {"steps": 100, "svg": "cdf.svg", "grid_size": 16384,
         "kolmogorov_distance": pytest.approx(0.09602034547337879, abs=1e-15)},
    ),
}


class TestManifest:
    @pytest.mark.parametrize("case", sorted(MANIFEST_PARAMETERS))
    def test_parameters_are_the_options_but_out(self, case, tmp_path, monkeypatch):
        argv, expected = MANIFEST_PARAMETERS[case]
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "out"]) == 0
        parameters = json.loads((tmp_path / "out" / "manifest.json").read_text())["parameters"]
        assert parameters == expected
        assert not {"out", "handler", "command", "raw_argv"} & set(parameters)

    def test_outputs_are_keyed_by_their_path_from_out(self, tmp_path, monkeypatch, capsys):
        # The plot outside --out shares the trace table's file name.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p").mkdir()
        assert main(["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o", "--svg", "p/trace.csv"]) == 0
        outputs = json.loads((tmp_path / "o" / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == ["../p/trace.csv", "distribution.csv", "trace.csv"]
        assert outputs == {name: sha256_of(tmp_path / "o" / name) for name in outputs}
        assert outputs["trace.csv"] != outputs["../p/trace.csv"]
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "wrote distribution.csv, trace.csv, ../p/trace.csv and manifest.json in o"

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--svg", "t.svg", "--heatmap", "h.svg"],
             ["o/distribution.csv", "o/trace.csv", "t.svg", "h.svg"]),
            (["stationary", "--qubit", "1,0,0", "--svg", "s.svg"], ["o/stationary.csv", "s.svg"]),
            (["timeavg", "--qubit", "1,0,0", "--sites", "5"], ["o/timeavg.csv"]),
            (["weaklimit", "--steps", "100", "--svg", "w.svg"], ["o/weaklimit.csv", "w.svg"]),
        ],
        ids=["evolve", "stationary", "timeavg", "weaklimit"],
    )
    def test_outputs_are_hashed_from_the_bytes_written(self, argv, files, tmp_path, monkeypatch):
        # Every output, manifest.json included, is one binary write whose
        # digest the manifest lists: no file is read back or opened in text
        # mode (Path.read_bytes and Path.write_bytes open through io.open).
        opened = []
        real_open = io.open

        def write_only(file, mode="r", *args, **kwargs):
            assert set(mode) & set("wax+"), f"read back {file}"
            assert "b" in mode, f"{file} opened in text mode {mode!r}"
            opened.append(os.path.basename(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", write_only)
        monkeypatch.setattr(builtins, "open", write_only)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "o"]) == 0
        monkeypatch.undo()
        # Each output once in the order written, then the manifest, once.
        assert opened == [*map(os.path.basename, files), "manifest.json"]
        outputs = json.loads((tmp_path / "o" / "manifest.json").read_text())["outputs"]
        assert outputs == {os.path.relpath(f, "o"): sha256_of(tmp_path / f) for f in files}

    def test_round_trip(self, tmp_path):
        main(["timeavg", "--qubit", "1,0,0", "--sites", "5", "--out", str(tmp_path)])
        text = (tmp_path / "manifest.json").read_text()
        manifest = json.loads(text)
        assert json.dumps(manifest, indent=2, sort_keys=True) + "\n" == text
        assert set(manifest) == {"argv", "command", "outputs", "parameters", "version"}
        assert manifest["command"] == "timeavg"
        assert manifest["version"] == triwalk.__version__


class TestOutputPaths:
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["timeavg", "--qubit", "1,0,0", "--sites", "5", "--out", str(taken)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--svg", "--heatmap"])
    def test_plot_in_missing_directory_exits_2(self, flag, tmp_path, capsys):
        plot = tmp_path / "missing" / "plot.svg"
        argv = ["evolve", "--qubit", "1,0,0", "--steps", "1", "--out", str(tmp_path), flag, str(plot)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} names a file in a missing directory: {plot}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o", "--svg", "real"],
             "--svg names a directory: real"),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--cycle", "5", "--out", "o", "--heatmap", "link"],
             "--heatmap names a directory: link"),
            (["stationary", "--qubit", "1,0,0", "--out", "real", "--svg", "real/sub"],
             "--svg names a directory: real/sub"),
            (["weaklimit", "--steps", "100", "--out", "o", "--svg", "o/"], "--svg names a directory: o/"),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o", "--svg", "o/.."], "--svg names a directory: o/.."),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o", "--heatmap", "missing/h.svg"],
             "--heatmap names a file in a missing directory: missing/h.svg"),
            (["stationary", "--qubit", "1,0,0", "--out", "o", "--svg", "o/sub/p.svg"],
             "--svg names a file in a missing directory: o/sub/p.svg"),
            (["weaklimit", "--steps", "100", "--out", "o", "--svg", "link/sub/../../o/x/p.svg"],
             "--svg names a file in a missing directory: link/sub/../../o/x/p.svg"),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o9", "--svg", "o9"], "--svg names a directory: o9"),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "a/b", "--heatmap", "a"],
             "--heatmap names a directory: a"),
            (["stationary", "--qubit", "1,0,0", "--out", "o", "--svg", ""], "--svg names a directory: "),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o", "--heatmap", ""], "--heatmap names a directory: "),
        ],
        ids=["existing directory", "symlinked directory", "directory inside --out", "trailing separator",
             "parent entry", "missing directory", "missing directory inside --out", "missing directory through a symlink",
             "--out itself", "a parent that --out makes", "empty --svg", "empty --heatmap"],
    )
    def test_a_plot_path_that_cannot_be_a_file_exits_2_before_any_work(self, argv, message, tmp_path, capsys, monkeypatch):
        # real holds the directory sub, and link is a symlink to real.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "real" / "sub").mkdir(parents=True)
        (tmp_path / "link").symlink_to("real")
        for module, name in WORKERS:
            monkeypatch.setattr(module, name, functools.partial(_stand_in, [], name))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["sub"]
        assert list((tmp_path / "real" / "sub").iterdir()) == []

    def test_plots_in_the_directories_that_out_makes_are_written(self, tmp_path, monkeypatch, capsys):
        # mkdir makes --out and its missing parents before any plot is written.
        monkeypatch.chdir(tmp_path)
        argv = ["evolve", "--qubit", "1,0,0", "--steps", "2", "--out", "a/b", "--svg", "a/p.svg", "--heatmap", "a/b/h.svg"]
        assert main(argv) == 0
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["b", "p.svg"]
        assert sorted(p.name for p in (tmp_path / "a" / "b").iterdir()) == [
            "distribution.csv", "h.svg", "manifest.json", "trace.csv"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o", "--svg", "o/trace.csv"],
             "--out and --svg both write o/trace.csv"),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o", "--svg", "x.svg", "--heatmap", "x.svg"],
             "--svg and --heatmap both write x.svg"),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o", "--heatmap", "o/manifest.json"],
             "--out and --heatmap both write o/manifest.json"),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--cycle", "5", "--svg", "./distribution.csv"],
             "--out and --svg both write ./distribution.csv"),
            (["evolve", "--qubit", "1,0,0", "--steps", "3", "--out", "o", "--heatmap", "link/../o/trace.csv"],
             "--out and --heatmap both write link/../o/trace.csv"),
            (["stationary", "--qubit", "1,0,0", "--out", "o", "--svg", "o/stationary.csv"],
             "--out and --svg both write o/stationary.csv"),
            (["stationary", "--qubit", "1,0,0", "--out", "link", "--svg", "real/manifest.json"],
             "--out and --svg both write real/manifest.json"),
            (["weaklimit", "--steps", "100", "--out", "o", "--svg", "o/weaklimit.csv"],
             "--out and --svg both write o/weaklimit.csv"),
        ],
        ids=["svg on trace.csv", "svg and heatmap", "heatmap on the manifest", "default --out",
             "through a symlink", "stationary", "stationary through a symlink", "weaklimit"],
    )
    def test_an_output_path_used_twice_exits_2_before_any_work(self, argv, message, tmp_path, capsys, monkeypatch):
        # Outputs are compared after os.path.realpath; link is a symlink to the directory real.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to("real")
        for module, name in WORKERS:
            monkeypatch.setattr(module, name, functools.partial(_stand_in, [], name))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]
        assert list((tmp_path / "real").iterdir()) == []

    @pytest.mark.parametrize(
        "message, printed",
        [
            ("Unable to allocate 5.96 GiB for an array", "Unable to allocate 5.96 GiB for an array"),
            ("", "out of memory"),
        ],
    )
    def test_out_of_memory_exits_2(self, message, printed, tmp_path, capsys, monkeypatch):
        # A run at the largest accepted size under an address-space limit
        # (ulimit -v) too small for its arrays; a callee raising MemoryError
        # stands in for the failed allocation.
        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli.walk, "evolve_line", no_memory)
        argv = ["evolve", "--qubit", "1,0,0", "--steps", str(cli._MAX_EVOLVE_STEPS), "--out", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {printed}\n"
        assert captured.out == ""


class _Admitted(Exception):
    """Raised by a stand-in worker: the argv passed every check before the work."""


def _stand_in(ran: list, name: str, *args, **kwargs):
    ran.append(name)
    raise _Admitted(name)


#: The call each subcommand's work starts with (verify has no size to cap).
WORKERS = [
    (cli.walk, "evolve_line"),
    (cli.walk, "evolve_cycle"),
    (cli.stationary, "stationary_profile"),
    (cli.timeavg, "cycle_time_average"),
    (cli.weaklimit, "empirical_rescaled"),
]

#: Qubit texts: normalized, unnormalised or not a number, and malformed.
QUBIT_TEXTS = st.one_of(
    st.sampled_from([
        "1,0,0", "0.6,0,0.8i", FIGURE_QUBIT, ZERO_LOCALIZATION_QUBIT,
        "0.5,0.5,0.5", "1,1,0", "0,0,0", "nan,0,0", "inf,0,0", "1e999,0,0", "0.7071,0,0.7071",
        "x,0,0", "1,0", "1,,0", "", "1+,0,0", "0.6,0,0.8k", "1,0,0,0", "1j,0,0j", "--",
    ]),
    st.text(max_size=12),
)


def _around(*bounds: int):
    """Integers on both sides of each bound."""
    return st.one_of(*(st.integers(b - 2, b + 2) for b in bounds))


@st.composite
def sized_argvs(draw):
    """An argv of valid qubit and flags whose size lies near a cap or a lower
    bound, with the exit its size decides: 2 or 3, or None when it reaches
    the work."""
    command = draw(st.sampled_from(["evolve", "cycle", "stationary", "timeavg", "weaklimit"]))
    if command == "evolve":
        steps = draw(_around(0, cli._MAX_EVOLVE_STEPS))
        argv, refused = ["evolve", "--steps", str(steps)], not 0 <= steps <= cli._MAX_EVOLVE_STEPS
        return argv + ["--qubit=1,0,0", "--out", "out"], 2 if refused else None
    if command == "cycle":
        sites = draw(_around(3, cli._MAX_EVOLVE_CYCLE) | st.integers(3, cli._MAX_EVOLVE_CYCLE))
        most = min(cli._MAX_EVOLVE_STEPS, cli._MAX_EVOLVE_STEPS**2 // max(sites, 1))
        steps = draw(st.integers(max(0, most - 2), min(cli._MAX_EVOLVE_STEPS, most + 2)) | st.just(0))
        argv = ["evolve", "--qubit=1,0,0", "--cycle", str(sites), "--steps", str(steps), "--out", "out"]
        if sites < 3 or sites % 2 == 0:
            return argv, 3
        return argv, 2 if sites > cli._MAX_EVOLVE_CYCLE or sites * steps > cli._MAX_EVOLVE_STEPS**2 else None
    if command == "stationary":
        window = draw(_around(1, cli._MAX_STATIONARY_WINDOW))
        argv = ["stationary", "--qubit=1,0,0", "--window", str(window), "--out", "out"]
        return argv, 2 if not 1 <= window <= cli._MAX_STATIONARY_WINDOW else None
    if command == "timeavg":
        sites = draw(_around(3, cli._MAX_TIMEAVG_SITES))
        argv = ["timeavg", "--qubit=1,0,0", "--sites", str(sites), "--out", "out"]
        if sites < 3 or sites % 2 == 0:
            return argv, 3
        return argv, 2 if sites > cli._MAX_TIMEAVG_SITES else None
    steps = draw(_around(100, cli._MAX_WEAKLIMIT_STEPS))
    return ["weaklimit", "--steps", str(steps), "--out", "out"], 2 if not 100 <= steps <= cli._MAX_WEAKLIMIT_STEPS else None


#: Output paths, relative to a fresh directory holding a file named ``taken``.
OUTS = st.sampled_from([[], ["--out", "out"], ["--out", "taken"], ["--out", "taken/sub"]])
PLOTS = st.sampled_from([None, "plot.svg", "missing/plot.svg", "taken", "out", ""])


@st.composite
def small_argvs(draw):
    """An argv of any subcommand, well formed or not, small enough to run."""
    command = draw(st.sampled_from(["evolve", "stationary", "timeavg", "weaklimit", "verify", "other"]))
    qubit = "--qubit=" + draw(QUBIT_TEXTS)
    if command == "evolve":
        argv = ["evolve", qubit, "--steps", str(draw(st.integers(-2, 12)))]
        cycle = draw(st.none() | st.integers(-1, 12))
        argv += [] if cycle is None else ["--cycle", str(cycle)]
        flags = ["--svg", "--heatmap"]
    elif command == "stationary":
        argv, flags = ["stationary", qubit, "--window", str(draw(st.integers(-1, 12)))], ["--svg"]
    elif command == "timeavg":
        argv, flags = ["timeavg", qubit, "--sites", str(draw(st.integers(-1, 15)))], []
    elif command == "weaklimit":
        argv, flags = ["weaklimit", "--steps", str(draw(st.integers(98, 101)))], ["--svg"]
    elif command == "verify":
        return ["verify", "--suite", draw(st.sampled_from(["paper-constants", "bogus", "", "ALL"]))]
    else:
        return draw(st.sampled_from([[], ["frobnicate"], ["--help"], ["evolve", "--help"], ["evolve", "--steps", "x"]]))
    for flag in flags:
        plot = draw(PLOTS)
        argv += [] if plot is None else [flag, plot]
    return argv + draw(OUTS)


class TestEveryArgv:
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.one_of(sized_argvs(), small_argvs().map(lambda argv: (argv, "run"))))
    @example(case=(["evolve", "--qubit=1,0,0", "--steps", str(cli._MAX_EVOLVE_STEPS)], None))
    @example(case=(["evolve", "--qubit=1,0,0", "--steps", str(cli._MAX_EVOLVE_STEPS + 1), "--out", "out"], 2))
    @example(case=(["evolve", "--qubit=1,0,0", "--steps", "2499", "--cycle", str(cli._MAX_EVOLVE_CYCLE)], None))
    @example(case=(["evolve", "--qubit=1,0,0", "--steps", "2500", "--cycle", str(cli._MAX_EVOLVE_CYCLE), "--out", "out"], 2))
    @example(case=(["evolve", "--qubit=1,0,0", "--steps", "0", "--cycle", str(cli._MAX_EVOLVE_CYCLE + 2), "--out", "out"], 2))
    # argparse in Python 3.11 reads an option's "--" value as [], skipping its type.
    @example(case=(["timeavg", "--qubit=--", "--sites", "0"], "run"))
    @example(case=(["timeavg", "--qubit=1,0,0", "--sites=--"], "run"))
    def test_every_argv_ends_in_a_documented_exit(self, case, tmp_path):
        # Sized argvs run stand-in workers, so a size over a cap must exit 2
        # (3 for an even cycle) before any work, and one within every bound
        # must reach the work. Small argvs run for real.
        argv, expected = case
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        (work / "taken").write_text("")
        ran: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(work)
            if expected != "run":
                for module, name in WORKERS:
                    patch.setattr(module, name, functools.partial(_stand_in, ran, name))
            try:
                code = main(argv)
            except _Admitted:
                code = None
        if expected == "run":
            assert code in (0, 1, 2, 3)
        else:
            assert code == expected
            if expected is not None:
                assert ran == [] and not (work / "out").exists()


class TestTopLevel:
    def test_package_all_is_the_module_lists(self):
        modules = ("walk", "spectral", "stationary", "timeavg", "weaklimit")
        listed = [name for m in modules for name in getattr(triwalk, m).__all__]
        assert len(set(listed)) == len(listed)
        assert sorted(triwalk.__all__) == sorted(["__version__", *modules, *listed])
        assert len(set(triwalk.__all__)) == len(triwalk.__all__)
        for name in triwalk.__all__:
            assert getattr(triwalk, name) is not None
        for m in modules:
            module = getattr(triwalk, m)
            for name in module.__all__:
                assert getattr(triwalk, name) is getattr(module, name)

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, option",
        [(["verify", "--suite=--"], "--suite"), (["timeavg", "--qubit=--", "--sites", "3"], "--qubit")],
    )
    def test_double_dash_value_names_the_option(self, argv, option, capsys):
        # argparse in Python 3.11 reads an option's "--" value as [], skipping its type.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {option}: " in captured.err

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; importing scipy would take
        # most of the CLI start-up time.
        src = Path(triwalk.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = "import sys, triwalk.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert "'triwalk'" in result.stdout
        assert "'scipy'" not in result.stdout

    def test_import_adds_only_the_allowed_modules(self):
        # An import budget, not a timing: each module that importing the CLI
        # loads beyond numpy's own adds to every command's start-up, the more
        # so when nothing is compiled ahead. The records are slotted classes,
        # so neither dataclasses nor the copy module it imports is loaded.
        src = Path(triwalk.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = "import sys, numpy; old = set(sys.modules); import triwalk.cli; print(*sorted(set(sys.modules) - old))"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        added = result.stdout.split()
        allowed = {"argparse", "gettext", "hashlib", "_hashlib", "_blake2", "json", "_json", "__future__", "triwalk"}
        assert "triwalk.cli" in added
        assert [name for name in added if name.split(".")[0] not in allowed] == []


def readme_example() -> tuple[list[list[str]], str]:
    """README's command-line example block: the argv of each ``triwalk`` line,
    its backslash continuations joined, and the block's comments as one text."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = next(b for b in readme.split("```sh\n")[1:] if "triwalk verify" in b).split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("triwalk ")]
    return commands, " ".join(line.lstrip("# ") for line in lines if line.startswith("#"))


README_COMMANDS, README_COMMENTS = readme_example()


class TestReadme:
    def test_example_runs_every_subcommand(self):
        assert [argv[0] for argv in README_COMMANDS] == ["evolve", "evolve", "stationary", "timeavg", "weaklimit", "verify"]

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
    def test_example_command_exits_0(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0

    def test_stated_caps_are_the_cli_caps(self):
        stated = [
            f"--steps is at most {cli._MAX_EVOLVE_STEPS},",
            f"at most {cli._MAX_EVOLVE_CYCLE} sites and at most {cli._MAX_EVOLVE_STEPS**2} site-steps",
            f"(--window at most {cli._MAX_STATIONARY_WINDOW})",
            f"3 <= N <= {cli._MAX_TIMEAVG_SITES}",
            f"(100 <= --steps <= {cli._MAX_WEAKLIMIT_STEPS})",
        ]
        assert [phrase for phrase in stated if phrase not in README_COMMENTS] == []
