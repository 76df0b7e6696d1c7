"""End-to-end command-line behavior, run in process."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import triwalk
from triwalk import _svg, cli
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
        # NaN amplitudes used to pass the norm check and write NaN tables.
        for argv in (
            ["evolve", "--qubit=nan,0,0", "--steps", "3"],
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
#: with the per-cell writers; each argv runs with ``--out .`` in a fresh
#: directory.
PINNED_OUTPUTS = {
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


class TestWriters:
    @pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
    def test_pinned_output_bytes(self, case, tmp_path, monkeypatch):
        argv, expected = PINNED_OUTPUTS[case]
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "."]) == 0
        assert {name: sha256_of(tmp_path / name) for name in expected} == expected

    def test_all_zero_heatmap_bytes(self, tmp_path):
        # The peak falls back to 1.0 and no cell is drawn.
        path = tmp_path / "zero.svg"
        _svg.heatmap(path, np.zeros((3, 5)), x0=-2, title="empty", x_label="n", y_label="t")
        assert path.read_text().count("<rect") == 2
        assert sha256_of(path) == "a78ef88ff268f4b0c25abe3589bd18d84077a91f5f0684f8bbafb96143f19ebd"

    def test_heatmap_draws_one_rect_per_positive_block(self, tmp_path):
        rng = np.random.default_rng(3)
        field = rng.random((301, 601)) * (rng.random((301, 601)) < 0.002)
        blocked, row_step, col_step = _svg._downsample(field)
        assert (row_step, col_step) == (2, 3)
        path = tmp_path / "heat.svg"
        _svg.heatmap(path, field, x0=-300, title="field", x_label="n", y_label="t")
        text = path.read_text()
        # The background and the plot frame, then one rect per positive block.
        assert text.count("<rect") == 2 + int(np.count_nonzero(blocked > 0.0))
        assert 0 < np.count_nonzero(blocked > 0.0) < blocked.size
        peaks = int(np.count_nonzero(blocked == blocked.max()))
        assert text.count('fill="rgb(8,48,107)"') == peaks

    def test_heatmap_half_shade_rounds_to_even(self, tmp_path):
        # Shade sqrt(0.25) = 0.5: red 131.5 and green 151.5 round to even.
        path = tmp_path / "heat.svg"
        _svg.heatmap(path, [[1.0, 0.25], [0.0, 0.25]], x0=0, title="half", x_label="n", y_label="t")
        text = path.read_text()
        assert text.count("<rect") == 2 + 3
        assert text.count('fill="rgb(132,152,181)"') == 2
        assert text.count('fill="rgb(8,48,107)"') == 1

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
            (["n_sites", "site", "cycle_average", "limit_average"],
             [[4001, 0, 0.10101951754089237, 1e-05]]),
            (["n", "p_total", "p_L", "p_0", "p_R"],
             [[-12, 0.0, 1e16, 5e-324, -0.0], [0, 0.25, 1.0 / 3.0, 2.0 / 3.0, 1.5],
              # Beyond 17 digits "%.17g" would print an exponent.
              [10**17 + 1, 1.0, 0.0, 0.0, 1.0]]),
        ]
        for header, rows in tables:
            path = tmp_path / "table.csv"
            _write_csv(path, header, rows)
            expected = [",".join(header)] + [
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


class TestManifest:
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
        assert capsys.readouterr().err.startswith("error: ")


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
