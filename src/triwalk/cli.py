"""Command-line front end.

Subcommands run the simulators and closed-form evaluators, writing CSV
tables, an optional SVG plot, and a JSON run manifest with SHA-256 checksums
of every produced file. All numeric CSV fields use 17 significant digits, so
parsing them back reproduces the in-memory doubles exactly and identical
invocations produce identical bytes.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 invalid
physical input (non-normalized state, even cycle size).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, _svg, spectral, stationary, timeavg, walk, weaklimit
from .spectral import DEFAULT_GRID_SIZE, QuadratureGrid
from .walk import QubitState

__all__ = ["RunManifest", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3


class UsageError(Exception):
    """Malformed arguments: unparseable values, bad flags, bad ranges."""


class InvalidInputError(Exception):
    """Arguments parse but describe an unphysical configuration."""


def _parse_complex(text: str) -> complex:
    """Parse ``a``, ``bi``, ``a+bi`` or ``a-bi`` with decimal literals."""
    cleaned = text.strip().replace("−", "-").replace("i", "j")
    if not cleaned:
        raise UsageError("empty complex number")
    try:
        return complex(cleaned)
    except ValueError:
        raise UsageError(f"cannot parse complex number {text!r}") from None


def _parse_qubit(text: str) -> QubitState:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("a qubit is three comma-separated complex numbers")
    alpha, beta, gamma = (_parse_complex(p) for p in parts)
    try:
        return QubitState(alpha, beta, gamma)
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from None


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _grid_size() -> int:
    raw = os.environ.get("TRIWALK_GRID")
    if raw is None:
        return DEFAULT_GRID_SIZE
    try:
        size = int(raw)
        QuadratureGrid(size)
        if size < spectral.MIN_GRID_SIZE:
            raise ValueError(f"quadrature grid size must be at least {spectral.MIN_GRID_SIZE}")
    except ValueError as exc:
        raise UsageError(f"bad TRIWALK_GRID value {raw!r}: {exc}") from None
    return size


@dataclass
class RunManifest:
    """Record of one CLI invocation: inputs, tool version, output checksums."""

    command: str
    argv: list[str]
    parameters: dict
    version: str = __version__
    outputs: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        return cls(**data)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row)
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _finish(out_dir: Path, manifest: RunManifest, files: list[Path]) -> None:
    for f in files:
        manifest.outputs[f.name] = _sha256(f)
    (out_dir / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")


def _distribution_rows(dist: walk.Distribution) -> list[list]:
    rows = zip(dist.sites(), dist.totals.tolist(), dist.probabilities.tolist())
    return [[n, total, *parts] for n, total, parts in rows]


_DISTRIBUTION_HEADER = ["n", "p_total", "p_L", "p_0", "p_R"]


def _cmd_evolve(args: argparse.Namespace) -> int:
    q = _parse_qubit(args.qubit)
    if args.steps < 0:
        raise UsageError("--steps must be non-negative")
    if args.cycle is not None and (args.cycle < 3 or args.cycle % 2 == 0):
        raise InvalidInputError("cycle size must be an odd integer >= 3")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.cycle is None:
        state: walk.LineState | walk.CycleState = walk.initial_line_state(q)
        stepper = walk.step_line
    else:
        state = walk.initial_cycle_state(q, args.cycle)
        stepper = walk.step_cycle

    dist = walk.distribution(state)
    trace = [dist.total(0)]
    heat_rows = [dist] if args.heatmap else None
    for _ in range(args.steps):
        state = stepper(state)
        dist = walk.distribution(state)
        trace.append(dist.total(0))
        if heat_rows is not None:
            heat_rows.append(dist)

    final = walk.distribution(state)
    files = []
    dist_path = out_dir / "distribution.csv"
    _write_csv(dist_path, _DISTRIBUTION_HEADER, _distribution_rows(final))
    files.append(dist_path)
    trace_path = out_dir / "trace.csv"
    _write_csv(trace_path, ["t", "p0"], [[t, p] for t, p in enumerate(trace)])
    files.append(trace_path)

    if args.svg:
        svg_path = Path(args.svg)
        _svg.line_chart(
            svg_path,
            [(np.arange(len(trace)), np.array(trace), "P(0, t)")],
            title="Probability at the origin",
            x_label="t",
            y_label="P(0, t)",
            hline=2.0 * (5.0 - 2.0 * math.sqrt(6.0)),
        )
        files.append(svg_path)
    if args.heatmap:
        heat_path = Path(args.heatmap)
        grid = np.zeros((len(heat_rows), len(final)))
        for row, dist in zip(grid, heat_rows):
            start = dist.first_site - final.first_site
            row[start : start + len(dist)] = dist.totals
        _svg.heatmap(
            heat_path,
            grid,
            x0=final.first_site,
            title="Space-time probability density",
            x_label="n",
            y_label="t",
        )
        files.append(heat_path)

    manifest = RunManifest(
        command="evolve",
        argv=list(args.raw_argv),
        parameters={
            "qubit": args.qubit,
            "steps": args.steps,
            "cycle": args.cycle,
            "grid_size": args.grid_size,
            "svg": args.svg,
            "heatmap": args.heatmap,
        },
    )
    _finish(out_dir, manifest, files)
    print(f"final P(0, {args.steps}) = {_fmt(trace[-1])}")
    print(f"wrote {', '.join(f.name for f in files)} and manifest.json in {out_dir}")
    return EXIT_OK


def _cmd_stationary(args: argparse.Namespace) -> int:
    q = _parse_qubit(args.qubit)
    if args.window < 1:
        raise UsageError("--window must be at least 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    profile = stationary.stationary_profile(q, args.window)
    mass = stationary.total_mass(q)
    files = []
    csv_path = out_dir / "stationary.csv"
    _write_csv(csv_path, _DISTRIBUTION_HEADER, _distribution_rows(profile))
    files.append(csv_path)

    if args.svg:
        svg_path = Path(args.svg)
        _svg.line_chart(
            svg_path,
            [(np.array(profile.sites()), profile.totals, "limit P(n)")],
            title="Stationary profile (log scale)",
            x_label="n",
            y_label="P(n)",
            log_y=True,
        )
        files.append(svg_path)

    manifest = RunManifest(
        command="stationary",
        argv=list(args.raw_argv),
        parameters={
            "qubit": args.qubit,
            "window": args.window,
            "grid_size": args.grid_size,
            "svg": args.svg,
            "total_mass": mass,
        },
    )
    _finish(out_dir, manifest, files)
    print(f"P(0) = {_fmt(profile.total(0))}")
    print(f"total localized mass = {_fmt(mass)}")
    return EXIT_OK


def _cmd_timeavg(args: argparse.Namespace) -> int:
    q = _parse_qubit(args.qubit)
    if args.sites < 3 or args.sites % 2 == 0:
        raise InvalidInputError("--sites must be an odd integer >= 3")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cycle_value = timeavg.cycle_time_average(args.sites, q, site=0)
    limit_value = timeavg.infinite_time_average_total(q)
    csv_path = out_dir / "timeavg.csv"
    _write_csv(
        csv_path,
        ["n_sites", "site", "cycle_average", "limit_average"],
        [[args.sites, 0, cycle_value, limit_value]],
    )
    manifest = RunManifest(
        command="timeavg",
        argv=list(args.raw_argv),
        parameters={
            "qubit": args.qubit,
            "sites": args.sites,
            "grid_size": args.grid_size,
        },
    )
    _finish(out_dir, manifest, [csv_path])
    print(f"cycle average at origin (N = {args.sites}): {_fmt(cycle_value)}")
    print(f"infinite-cycle limit at origin:            {_fmt(limit_value)}")
    return EXIT_OK


def _cmd_weaklimit(args: argparse.Namespace) -> int:
    if args.steps < 100:
        raise UsageError("--steps must be at least 100 for a meaningful comparison")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    empirical = weaklimit.empirical_rescaled(args.steps)
    distance = weaklimit.cdf_distance(empirical)
    xs = empirical.positions
    cumulative = np.cumsum(empirical.masses)
    limit = np.array([weaklimit.limit_cdf(float(x)) for x in xs])
    csv_path = out_dir / "weaklimit.csv"
    _write_csv(
        csv_path,
        ["x", "cdf_empirical", "cdf_limit"],
        np.column_stack((xs, cumulative, limit)).tolist(),
    )
    files = [csv_path]

    if args.svg:
        svg_path = Path(args.svg)
        _svg.line_chart(
            svg_path,
            [(xs, cumulative, "empirical CDF"), (xs, limit, "limit CDF")],
            title=f"Rescaled position CDF at t = {args.steps}",
            x_label="x = n / t",
            y_label="CDF",
        )
        files.append(svg_path)

    manifest = RunManifest(
        command="weaklimit",
        argv=list(args.raw_argv),
        parameters={
            "steps": args.steps,
            "grid_size": args.grid_size,
            "svg": args.svg,
            "kolmogorov_distance": distance,
        },
    )
    _finish(out_dir, manifest, files)
    print(f"Kolmogorov distance at t = {args.steps}: {_fmt(distance)}")
    return EXIT_OK


def _check(name: str, passed: bool, detail: str) -> tuple[str, bool, str]:
    return name, passed, detail


def _suite_paper_constants() -> list[tuple[str, bool, str]]:
    checks = []
    coin = walk.coin_matrix()
    residual = float(np.max(np.abs(coin @ coin.conj().T - np.eye(3))))
    checks.append(_check("coin unitarity", residual < 1e-15, f"residual {residual:.2e}"))

    figure_state = QubitState(1j / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
    origin = stationary.limit_probability(0, figure_state)
    expected = 10.0 - 4.0 * math.sqrt(6.0)
    checks.append(
        _check(
            "stationary origin value",
            abs(origin - expected) < 1e-12,
            f"{origin:.13f} vs {expected:.13f}",
        )
    )

    mass_cases = [
        (figure_state, 1.0 / math.sqrt(6.0)),
        (QubitState(*(1.0 / math.sqrt(3.0),) * 3), 3.0 - math.sqrt(6.0)),
        (
            QubitState(
                1.0 / math.sqrt(3.0), -1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)
            ),
            (3.0 - math.sqrt(6.0)) / 9.0,
        ),
    ]
    worst = max(abs(stationary.total_mass(q) - want) for q, want in mass_cases)
    checks.append(_check("localized total masses", worst < 1e-12, f"worst gap {worst:.2e}"))

    c = stationary.GEOMETRIC_RATIO
    root_residual = abs(c * c + 10.0 * c + 1.0)
    checks.append(
        _check("decay ratio root identity", root_residual < 1e-14, f"residual {root_residual:.2e}")
    )

    top = timeavg.infinite_time_average_total(figure_state)
    top_expected = 2.0 * (5.0 - 2.0 * math.sqrt(6.0))
    checks.append(
        _check(
            "time-average level without stayer amplitude",
            abs(top - top_expected) < 1e-12,
            f"{top:.13f} vs {top_expected:.13f}",
        )
    )

    sample = [
        figure_state,
        QubitState(1.0, 0.0, 0.0),
        QubitState(0.0, 1.0, 0.0),
        QubitState(0.5, 0.5j, math.sqrt(0.5)),
    ]
    gap = max(
        abs(
            timeavg.infinite_time_average_component(l, q)
            - stationary.limit_component(0, l, q)
        )
        for q in sample
        for l in (1, 2, 3)
    )
    checks.append(
        _check("time average equals stationary at origin", gap < 1e-12, f"worst gap {gap:.2e}")
    )

    d0 = weaklimit.density(0.0)
    d0_expected = math.sqrt(8.0) / (3.0 * math.pi)
    checks.append(
        _check("limit density at 0", abs(d0 - d0_expected) < 1e-12, f"{d0:.10f}")
    )

    lm = weaklimit.localization_mass()
    checks.append(
        _check("localization mass 1/3", abs(lm - 1.0 / 3.0) < 1e-12, f"{lm:.15f}")
    )

    cm = weaklimit.continuous_mass()
    checks.append(
        _check("continuous mass 2/3", abs(cm - 2.0 / 3.0) < 1e-6, f"{cm:.10f}")
    )
    return checks


def _suite_evolution() -> list[tuple[str, bool, str]]:
    checks = []
    one_step = walk.distribution(walk.evolve_line(QubitState(1.0, 0.0, 0.0), 1))
    oracle = {-1: 1.0 / 9.0, 0: 4.0 / 9.0, 1: 4.0 / 9.0}
    gap = max(abs(one_step.total(n) - p) for n, p in oracle.items())
    checks.append(_check("single step from a pure left mover", gap < 1e-15, f"worst gap {gap:.2e}"))

    figure_state = QubitState(1j / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
    state = walk.evolve_line(figure_state, 1000)
    total = float(np.sum(np.abs(state.amplitudes) ** 2))
    checks.append(
        _check("probability conservation at t = 1000", abs(total - 1.0) < 1e-12, f"total {total:.15f}")
    )
    p0 = walk.distribution(state).total(0)
    expected = 10.0 - 4.0 * math.sqrt(6.0)
    checks.append(
        _check(
            "origin probability near the localized limit",
            abs(p0 - expected) < 0.01,
            f"P(0, 1000) = {p0:.6f}, limit {expected:.6f}",
        )
    )

    s6 = math.sqrt(6.0)
    zero_state = QubitState(1.0 / s6, -2.0 / s6, 1.0 / s6)
    p0_zero = walk.distribution(walk.evolve_line(zero_state, 1000)).total(0)
    checks.append(
        _check("zero-localization state decays", p0_zero < 0.01, f"P(0, 1000) = {p0_zero:.2e}")
    )

    wrap = walk.distribution(walk.evolve_cycle(QubitState(1.0, 0.0, 0.0), 5, 1))
    wrap_gap = max(
        abs(wrap.total(4) - 1.0 / 9.0),
        abs(wrap.total(0) - 4.0 / 9.0),
        abs(wrap.total(1) - 4.0 / 9.0),
    )
    checks.append(_check("cycle wraparound after one step", wrap_gap < 1e-15, f"worst gap {wrap_gap:.2e}"))

    line = walk.evolve_line(figure_state, 9)
    ring = walk.evolve_cycle(figure_state, 21, 9)
    agreement = max(
        abs(walk.distribution(line).total(n) - walk.distribution(ring).total(n % 21))
        for n in range(-9, 10)
    )
    checks.append(
        _check("cycle matches line before wraparound", agreement < 1e-14, f"worst gap {agreement:.2e}")
    )
    return checks


def _suite_spectral() -> list[tuple[str, bool, str]]:
    checks = []
    grid = QuadratureGrid(1024)
    nodes = grid.nodes()
    identity_gap = 0.0
    ortho_gap = 0.0
    residual_gap = 0.0
    for k in nodes:
        point = spectral.dispersion(float(k))
        identity_gap = max(
            identity_gap, abs(point.cos_theta**2 + point.sin_theta**2 - 1.0)
        )
    sample = nodes[::8]
    for k in sample:
        system = spectral.eigensystem(float(k))
        vectors = np.stack([v.as_array() for v in system.vectors])
        gram = vectors.conj() @ vectors.T
        ortho_gap = max(ortho_gap, float(np.max(np.abs(gram - np.eye(3)))))
        op = spectral.fourier_operator(float(k))
        for phase, vec in zip(system.phases, vectors):
            residual = np.max(np.abs(op @ vec - np.exp(1j * phase) * vec))
            residual_gap = max(residual_gap, float(residual))
    checks.append(
        _check("dispersion identity on a 1024-node grid", identity_gap < 1e-14, f"worst {identity_gap:.2e}")
    )
    checks.append(_check("eigenvector orthonormality", ortho_gap < 1e-12, f"worst {ortho_gap:.2e}"))
    checks.append(_check("eigenvector residuals", residual_gap < 1e-12, f"worst {residual_gap:.2e}"))

    # Quadrature checks honor the TRIWALK_GRID override.
    quad_grid = QuadratureGrid(_grid_size())
    figure_state = QubitState(1j / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
    worst = 0.0
    for t in (1, 5, 20):
        state = walk.evolve_line(figure_state, t)
        for n in range(-5, 6):
            direct = state.amplitude(n).as_array()
            via_quad = spectral.wavefunction(n, t, figure_state, quad_grid).as_array()
            worst = max(worst, float(np.max(np.abs(direct - via_quad))))
    checks.append(
        _check("quadrature matches direct evolution", worst < 1e-6, f"worst gap {worst:.2e}")
    )

    j0 = spectral.j_kernel(0, 0, quad_grid)
    expected = 1.0 / (2.0 * math.sqrt(6.0))
    checks.append(
        _check("kernel normalization at t = 0", abs(j0 - expected) < 1e-12, f"{j0:.15f}")
    )

    worst_rec = 0.0
    for t in (0, 5, 20):
        state = walk.evolve_line(figure_state, t)
        for n in range(-2, 3):
            remainder = spectral.oscillatory_remainder(n, t, figure_state, quad_grid).as_array()
            localized = np.array(
                [stationary.limit_amplitude(n, l, figure_state) for l in (1, 2, 3)]
            )
            direct = state.amplitude(n).as_array()
            worst_rec = max(worst_rec, float(np.max(np.abs(remainder + localized - direct))))
    checks.append(
        _check("stationary plus remainder reconstructs the walk", worst_rec < 1e-6, f"worst gap {worst_rec:.2e}")
    )
    return checks


_SUITES = {
    "paper-constants": _suite_paper_constants,
    "evolution": _suite_evolution,
    "spectral": _suite_spectral,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        names = list(_SUITES)
    elif args.suite in _SUITES:
        names = [args.suite]
    else:
        known = ", ".join([*(_SUITES), "all"])
        raise UsageError(f"unknown suite {args.suite!r}; available: {known}")
    failures = 0
    for name in names:
        for check_name, passed, detail in _SUITES[name]():
            tag = "PASS" if passed else "FAIL"
            print(f"{tag} [{name}] {check_name}: {detail}")
            failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwalk",
        description="Simulate and verify the one-dimensional three-state quantum walk.",
    )
    sub = parser.add_subparsers(dest="command")

    evolve = sub.add_parser("evolve", help="direct evolution on the line or a cycle")
    evolve.add_argument("--qubit", required=True, help="alpha,beta,gamma (complex, e.g. 0.6,0,0.8i)")
    evolve.add_argument("--steps", type=int, required=True, help="number of steps")
    evolve.add_argument("--cycle", type=int, default=None, help="evolve on a cycle with this many sites")
    evolve.add_argument("--out", default=".", help="output directory")
    evolve.add_argument("--svg", default=None, help="write an SVG plot of P(0, t) here")
    evolve.add_argument("--heatmap", default=None, help="write a space-time SVG heatmap here")
    evolve.set_defaults(handler=_cmd_evolve)

    stationary_cmd = sub.add_parser("stationary", help="closed-form localized profile")
    stationary_cmd.add_argument("--qubit", required=True)
    stationary_cmd.add_argument("--window", type=int, default=20, help="emit sites with |n| <= window")
    stationary_cmd.add_argument("--out", default=".")
    stationary_cmd.add_argument("--svg", default=None, help="write a semi-log SVG profile here")
    stationary_cmd.set_defaults(handler=_cmd_stationary)

    timeavg_cmd = sub.add_parser("timeavg", help="time-averaged origin probability on a cycle")
    timeavg_cmd.add_argument("--qubit", required=True)
    timeavg_cmd.add_argument("--sites", type=int, required=True, help="odd cycle size N")
    timeavg_cmd.add_argument("--out", default=".")
    timeavg_cmd.set_defaults(handler=_cmd_timeavg)

    weaklimit_cmd = sub.add_parser("weaklimit", help="empirical vs limit CDF of the rescaled walk")
    weaklimit_cmd.add_argument("--steps", type=int, required=True, help="evolution time t (>= 100)")
    weaklimit_cmd.add_argument("--out", default=".")
    weaklimit_cmd.add_argument("--svg", default=None, help="write a CDF comparison SVG here")
    weaklimit_cmd.set_defaults(handler=_cmd_weaklimit)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True, help="paper-constants, evolution, spectral, or all")
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(raw_argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    args.raw_argv = raw_argv
    try:
        # Fail on a bad TRIWALK_GRID before any handler writes files.
        args.grid_size = _grid_size()
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
