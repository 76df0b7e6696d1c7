"""Command-line front end.

Subcommands run the simulators and closed-form evaluators, writing CSV
tables, an optional SVG plot, and a JSON run manifest with SHA-256 checksums
of every produced file. All numeric CSV fields use 17 significant digits, so
parsing them back reproduces the in-memory doubles exactly and identical
invocations produce identical bytes.

Exit codes: 0 success, 1 verification failure, 2 usage error (an output
path that cannot be written included), 3 invalid physical input
(non-normalized state, even cycle size).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, _svg, spectral, stationary, timeavg, walk, weaklimit
from .spectral import DEFAULT_GRID_SIZE, QuadratureGrid
from .walk import QubitState

__all__ = ["main"]

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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    # One %-format per table from the first row's column types: "%d" % n is
    # str(n) and "%.17g" % x is _fmt(x).
    row_fmt = ",".join("%d" if isinstance(v, int) else "%.17g" for v in rows[0])
    lines = [",".join(header), *(row_fmt % tuple(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _finish(out_dir: Path, args: argparse.Namespace, files: list[Path], **parameters) -> None:
    """Write ``manifest.json``: command, argv, parameters, version, output checksums."""
    manifest = {
        "command": args.command,
        "argv": args.raw_argv,
        # grid_size stays because perfbench/golden.json pins the manifest bytes.
        "parameters": {**parameters, "grid_size": DEFAULT_GRID_SIZE},
        "version": __version__,
        "outputs": {f.name: _sha256(f) for f in files},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(text, encoding="utf-8")


def _distribution_rows(dist: walk.Distribution) -> list[list]:
    rows = zip(dist.sites(), dist.totals.tolist(), dist.probabilities.tolist())
    return [[n, total, *parts] for n, total, parts in rows]


_DISTRIBUTION_HEADER = ["n", "p_total", "p_L", "p_0", "p_R"]

#: The localizing state of the paper's probability-trace figure.
_FIGURE_STATE = QubitState(1j / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))

#: Limit of P(0, t) for the figure state: 10 - 4 sqrt 6.
_ORIGIN_LIMIT = 10.0 - 4.0 * math.sqrt(6.0)

#: Long-run average of P(0, t) for every state without stayer amplitude.
_NO_STAYER_LEVEL = 2.0 * (5.0 - 2.0 * math.sqrt(6.0))


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
        first_site, width = -args.steps, 2 * args.steps + 1
    else:
        state = walk.initial_cycle_state(q, args.cycle)
        stepper = walk.step_cycle
        first_site, width = 0, args.cycle

    # Row t of the heat grid holds the totals after t steps over the final window.
    heat = np.zeros((args.steps + 1, width)) if args.heatmap else None
    trace = []
    for t in range(args.steps + 1):
        if t:
            state = stepper(state)
        dist = walk.distribution(state)
        trace.append(dist.total(0))
        if heat is not None:
            start = dist.first_site - first_site
            heat[t, start : start + len(dist)] = dist.totals

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
            hline=_NO_STAYER_LEVEL,
        )
        files.append(svg_path)
    if args.heatmap:
        heat_path = Path(args.heatmap)
        _svg.heatmap(
            heat_path,
            heat,
            x0=first_site,
            title="Space-time probability density",
            x_label="n",
            y_label="t",
        )
        files.append(heat_path)

    _finish(
        out_dir, args, files, qubit=args.qubit, steps=args.steps, cycle=args.cycle,
        svg=args.svg, heatmap=args.heatmap,
    )
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

    _finish(
        out_dir, args, files, qubit=args.qubit, window=args.window, svg=args.svg,
        total_mass=mass,
    )
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
    _finish(out_dir, args, [csv_path], qubit=args.qubit, sites=args.sites)
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

    _finish(
        out_dir, args, files, steps=args.steps, svg=args.svg, kolmogorov_distance=distance
    )
    print(f"Kolmogorov distance at t = {args.steps}: {_fmt(distance)}")
    return EXIT_OK


# Verification checks: one table row (suite, name, bound, measure) each. A
# measure returns (value, detail) and the check passes when value < bound.
# Every measure computes the routes it compares (direct evolution, momentum
# quadrature, closed forms) on its own; no route is fed another's output.


def _worst(gap: float, label: str = "worst gap") -> tuple[float, str]:
    return gap, f"{label} {gap:.2e}"


def _versus(value: float, expected: float) -> tuple[float, str]:
    return abs(value - expected), f"{value:.13f} vs {expected:.13f}"


def _shown(value: float, expected: float, digits: int) -> tuple[float, str]:
    return abs(value - expected), f"{value:.{digits}f}"


@functools.lru_cache(maxsize=8)
def _figure_line(t: int) -> walk.LineState:
    """The figure state evolved directly on the line (several checks share t)."""
    return walk.evolve_line(_FIGURE_STATE, t)


@functools.cache
def _eigen_gaps() -> tuple[float, float]:
    """Worst orthonormality and eigen-residual gaps on every 8th node of 1024."""
    ortho_gap = residual_gap = 0.0
    for k in QuadratureGrid(1024).nodes()[::8].tolist():
        phases, vectors = spectral.eigensystem(k)
        gram = vectors.conj() @ vectors.T
        ortho_gap = max(ortho_gap, float(np.max(np.abs(gram - np.eye(3)))))
        op = spectral.fourier_operator(k)
        for phase, vec in zip(phases, vectors):
            residual = np.max(np.abs(op @ vec - np.exp(1j * phase) * vec))
            residual_gap = max(residual_gap, float(residual))
    return ortho_gap, residual_gap


def _coin_unitarity() -> tuple[float, str]:
    coin = walk.coin_matrix()
    return _worst(float(np.max(np.abs(coin @ coin.conj().T - np.eye(3)))), "residual")


def _total_masses() -> tuple[float, str]:
    third = 1.0 / math.sqrt(3.0)
    cases = [
        (_FIGURE_STATE, 1.0 / math.sqrt(6.0)),
        (QubitState(third, third, third), 3.0 - math.sqrt(6.0)),
        (QubitState(third, -third, third), (3.0 - math.sqrt(6.0)) / 9.0),
    ]
    return _worst(max(abs(stationary.total_mass(q) - want) for q, want in cases))


def _ratio_root() -> tuple[float, str]:
    c = stationary.GEOMETRIC_RATIO
    return _worst(abs(c * c + 10.0 * c + 1.0), "residual")


def _time_average_vs_stationary() -> tuple[float, str]:
    sample = [
        _FIGURE_STATE,
        QubitState(1.0, 0.0, 0.0),
        QubitState(0.0, 1.0, 0.0),
        QubitState(0.5, 0.5j, math.sqrt(0.5)),
    ]
    gaps = (
        abs(timeavg.infinite_time_average_component(l, q) - stationary.limit_component(0, l, q))
        for q in sample
        for l in (1, 2, 3)
    )
    return _worst(max(gaps))


def _single_step() -> tuple[float, str]:
    one_step = walk.distribution(walk.evolve_line(QubitState(1.0, 0.0, 0.0), 1))
    oracle = {-1: 1.0 / 9.0, 0: 4.0 / 9.0, 1: 4.0 / 9.0}
    return _worst(max(abs(one_step.total(n) - p) for n, p in oracle.items()))


def _conservation() -> tuple[float, str]:
    total = float(np.sum(np.abs(_figure_line(1000).amplitudes) ** 2))
    return abs(total - 1.0), f"total {total:.15f}"


def _origin_near_limit() -> tuple[float, str]:
    p0 = walk.distribution(_figure_line(1000)).total(0)
    return abs(p0 - _ORIGIN_LIMIT), f"P(0, 1000) = {p0:.6f}, limit {_ORIGIN_LIMIT:.6f}"


def _zero_localization_decay() -> tuple[float, str]:
    s6 = math.sqrt(6.0)
    zero_state = QubitState(1.0 / s6, -2.0 / s6, 1.0 / s6)
    p0 = walk.distribution(walk.evolve_line(zero_state, 1000)).total(0)
    return p0, f"P(0, 1000) = {p0:.2e}"


def _cycle_wraparound() -> tuple[float, str]:
    wrap = walk.distribution(walk.evolve_cycle(QubitState(1.0, 0.0, 0.0), 5, 1))
    oracle = {4: 1.0 / 9.0, 0: 4.0 / 9.0, 1: 4.0 / 9.0}
    return _worst(max(abs(wrap.total(n) - p) for n, p in oracle.items()))


def _cycle_vs_line() -> tuple[float, str]:
    line = walk.distribution(_figure_line(9))
    ring = walk.distribution(walk.evolve_cycle(_FIGURE_STATE, 21, 9))
    return _worst(max(abs(line.total(n) - ring.total(n % 21)) for n in range(-9, 10)))


def _dispersion_identity() -> tuple[float, str]:
    points = map(spectral.dispersion, QuadratureGrid(1024).nodes().tolist())
    return _worst(max(abs(c * c + s * s - 1.0) for c, s, _ in points), "worst")


def _quadrature_vs_direct() -> tuple[float, str]:
    worst = 0.0
    for t in (1, 5, 20):
        for n in range(-5, 6):
            direct = _figure_line(t).amplitude(n).as_array()
            via_quad = spectral.wavefunction(n, t, _FIGURE_STATE).as_array()
            worst = max(worst, float(np.max(np.abs(direct - via_quad))))
    return _worst(worst)


def _reconstruction() -> tuple[float, str]:
    worst = 0.0
    for t in (0, 5, 20):
        for n in range(-2, 3):
            remainder = spectral.oscillatory_remainder(n, t, _FIGURE_STATE).as_array()
            localized = np.array(
                [stationary.limit_amplitude(n, l, _FIGURE_STATE) for l in (1, 2, 3)]
            )
            direct = _figure_line(t).amplitude(n).as_array()
            worst = max(worst, float(np.max(np.abs(remainder + localized - direct))))
    return _worst(worst)


_CHECKS = (
    ("paper-constants", "coin unitarity", 1e-15, _coin_unitarity),
    ("paper-constants", "stationary origin value", 1e-12,
     lambda: _versus(stationary.limit_probability(0, _FIGURE_STATE), _ORIGIN_LIMIT)),
    ("paper-constants", "localized total masses", 1e-12, _total_masses),
    ("paper-constants", "decay ratio root identity", 1e-14, _ratio_root),
    ("paper-constants", "time-average level without stayer amplitude", 1e-12,
     lambda: _versus(timeavg.infinite_time_average_total(_FIGURE_STATE), _NO_STAYER_LEVEL)),
    ("paper-constants", "time average equals stationary at origin", 1e-12,
     _time_average_vs_stationary),
    ("paper-constants", "limit density at 0", 1e-12,
     lambda: _shown(weaklimit.density(0.0), math.sqrt(8.0) / (3.0 * math.pi), 10)),
    ("paper-constants", "localization mass 1/3", 1e-12,
     lambda: _shown(weaklimit.localization_mass(), 1.0 / 3.0, 15)),
    ("paper-constants", "continuous mass 2/3", 1e-6,
     lambda: _shown(weaklimit.continuous_mass(), 2.0 / 3.0, 10)),
    ("evolution", "single step from a pure left mover", 1e-15, _single_step),
    ("evolution", "probability conservation at t = 1000", 1e-12, _conservation),
    ("evolution", "origin probability near the localized limit", 0.01, _origin_near_limit),
    ("evolution", "zero-localization state decays", 0.01, _zero_localization_decay),
    ("evolution", "cycle wraparound after one step", 1e-15, _cycle_wraparound),
    ("evolution", "cycle matches line before wraparound", 1e-14, _cycle_vs_line),
    ("spectral", "dispersion identity on a 1024-node grid", 1e-14, _dispersion_identity),
    ("spectral", "eigenvector orthonormality", 1e-12, lambda: _worst(_eigen_gaps()[0], "worst")),
    ("spectral", "eigenvector residuals", 1e-12, lambda: _worst(_eigen_gaps()[1], "worst")),
    ("spectral", "quadrature matches direct evolution", 1e-6, _quadrature_vs_direct),
    ("spectral", "kernel normalization at t = 0", 1e-12,
     lambda: _shown(spectral.j_kernel(0, 0), 1.0 / (2.0 * math.sqrt(6.0)), 15)),
    ("spectral", "stationary plus remainder reconstructs the walk", 1e-6, _reconstruction),
)

_SUITES = tuple(dict.fromkeys(suite for suite, *_ in _CHECKS))


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in (*_SUITES, "all"):
        known = ", ".join([*_SUITES, "all"])
        raise UsageError(f"unknown suite {args.suite!r}; available: {known}")
    failures = 0
    for suite, name, bound, measure in _CHECKS:
        if args.suite in ("all", suite):
            value, detail = measure()
            passed = value < bound
            print(f"{'PASS' if passed else 'FAIL'} [{suite}] {name}: {detail}")
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
    verify.add_argument("--suite", required=True, help=", ".join(_SUITES) + ", or all")
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
        return args.handler(args)
    except (UsageError, OSError) as exc:
        # The only I/O is writing outputs, so an OSError is an unwritable
        # output path, such as --out naming a file or --svg in a missing directory.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
