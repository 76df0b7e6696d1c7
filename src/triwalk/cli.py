"""Command-line front end.

Subcommands run the simulators and closed-form evaluators, writing CSV
tables, an optional SVG plot, and a JSON run manifest with SHA-256 checksums
of every produced file. All numeric CSV fields use 17 significant digits, so
parsing them back reproduces the in-memory doubles exactly and identical
invocations produce identical bytes at a fixed BLAS thread count (verify's
quadrature gap moves with the thread count). Every output, ``manifest.json``
included, is one binary write of UTF-8, free of the platform's newline convention.

Exit codes: 0 success, 1 verification failure, 2 usage error (an output
path that cannot be written or that another output of the run also names
included), 3 invalid physical input (non-normalized state, even cycle size).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, _svg, spectral, stationary, timeavg, walk, weaklimit
from .spectral import DEFAULT_GRID_SIZE, quadrature_nodes
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


def _physical(build, *args):
    """``build(*args)``, its ValueError raised as InvalidInputError (exit 3)."""
    try:
        return build(*args)
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from None


def _parse_qubit(text: str) -> QubitState:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("a qubit is three comma-separated complex numbers")
    return _physical(QubitState, *(_parse_complex(p) for p in parts))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write(path: Path | str, text: str) -> tuple[Path | str, str]:
    """The one file writer: ``text`` as UTF-8 in one binary write; returns
    ``path`` and the SHA-256 hex digest of the bytes written."""
    data = text.encode()
    Path(path).write_bytes(data)
    return path, hashlib.sha256(data).hexdigest()


def _write_csv(path: Path, header: str, *columns) -> tuple[Path, str]:
    """Write ``columns`` under the comma-separated ``header`` through ``_write``."""
    columns = [np.asarray(c).tolist() for c in columns]
    # One %-format over the whole table, its values row after row, from the first
    # row's column types: "%d" % n is str(n) and "%.17g" % x is _fmt(x).
    row_fmt = ",".join("%d" if isinstance(c[0], int) else "%.17g" for c in columns)
    values = [None] * (len(columns) * len(columns[0]))
    for i, c in enumerate(columns):
        values[i :: len(columns)] = c
    return _write(path, "\n".join([header, *[row_fmt] * len(columns[0]), ""]) % tuple(values))


def _write_distribution(path: Path, dist: walk.Distribution) -> tuple[Path, str]:
    return _write_csv(path, "n,p_total,p_L,p_0,p_R", dist.sites(), dist.totals, *dist.probabilities.T)


def _output_dir(args: argparse.Namespace, *names: str) -> Path:
    """Make ``--out`` and return it, once no two outputs of the run name one file
    and each plot names a file in a directory that exists or that this makes.

    ``names`` are the files written in ``--out`` besides ``manifest.json``; the
    plots asked for by ``--svg`` and ``--heatmap`` are outputs too.
    """
    plots = [(f"--{o}", path) for o in ("svg", "heatmap") if (path := getattr(args, o, None)) is not None]
    files = [("--out", os.path.join(args.out, name)) for name in (*names, "manifest.json")] + plots
    owners: dict[str, str] = {}
    for option, path in files:
        real = os.path.realpath(path)
        if real in owners:
            raise UsageError(f"{owners[real]} and {option} both write {path}")
        owners[real] = option
    # mkdir below makes --out and its missing parents: a plot cannot be one of them, but can lie in one.
    out = os.path.realpath(args.out) + os.sep
    for option, path in plots:
        real, folder = os.path.realpath(path), os.path.realpath(os.path.dirname(path) or os.curdir)
        if os.path.basename(path) in ("", os.curdir, os.pardir) or os.path.isdir(path) or out.startswith(real + os.sep):
            raise UsageError(f"{option} names a directory: {path}")
        if not (os.path.isdir(folder) or out.startswith(folder + os.sep)):
            raise UsageError(f"{option} names a file in a missing directory: {path}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _finish(args: argparse.Namespace, written: list[tuple[Path | str, str] | None], **computed) -> list[str]:
    """Write ``manifest.json`` and return the names it lists its outputs by.

    ``parameters`` are the parsed options but ``--out``, plus the ``computed``
    values; each output, a ``_write`` (path, SHA-256) pair (a ``None`` is one not
    asked for), is keyed by its path relative to ``--out``.
    """
    outputs = {os.path.relpath(path, args.out): digest for path, digest in filter(None, written)}
    options = {k: v for k, v in vars(args).items() if k not in ("command", "handler", "out", "raw_argv")}
    manifest = {
        "command": args.command,
        "argv": args.raw_argv,
        # grid_size stays because perfbench/golden.json pins the manifest bytes.
        "parameters": {**options, **computed, "grid_size": DEFAULT_GRID_SIZE},
        "version": __version__,
        "outputs": outputs,
    }
    _write(Path(args.out) / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return list(outputs)


#: The localizing state of the paper's probability-trace figure.
_FIGURE_STATE = QubitState(1j / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))

#: Limit of P(0, t) for the figure state: 10 - 4 sqrt 6.
_ORIGIN_LIMIT = 10.0 - 4.0 * math.sqrt(6.0)

#: The zero-localization state: it has no localized part, so P(0, t) decays.
_ZERO_STATE = QubitState(1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0))

#: Long-run average of P(0, t) for every state without stayer amplitude.
_NO_STAYER_LEVEL = 2.0 * (5.0 - 2.0 * math.sqrt(6.0))


#: Longest ``evolve --steps``. Time grows like the site-steps, about t^2 on
#: the line; a cycle takes as many (N t) and at most the line's widest window
#: of sites. At the caps ``--svg --heatmap`` takes 1.5-2.6 s on the line and
#: 0.9-1.5 s on a cycle, and 41-45 MiB, on 2 CPUs.
_MAX_EVOLVE_STEPS = 5000
_MAX_EVOLVE_CYCLE = 2 * _MAX_EVOLVE_STEPS + 1


def _cmd_evolve(args: argparse.Namespace) -> int:
    q = _parse_qubit(args.qubit)
    if not 0 <= args.steps <= _MAX_EVOLVE_STEPS:
        raise UsageError(f"--steps must be from 0 to {_MAX_EVOLVE_STEPS}")
    if args.cycle is not None:
        _physical(walk._cycle_size, args.cycle)
        if args.cycle > _MAX_EVOLVE_CYCLE or args.cycle * args.steps > _MAX_EVOLVE_STEPS**2:
            raise UsageError(f"--cycle must be at most {_MAX_EVOLVE_CYCLE} and {_MAX_EVOLVE_STEPS**2} / --steps")
    out_dir = _output_dir(args, "distribution.csv", "trace.csv")

    if args.cycle is None:
        state: walk.LineState | walk.CycleState = walk.evolve_line(q, 0)
        stepper = walk.step_line
        first_site, width = -args.steps, 2 * args.steps + 1
    else:
        state = walk.evolve_cycle(q, args.cycle, 0)
        stepper = walk.step_cycle
        first_site, width = 0, args.cycle

    # Row t of the heat grid holds the totals after t steps over the final window.
    heat, add_heat_row = _svg.heat_blocks(args.steps + 1, width) if args.heatmap else (None, None)
    trace = []
    for t in range(args.steps + 1):
        if t:
            state = stepper(state)
        dist = walk.distribution(state)
        trace.append(dist.total(0))
        if heat is not None:
            add_heat_row(t, dist.first_site - first_site, dist.totals)

    final = walk.distribution(state)
    names = _finish(args, [
        _write_distribution(out_dir / "distribution.csv", final),
        _write_csv(out_dir / "trace.csv", "t,p0", range(len(trace)), trace),
        args.svg and _write(args.svg, _svg.line_chart(
            [(np.arange(len(trace)), np.array(trace), "P(0, t)")], title="Probability at the origin",
            x_label="t", y_label="P(0, t)", hline=_NO_STAYER_LEVEL,
        )),
        args.heatmap and _write(args.heatmap, _svg.heatmap(
            heat, extent=(args.steps + 1, width), x0=first_site,
            title="Space-time probability density", x_label="n", y_label="t",
        )),
    ])
    print(f"final P(0, {args.steps}) = {_fmt(trace[-1])}")
    print(f"wrote {', '.join(names)} and manifest.json in {out_dir}")
    return EXIT_OK


#: Widest ``stationary --window``. The profile is 0 beyond ``stationary._CORE_HALF_WIDTH``, but the
#: CSV writes every row: at 200000 the command with --svg takes 0.37-0.59 s and peaks at 162 MiB on 2 CPUs.
_MAX_STATIONARY_WINDOW = 200000


def _cmd_stationary(args: argparse.Namespace) -> int:
    q = _parse_qubit(args.qubit)
    if args.window < 1:
        raise UsageError("--window must be at least 1")
    if args.window > _MAX_STATIONARY_WINDOW:
        raise UsageError(f"--window must be at most {_MAX_STATIONARY_WINDOW}")
    out_dir = _output_dir(args, "stationary.csv")

    profile = stationary.stationary_profile(q, args.window)
    mass = stationary.total_mass(q)
    _finish(args, [
        _write_distribution(out_dir / "stationary.csv", profile),
        args.svg and _write(args.svg, _svg.line_chart(
            [(np.array(profile.sites()), profile.totals, "limit P(n)")],
            title="Stationary profile (log scale)", x_label="n", y_label="P(n)", log_y=True,
        )),
    ], total_mass=mass)
    print(f"P(0) = {_fmt(profile.total(0))}")
    print(f"total localized mass = {_fmt(mass)}")
    return EXIT_OK


#: Largest cycle ``timeavg`` accepts. Time and memory grow linearly in N; at
#: N = 20001 the command takes 0.21-0.40 s and peaks at 81 MiB on 2 CPUs.
_MAX_TIMEAVG_SITES = 20001


def _cmd_timeavg(args: argparse.Namespace) -> int:
    q = _parse_qubit(args.qubit)
    _physical(walk._cycle_size, args.sites)
    if args.sites > _MAX_TIMEAVG_SITES:
        raise UsageError(f"--sites must be at most {_MAX_TIMEAVG_SITES}")
    out_dir = _output_dir(args, "timeavg.csv")

    cycle_value = timeavg.cycle_time_average(args.sites, q, site=0)
    limit_value = timeavg.infinite_time_average_total(q)
    _finish(args, [_write_csv(
        out_dir / "timeavg.csv", "n_sites,site,cycle_average,limit_average",
        [args.sites], [0], [cycle_value], [limit_value],
    )])
    print(f"cycle average at origin (N = {args.sites}): {_fmt(cycle_value)}")
    print(f"infinite-cycle limit at origin:            {_fmt(limit_value)}")
    return EXIT_OK


#: Longest ``weaklimit --steps``. Time grows like t^2; at t = 12000 the
#: command takes 0.8-1.0 s and peaks at 41 MiB on 2 CPUs. The stepping takes
#: most of it: each block's edge scan reads 16 columns per end at any t.
_MAX_WEAKLIMIT_STEPS = 12000


def _cmd_weaklimit(args: argparse.Namespace) -> int:
    if args.steps < 100:
        raise UsageError("--steps must be at least 100 for a meaningful comparison")
    if args.steps > _MAX_WEAKLIMIT_STEPS:
        raise UsageError(f"--steps must be at most {_MAX_WEAKLIMIT_STEPS}")
    out_dir = _output_dir(args, "weaklimit.csv")

    empirical = weaklimit.empirical_rescaled(args.steps)
    distance = weaklimit.cdf_distance(empirical)
    xs = empirical.positions
    cumulative = np.cumsum(empirical.masses)
    limit = weaklimit.limit_cdf(xs)
    _finish(args, [
        _write_csv(out_dir / "weaklimit.csv", "x,cdf_empirical,cdf_limit", xs, cumulative, limit),
        args.svg and _write(args.svg, _svg.line_chart(
            [(xs, cumulative, "empirical CDF"), (xs, limit, "limit CDF")],
            title=f"Rescaled position CDF at t = {args.steps}", x_label="x = n / t", y_label="CDF",
        )),
    ], kolmogorov_distance=distance)
    print(f"Kolmogorov distance at t = {args.steps}: {_fmt(distance)}")
    return EXIT_OK


# Verification checks: one table row (suite, name, bound, measure) each. A
# measure returns (value, detail) and the check passes when value < bound.
# Every measure computes the routes it compares (direct evolution, momentum
# quadrature, closed forms) on its own; no route is fed another's output. The
# checks that read the figure or the zero-localization state evolved directly
# share one walk of both per time, _direct_lines.


def _worst(gap: float, label: str = "worst gap") -> tuple[float, str]:
    return gap, f"{label} {gap:.2e}"


def _versus(value: float, expected: float) -> tuple[float, str]:
    return abs(value - expected), f"{value:.13f} vs {expected:.13f}"


def _shown(value: float, expected: float, digits: int) -> tuple[float, str]:
    return abs(value - expected), f"{value:.{digits}f}"


@functools.lru_cache(maxsize=8)
def _direct_lines(t: int) -> list[walk.LineState]:
    """The figure state and the zero-localization state evolved directly on the
    line, in one walk (several checks share t)."""
    return walk._line_states((_FIGURE_STATE, _ZERO_STATE), t)


@functools.cache
def _eigen_gaps() -> tuple[float, float]:
    """Worst orthonormality and eigen-residual gaps on every 8th node of 1024."""
    nodes = quadrature_nodes(1024)[::8]
    phases, vectors = spectral.eigensystem(nodes)
    operators = np.array([spectral.fourier_operator(k) for k in nodes.tolist()])
    gram = vectors.conj() @ vectors.swapaxes(-1, -2)
    # One stacked (3, 3) @ (3, 1) product per eigenvector rounds as op @ vec.
    residual = (operators[:, None] @ vectors[..., None])[..., 0] - np.exp(1j * phases)[..., None] * vectors
    return float(np.max(np.abs(gram - np.eye(3)))), float(np.max(np.abs(residual)))


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
        abs(timeavg.infinite_time_average_component(l, q) - abs(z) ** 2)
        for q in sample
        for l, z in enumerate(stationary._limit_amplitudes(0, q), start=1)
    )
    return _worst(max(gaps))


def _single_step() -> tuple[float, str]:
    one_step = walk.distribution(walk.evolve_line(QubitState(1.0, 0.0, 0.0), 1))
    oracle = {-1: 1.0 / 9.0, 0: 4.0 / 9.0, 1: 4.0 / 9.0}
    return _worst(max(abs(one_step.total(n) - p) for n, p in oracle.items()))


def _conservation() -> tuple[float, str]:
    total = float(np.sum(np.abs(_direct_lines(1000)[0].amplitudes) ** 2))
    return abs(total - 1.0), f"total {total:.15f}"


def _origin_near_limit() -> tuple[float, str]:
    p0 = walk.distribution(_direct_lines(1000)[0]).total(0)
    return abs(p0 - _ORIGIN_LIMIT), f"P(0, 1000) = {p0:.6f}, limit {_ORIGIN_LIMIT:.6f}"


def _zero_localization_decay() -> tuple[float, str]:
    p0 = walk.distribution(_direct_lines(1000)[1]).total(0)
    return p0, f"P(0, 1000) = {p0:.2e}"


def _cycle_wraparound() -> tuple[float, str]:
    wrap = walk.distribution(walk.evolve_cycle(QubitState(1.0, 0.0, 0.0), 5, 1))
    oracle = {4: 1.0 / 9.0, 0: 4.0 / 9.0, 1: 4.0 / 9.0}
    return _worst(max(abs(wrap.total(n) - p) for n, p in oracle.items()))


def _cycle_vs_line() -> tuple[float, str]:
    line = walk.distribution(_direct_lines(9)[0])
    ring = walk.distribution(walk.evolve_cycle(_FIGURE_STATE, 21, 9))
    return _worst(max(abs(line.total(n) - ring.total(n % 21)) for n in range(-9, 10)))


def _dispersion_identity() -> tuple[float, str]:
    c, s, _ = spectral.dispersion(quadrature_nodes(1024))
    return _worst(float(np.max(np.abs(c * c + s * s - 1.0))), "worst")


def _gap_to_direct(windows: np.ndarray, times: tuple[int, ...], m: int) -> tuple[float, str]:
    """Worst gap of windows over sites -m..m, one per time, to direct evolution zero-padded beyond |n| = t."""
    direct = (np.pad(_direct_lines(t)[0].amplitudes, ((m, m), (0, 0)))[t : t + 2 * m + 1] for t in times)
    return _worst(float(max(np.max(np.abs(w - d)) for w, d in zip(windows, direct))))


def _quadrature_vs_direct() -> tuple[float, str]:
    times = (1, 5, 20)
    return _gap_to_direct(spectral.wavefunction_window(5, times, _FIGURE_STATE), times, 5)


def _reconstruction() -> tuple[float, str]:
    times = (0, 5, 20)
    localized = np.array(stationary._limit_amplitudes(np.arange(-2, 3), _FIGURE_STATE)).T
    return _gap_to_direct(spectral.remainder_window(2, times, _FIGURE_STATE) + localized, times, 2)


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
    evolve.add_argument("--steps", type=int, required=True, help=f"number of steps, at most {_MAX_EVOLVE_STEPS}")
    evolve.add_argument(
        "--cycle", type=int, default=None,
        help=f"evolve on a cycle of this many sites, at most {_MAX_EVOLVE_CYCLE} and {_MAX_EVOLVE_STEPS**2} / steps",
    )
    evolve.add_argument("--out", default=".", help="output directory")
    evolve.add_argument("--svg", default=None, help="write an SVG plot of P(0, t) here")
    evolve.add_argument("--heatmap", default=None, help="write a space-time SVG heatmap here")
    evolve.set_defaults(handler=_cmd_evolve)

    stationary_cmd = sub.add_parser("stationary", help="closed-form localized profile")
    stationary_cmd.add_argument("--qubit", required=True)
    stationary_cmd.add_argument(
        "--window", type=int, default=20,
        help=f"emit sites with |n| <= window, at most {_MAX_STATIONARY_WINDOW}",
    )
    stationary_cmd.add_argument("--out", default=".")
    stationary_cmd.add_argument("--svg", default=None, help="write a semi-log SVG profile here")
    stationary_cmd.set_defaults(handler=_cmd_stationary)

    timeavg_cmd = sub.add_parser("timeavg", help="time-averaged origin probability on a cycle")
    timeavg_cmd.add_argument("--qubit", required=True)
    timeavg_cmd.add_argument(
        "--sites", type=int, required=True, help=f"odd cycle size N, at most {_MAX_TIMEAVG_SITES}"
    )
    timeavg_cmd.add_argument("--out", default=".")
    timeavg_cmd.set_defaults(handler=_cmd_timeavg)

    weaklimit_cmd = sub.add_parser("weaklimit", help="empirical vs limit CDF of the rescaled walk")
    weaklimit_cmd.add_argument(
        "--steps", type=int, required=True,
        help=f"evolution time t, from 100 to {_MAX_WEAKLIMIT_STEPS}",
    )
    weaklimit_cmd.add_argument("--out", default=".")
    weaklimit_cmd.add_argument("--svg", default=None, help="write a CDF comparison SVG here")
    weaklimit_cmd.set_defaults(handler=_cmd_weaklimit)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True, choices=(*_SUITES, "all"), help="suite of checks to run")
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
    # argparse in Python 3.11 reads an option's "--" value as [], skipping its type.
    empty = [f"--{name}" for name, value in vars(args).items() if value == []]
    args.raw_argv = raw_argv
    try:
        if empty:
            raise UsageError(f"argument {empty[0]}: expected one argument")
        return args.handler(args)
    except (UsageError, OSError, MemoryError) as exc:
        # The only I/O is writing outputs, so an OSError is an unwritable output
        # path (--out naming a file, --svg in a read-only directory); a MemoryError
        # is an input too large for the memory allowed, such as timeavg --sites
        # 20001 under a 120 MB address-space limit (ulimit -v 120000).
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
