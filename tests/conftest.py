"""Hypothesis settings and acceptance reporting; the shared states live in ``states``."""

from __future__ import annotations

import os
import platform

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def pytest_report_header(config):
    # The bitwise tests compare NumPy's cos, sin, sqrt and arctan2 with libm's
    # and BLAS products with hand-ordered sums. NumPy's SIMD loops and the BLAS
    # kernel may round otherwise on another CPU, so the log names what ran;
    # under -q, which hides the header, the summary repeats it. A BLAS product's
    # last bits also move with the threads that split it, which OpenBLAS reads
    # from OPENBLAS_NUM_THREADS and otherwise takes one per CPU. The Python
    # version decides how the builtin sum() adds floats (compensated from 3.12).
    info = np.show_config(mode="dicts")
    blas, simd = info["Build Dependencies"]["blas"], info["SIMD Extensions"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    if threads is None:
        threads = f"OPENBLAS_NUM_THREADS unset, {os.cpu_count()} CPUs"
    else:
        threads = f"OPENBLAS_NUM_THREADS={threads}"
    return [
        f"Python {platform.python_version()}, numpy {np.__version__}, "
        f"BLAS {blas['name']} {blas.get('version', '')} ({threads})",
        f"numpy SIMD: baseline {' '.join(simd['baseline'])}; dispatches to {' '.join(simd['found']) or 'none'}",
    ]


# Acceptance reporting: tests in test_acceptance.py carry an `acceptance`
# marker with (order, title), declared in pyproject.toml; after the run a
# one-line verdict per criterion is printed so the pass/fail state of each is
# visible at a glance.

_ACCEPTANCE_MARKS: dict[str, tuple[float, str]] = {}
_ACCEPTANCE_DETAILS: dict[str, str] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            _ACCEPTANCE_MARKS[item.nodeid] = (marker.args[0], marker.args[1])


@pytest.fixture
def criterion_detail(request):
    """Lets an acceptance test attach measured numbers to its summary line."""

    def record(text: str) -> None:
        _ACCEPTANCE_DETAILS[request.node.nodeid] = text

    return record


# Route errors: the tests in test_exact_walk.py that hold a route against the
# exact integer walk record each error they measure, and after the criteria
# the summary prints each route's worst error, in eps and in eps per step at
# its t, so a change that moves one route's rounding names that route.

_ROUTE_ERRORS: dict[str, list[tuple[int, float]]] = {}


@pytest.fixture
def route_error():
    """Lets a test against the exact walk record a route's error after t steps."""

    def record(route: str, t: int, error: float) -> None:
        _ROUTE_ERRORS.setdefault(route, []).append((t, float(error)))

    return record


def _write_route_errors(terminalreporter) -> None:
    if not _ROUTE_ERRORS:
        return
    eps = float(np.finfo(float).eps)
    terminalreporter.write_sep("=", "route errors against the exact walk")
    for route, errors in _ROUTE_ERRORS.items():
        t, worst = max(errors, key=lambda pair: pair[1])
        terminalreporter.write_line(
            f"{route}: worst {worst / eps:.2f} eps at t = {t}, {worst / eps / t:.3f} eps per step"
        )


def pytest_terminal_summary(terminalreporter, config):
    if terminalreporter.verbosity < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)
    outcomes: dict[str, bool] = {}
    for status, passed in (("passed", True), ("failed", False)):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "") != "call":
                continue
            if report.nodeid in _ACCEPTANCE_MARKS:
                outcomes[report.nodeid] = passed
    if outcomes:
        terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(outcomes, key=lambda n: _ACCEPTANCE_MARKS[n][0]):
        order, title = _ACCEPTANCE_MARKS[nodeid]
        verdict = "PASS" if outcomes[nodeid] else "FAIL"
        line = f"criterion {order:g}: {verdict} - {title}"
        detail = _ACCEPTANCE_DETAILS.get(nodeid)
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
    _write_route_errors(terminalreporter)
