"""Hypothesis settings and acceptance reporting; the shared states live in ``states``."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

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


def pytest_terminal_summary(terminalreporter):
    outcomes: dict[str, bool] = {}
    for status, passed in (("passed", True), ("failed", False)):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "") != "call":
                continue
            if report.nodeid in _ACCEPTANCE_MARKS:
                outcomes[report.nodeid] = passed
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(outcomes, key=lambda n: _ACCEPTANCE_MARKS[n][0]):
        order, title = _ACCEPTANCE_MARKS[nodeid]
        verdict = "PASS" if outcomes[nodeid] else "FAIL"
        line = f"criterion {order:g}: {verdict} - {title}"
        detail = _ACCEPTANCE_DETAILS.get(nodeid)
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
