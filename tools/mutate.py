"""Run the mutation registry and print a kill table.

    python tools/mutate.py

Each mutation is applied to its own temporary copy of ``src/``; only the
tests the registry lists for it run, with ``PYTHONPATH`` set to that copy.
The unmutated copy runs every listed test first, so that a kill means the
mutation, not a test that already fails or is not found. The table has one row per
mutation and test: killed or survived, and the time of that mutation's run.
The exit status is 1 if any outcome differs from the registry's expectation.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from mutations import MUTATIONS  # noqa: E402


def _passed_tests(src: Path, tests: list[str]) -> set[str]:
    """Run ``tests`` against the package in ``src``; return the ids that passed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    return {line.removeprefix("PASSED ") for line in run.stdout.splitlines() if line.startswith("PASSED ")}


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        clean = scratch / "clean" / "src"
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        listed = sorted({t for m in MUTATIONS for t in m.tests})
        broken = set(listed) - _passed_tests(clean, listed)
        if broken:
            print("listed tests that fail without a mutation:", *sorted(broken), sep="\n  ", file=sys.stderr)
            return 1
        unexpected = 0
        print(f"{'mutation':<32} {'outcome':<9} {'time':>6}  test")
        for m in MUTATIONS:
            copy = scratch / m.id / "src"
            shutil.copytree(clean, copy)
            target = copy / Path(m.file).relative_to("src")
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"{m.id}: the old text does not occur exactly once in {m.file}", file=sys.stderr)
                return 1
            target.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            passed = _passed_tests(copy, list(m.tests))
            seconds = time.perf_counter() - start
            for test in m.tests:
                killed = test not in passed
                expected = m.survives is None
                mark = "" if killed == expected else "  UNEXPECTED"
                unexpected += killed != expected
                outcome = "killed" if killed else "survived"
                print(f"{m.id:<32} {outcome:<9} {seconds:>5.1f}s  {test}{mark}")
            if m.survives is not None:
                print(f"{'':<32} expected survivor: {m.survives}")
    print(f"{len(MUTATIONS)} mutations, {unexpected} unexpected outcomes")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
