"""The mutation registry in ``tools/mutations.py`` still fits the code and the suite.

``tools/mutate.py`` runs the mutations; tier-1 only checks that each one can
be applied and that each test it names exists.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutations", ROOT / "tools" / "mutations.py")
mutations = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutations)
MUTATIONS = mutations.MUTATIONS


def test_each_mutation_replaces_one_text_that_occurs_once():
    assert len({m.id for m in MUTATIONS}) == len(MUTATIONS)
    for m in MUTATIONS:
        assert m.old != m.new and m.tests and m.change, m.id
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.id


def test_each_listed_test_is_collected(request):
    listed = sorted({test for m in MUTATIONS for test in m.tests})
    # A full run has collected them already; a partial one collects them anew.
    if set(listed) <= {item.nodeid for item in request.session.items}:
        return
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *listed],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert set(listed) <= set(run.stdout.splitlines())
