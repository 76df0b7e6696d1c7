"""The mutation registry: faults made by hand in ``src/`` and the tests that catch them.

Each ``Mutation`` replaces one exact text of one file, which must occur there
exactly once, with a faulty one. ``tests`` are pytest node ids, as the suite
prints them from the repository root: each is expected to fail under the
mutation, unless ``survives`` gives the reason they all pass. ``change`` is
the subject of the commit that brought the mutated code or its guarding
tests. ``tools/mutate.py`` runs the registry; ``tests/test_mutations.py``
checks it, so a change that moves mutated code must update it here.

A mutation belongs here only if its outcome does not depend on the heap:
``np.empty`` for the stationary table's ``np.zeros`` is caught only when the
allocator hands back dirty memory, so it is left out.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutation(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    change: str
    survives: str | None = None


_CORE = "Evaluate the stationary profile on its derived core"
_TUPLES = "Return timeavg's blocks and groups as plain tuples"

_STATIONARY = "src/triwalk/stationary.py"
_TIMEAVG = "src/triwalk/timeavg.py"
_CLI = "src/triwalk/cli.py"

_PROFILE = "tests/test_stationary.py::TestProfile::"
_BLOCKS = "tests/test_timeavg.py::TestMomentumBlocks::"
_PATHS = "tests/test_cli.py::TestOutputPaths::test_a_plot_path_that_cannot_be_a_file_exits_2_before_any_work"

MUTATIONS: tuple[Mutation, ...] = (
    Mutation(
        "core-162",
        _STATIONARY,
        "    core = min(window, _CORE_HALF_WIDTH)\n",
        "    core = min(window, _CORE_HALF_WIDTH - 1)\n",
        (_PROFILE + "test_window_contents", _PROFILE + "test_every_square_is_pythons[163]",
         _PROFILE + "test_every_square_is_pythons[200000]"),
        _CORE,
    ),
    Mutation(
        "numpy-squares",
        _STATIONARY,
        "[abs(z) ** 2 for z in column.tolist()]",
        "np.abs(column) ** 2",
        (_PROFILE + "test_window_contents", _PROFILE + "test_every_square_is_pythons[5000]"),
        _CORE,
    ),
    Mutation(
        "plot-ancestor-of-out",
        _CLI,
        " or out.startswith(real + os.sep):",
        ":",
        (_PATHS + "[--out itself]", _PATHS + "[a parent that --out makes]"),
        _CORE,
    ),
    Mutation(
        "plot-truthiness",
        _CLI,
        "if (path := getattr(args, o, None)) is not None]",
        "if (path := getattr(args, o, None))]",
        (_PATHS + "[empty --svg]", _PATHS + "[empty --heatmap]"),
        _CORE,
    ),
    Mutation(
        "operators-from-one-array",
        _TIMEAVG,
        "    operators = [fourier_operator(momentum) for momentum in momenta]\n",
        "    k = np.array(momenta)\n"
        "    operators = list(np.stack((np.exp(1j * k), np.ones_like(k), np.exp(-1j * k)), axis=1)[..., None]"
        " * fourier_operator(0.0))\n",
        ("tests/test_timeavg.py::TestPerModeCalls::test_each_block_makes_its_own_calls",),
        _TUPLES,
    ),
    Mutation(
        "groups-twice",
        _TIMEAVG,
        "    for _, _, amplitude in eigenvalue_groups(n_sites, q, site):\n",
        "    eigenvalue_groups(n_sites, q, site)\n    for _, _, amplitude in eigenvalue_groups(n_sites, q, site):\n",
        ("tests/test_timeavg.py::TestPerModeCalls::test_the_average_groups_once",),
        _TUPLES,
    ),
    Mutation(
        "numpy-float-phases",
        _TIMEAVG,
        "    phases = [0.0, *reversed(theta), math.pi, *(2.0 * math.pi - phase for phase in theta)]\n",
        "    phases = list(np.array([0.0, *reversed(theta), math.pi, *(2.0 * math.pi - phase for phase in theta)]))\n",
        ("tests/test_timeavg.py::TestEigenvalueGroups::test_bit_identical_to_per_mode_loop[3]",),
        _TUPLES,
    ),
    Mutation(
        "writable-copies-off-the-stack",
        _TIMEAVG,
        "    stack = _projector_stack(np.array(momenta), np.array(theta))\n"
        "    for op in operators:\n"
        "        op.setflags(write=False)\n",
        "    stack = _projector_stack(np.array(momenta), np.array(theta)).copy()\n",
        (_BLOCKS + "test_projectors_are_read_only_views_into_one_stack",),
        _TUPLES,
    ),
    Mutation(
        "mode-0-pair-at-minus-pi",
        _TIMEAVG,
        "(math.pi, stack[1, half])",
        "(-math.pi, stack[1, half])",
        (_BLOCKS + "test_pairs_are_the_per_mode_loop_bit_for_bit[3]",),
        _TUPLES,
    ),
    Mutation(
        "mode-0-three-pairs",
        _TIMEAVG,
        "    pairs[half] = pairs[half][0], (math.pi, stack[1, half])\n",
        "",
        (_BLOCKS + "test_projectors_resolve_identity_and_operator",),
        _TUPLES,
    ),
    Mutation(
        # The square cut of 2^-538 enters only the core's derivation; up to
        # 2^-536 the core stays 163, so 2^-535 is the first cut that drops squares.
        "square-cut-2^-535",
        _STATIONARY,
        "(538 + math.log2(",
        "(535 + math.log2(",
        (_PROFILE + "test_window_contents",),
        _TUPLES,
    ),
    Mutation(
        "extra-distribution-in-evolve",
        _CLI,
        "    final = walk.distribution(state)\n",
        "    walk.distribution(state)\n    final = walk.distribution(state)\n",
        ("tests/test_cli.py::TestEvolve::test_steps_and_observers_as_the_tracer_pins_them",),
        _TUPLES,
    ),
    Mutation(
        "square-cut-2^-1074",
        _STATIONARY,
        "(538 + math.log2(",
        "(1074 + math.log2(",
        (_PROFILE + "test_window_contents", _PROFILE + "test_every_square_is_pythons[200000]"),
        _TUPLES,
        survives="the core grows to 325 sites a side, whose extra squares are all +0.0: the same bits, "
        "only more time (TestCore::test_the_half_width_is_163 pins the half-width itself)",
    ),
)
