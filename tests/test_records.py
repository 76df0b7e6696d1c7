"""The result records are frozen value types.

Each record stores its fields in its ``__slots__`` and is built by its own
constructor; these tests pin what a caller sees of that: the fields and the
constructor parameters, the frozen fields, the repr, equality and hashing
over the tuple of fields, and copies and pickles that keep every field.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import numpy as np
import pytest

import triwalk
from records import arrays, fields, is_record
from states import FIGURE_STATE, TEST_STATES
from triwalk import (
    ChiralVector,
    CycleState,
    Distribution,
    EmpiricalRescaled,
    LineState,
    QubitState,
    distribution,
    eigenvalue_groups,
    empirical_rescaled,
    evolve_cycle,
    evolve_line,
    momentum_blocks,
    stationary_profile,
    step_line,
)
from triwalk.walk import _Record

#: Each record type: its fields in order, and how many of them its constructor
#: takes (a Distribution computes its totals).
TYPES = {
    QubitState: (("alpha", "beta", "gamma"), 3),
    ChiralVector: (("left", "zero", "right"), 3),
    LineState: (("origin_offset", "amplitudes", "time"), 3),
    CycleState: (("n_sites", "amplitudes", "time"), 3),
    Distribution: (("first_site", "probabilities", "totals"), 2),
    EmpiricalRescaled: (("time", "positions", "masses"), 3),
}

#: One record of each type from its public constructor, with the repr it prints.
PUBLIC = [
    (QubitState(1, 0, 0), "QubitState(alpha=1, beta=0, gamma=0)"),
    (QubitState(0.6, 0.0, 0.8j), "QubitState(alpha=0.6, beta=0.0, gamma=0.8j)"),
    (ChiralVector(0.5, 0.5j, 0), "ChiralVector(left=0.5, zero=0.5j, right=0)"),
    (
        LineState(-1, [[0, 0, 0], [1, 0, 0], [0, 0, 0]], 0),
        "LineState(origin_offset=-1, amplitudes=array([[0.+0.j, 0.+0.j, 0.+0.j],\n"
        "       [1.+0.j, 0.+0.j, 0.+0.j],\n       [0.+0.j, 0.+0.j, 0.+0.j]]), time=0)",
    ),
    (
        CycleState(3, [[0, 0, 0], [0, 1j, 0], [0, 0, 0]], 4),
        "CycleState(n_sites=3, amplitudes=array([[0.+0.j, 0.+0.j, 0.+0.j],\n"
        "       [0.+0.j, 0.+1.j, 0.+0.j],\n       [0.+0.j, 0.+0.j, 0.+0.j]]), time=4)",
    ),
    (Distribution(-1, [[0.5, 0, 0], [0, 0, 0.5]]), "Distribution(first_site=-1)"),
    (
        EmpiricalRescaled(1, [-0.5, 0.5], [0.5, 0.5]),
        "EmpiricalRescaled(time=1, positions=array([-0.5,  0.5]), masses=array([0.5, 0.5]))",
    ),
]
PUBLIC_IDS = [f"{type(record).__name__}-{i}" for i, (record, _) in enumerate(PUBLIC)]

#: Each library call that builds records, with results on the 13 test states.
#: ``momentum_blocks`` and ``eigenvalue_groups`` return tuples of plain tuples,
#: which hold read-only arrays and, in each group, a ``ChiralVector``.
BUILT = {
    "evolve_line": lambda: [evolve_line(q, t) for q in TEST_STATES for t in (0, 1, 9)],
    "step_line": lambda: [step_line(evolve_line(q, 9)) for q in TEST_STATES],
    "evolve_cycle": lambda: [evolve_cycle(q, 5, t) for q in TEST_STATES for t in (0, 7)],
    "distribution": lambda: [distribution(s) for q in TEST_STATES for s in (evolve_line(q, 9), evolve_cycle(q, 5, 7))],
    "stationary_profile": lambda: [stationary_profile(q, 6) for q in TEST_STATES],
    "momentum_blocks": lambda: [momentum_blocks(n) for n in (3, 5)],
    "eigenvalue_groups": lambda: [eigenvalue_groups(5, q, 1) for q in TEST_STATES],
    "empirical_rescaled": lambda: [empirical_rescaled(t) for t in (1, 9)],
}


def _same(a, b) -> bool:
    """The same value bit for bit: records field by field, arrays by dtype, shape and bytes."""
    if type(a) is not type(b):
        return False
    if is_record(a):
        return all(_same(getattr(a, name), getattr(b, name)) for name in fields(a))
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return repr(a) == repr(b)  # a float's or a complex's repr keeps every bit, -0 included


#: The record types whose constructors copy and freeze the arrays they are given.
CHECKED = (LineState, CycleState, Distribution, EmpiricalRescaled)

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


def _check_copies(value) -> None:
    held = list(arrays(value))
    for how, make in COPIES.items():
        again = make(value)
        assert _same(again, value), how
        for mine, theirs in zip(held, arrays(again), strict=True):
            # The types that check their fields copy a caller's arrays and freeze
            # them, and so do their copies; a tuple's copies are NumPy's.
            if isinstance(value, CHECKED):
                assert not theirs.flags.writeable, how
            if how != "copy":
                assert not np.shares_memory(mine, theirs), how


def test_every_record_type_is_listed():
    public = {value for value in vars(triwalk).values() if isinstance(value, type) and issubclass(value, _Record)}
    assert public == set(TYPES)
    assert {type(record) for record, _ in PUBLIC} == set(TYPES)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_and_constructor_parameters(cls):
    names, taken = TYPES[cls]
    assert fields(cls) == names
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == list(names[:taken])
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in parameters)


@pytest.mark.parametrize("record, text", PUBLIC, ids=PUBLIC_IDS)
def test_repr(record, text):
    assert repr(record) == str(record) == text


def test_a_built_distribution_hides_its_arrays():
    assert repr(distribution(evolve_line(FIGURE_STATE, 3))) == "Distribution(first_site=-3)"
    assert repr(stationary_profile(FIGURE_STATE, 2)) == "Distribution(first_site=-2)"


@pytest.mark.parametrize("record", [record for record, _ in PUBLIC], ids=PUBLIC_IDS)
def test_fields_can_be_neither_assigned_nor_deleted(record):
    before = repr(record)
    for name in (*fields(record), "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before
    assert not hasattr(record, "__dict__")


def test_equality_and_hash_read_the_tuple_of_fields():
    a = ChiralVector(1, 0, 0)
    assert a == ChiralVector(1.0, 0.0, 0.0) and hash(a) == hash(ChiralVector(1.0, 0.0, 0.0)) == hash((1, 0, 0))
    assert a != ChiralVector(0, 1, 0)
    # Another class, a record of the same fields included, compares unequal.
    assert a.__eq__((1, 0, 0)) is NotImplemented and a != (1, 0, 0) and a != QubitState(1, 0, 0)
    q = QubitState(0.6, 0.0, 0.8j)
    assert hash(q) == hash((0.6, 0.0, 0.8j))
    groups, again = eigenvalue_groups(5, FIGURE_STATE, 1), eigenvalue_groups(5, FIGURE_STATE, 1)
    assert groups == again and hash(groups) == hash(again)
    assert groups[0] != groups[1]
    # Array fields compare as a tuple holding them does: the same arrays are
    # equal, equal copies ask an array for its truth value, and none hashes.
    line = evolve_line(FIGURE_STATE, 2)
    assert line == line
    with pytest.raises(ValueError):
        line == evolve_line(FIGURE_STATE, 2)  # noqa: B015
    with pytest.raises(TypeError):
        hash(line)


@pytest.mark.parametrize("record", [record for record, _ in PUBLIC], ids=PUBLIC_IDS)
def test_public_records_survive_copies_and_pickles(record):
    _check_copies(record)


@pytest.mark.parametrize("name", BUILT)
def test_built_records_survive_copies_and_pickles(name):
    seen = 0
    for result in BUILT[name]():
        for item in result if isinstance(result, tuple) else (result,):
            _check_copies(item)
            seen += 1
    assert seen
