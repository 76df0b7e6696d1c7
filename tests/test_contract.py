"""One input contract over every public name of triwalk.

``ROWS`` holds one row per name in ``triwalk.__all__``: the parameters of a
function or constructor, each with a kind that draws its probes, or a marker
for a constant, a module or a record that stores what it is given. Each probe
replaces one parameter of a valid call. The call must raise ``TypeError`` or
``ValueError`` (``SingularMomentumError`` included), or return a value whose
every number is finite. Beyond that, each kind pins its rule:

- an int parameter (site, count, cycle size, chirality) takes a plain int by
  its rule, valid or ``ValueError``; a numpy int or a bool gives what its int
  gives, bit for bit and with every stored int a plain int; any float raises
  ``TypeError``;
- a real parameter (momentum, rescaled position, amplitude) takes a numpy
  float or an int, numpy int or bool as the plain float; NaN raises
  ``ValueError``, and so does ``+-inf`` for a momentum or an amplitude.

Huge values (the int64 extremes, 2^63 and 10^400, of both signs) are drawn
only for parameters that a rule or the quadrature reach refuses before any
work, which must not overflow on the way; sizes that allocate or step in
proportion stay small.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import operator
import types

import numpy as np
import pytest

import triwalk
from records import fields, is_record, parameters
from states import FIGURE_STATE, TEST_STATES
from triwalk import (
    ChiralVector,
    Distribution,
    EmpiricalRescaled,
    QubitState,
    distribution,
    eigenvalue_groups,
    evolve_cycle,
    evolve_line,
    momentum_blocks,
    step_cycle,
    step_line,
)

OK = "a finite value"
EITHER = "ValueError or a finite value"
HUGE = (2**63, -(2**63), np.int64(2**62), np.int64(2**63 - 1), np.int64(-(2**63)), 10**400, -(10**400))


@dataclasses.dataclass(frozen=True)
class Same:
    """The outcome of the call with ``value`` in place of the probe."""

    value: object


@dataclasses.dataclass(frozen=True)
class Int:
    """An int parameter: ``valid`` decides each plain int of ``ints``."""

    base: int
    valid: object
    ints: tuple
    reach: bool = False  # huge values are refused before any work

    def probes(self):
        yield from ((n, OK if self.valid(n) else ValueError) for n in self.ints)
        yield from ((n, ValueError) for n in (HUGE if self.reach else ()))
        for n in (np.int64(self.base), np.int32(self.base), True, False):
            yield n, Same(operator.index(n))
        for x in (float(self.base), np.float64(self.base), self.base + 0.5, math.nan, math.inf, -math.inf):
            yield x, TypeError


@dataclasses.dataclass(frozen=True)
class Real:
    """A real parameter; ``finite`` makes +-inf raise ``ValueError`` as NaN does."""

    base: float
    finite: bool = True

    def probes(self):
        for x in (self.base, 0.5, -2.5, 5e-324, 1e300, -1e300):
            yield x, EITHER
        yield np.float64(self.base), Same(self.base)
        for n in (0, 3, -2, 2**63, np.int64(3), np.int32(-2), True, False):
            yield n, Same(float(n))
        yield math.nan, ValueError
        for x in (math.inf, -math.inf):
            yield x, ValueError if self.finite else EITHER


@dataclasses.dataclass(frozen=True)
class Table:
    """An array parameter: each of ``bad`` raises ``ValueError``; each (value, float) of ``alike`` is that float table."""

    base: list
    bad: tuple
    alike: tuple

    def probes(self):
        yield self.base, OK
        yield from ((value, ValueError) for value in self.bad)
        yield from ((value, Same(floats)) for value, floats in self.alike)


@dataclasses.dataclass(frozen=True)
class Given:
    """A parameter of a library type, which checks its own inputs when built."""

    base: object

    def probes(self):
        return ()


@dataclasses.dataclass(frozen=True)
class Record:
    """A result record of the library: it stores each field as given and checks nothing."""

    base: tuple


CONSTANT = "a module, the version, an exception class or a finite number"


def site(reach: bool = False) -> Int:
    return Int(1, lambda n: True, (-2, 0, 3), reach)


def count(base: int, least: int = 0, reach: bool = False) -> Int:
    return Int(base, lambda n: n >= least, (-1, least - 1, least, least + 1), reach)


CYCLE = Int(5, lambda n: n >= 3 and n % 2 == 1, (-3, 1, 2, 3, 4, 5, 7))
CHIRALITY = Int(2, lambda l: l in (1, 2, 3), (-1, 0, 1, 2, 3, 4))
MOMENTUM = Real(0.5)
Q = Given(FIGURE_STATE)
SINGLE = [[1.0, 0.0, 0.0]]
AS_FLOATS = (([[1, 0, 0]], SINGLE), ([[True, False, False]], SINGLE), (np.array([[1, 0, 0]]), SINGLE))


def ring(first: list) -> list:
    return [first] + [[0.0] * 3] * 4


ROWS = {
    "__version__": CONSTANT,
    "walk": CONSTANT,
    "spectral": CONSTANT,
    "stationary": CONSTANT,
    "timeavg": CONSTANT,
    "weaklimit": CONSTANT,
    # walk
    "QubitState": (Real(1.0), Real(0.0), Real(0.0)),
    "ChiralVector": Record((0.5, 0.5j, 0.0)),
    "LineState": (
        site(),
        Table(SINGLE, ([[math.nan, 0, 0]], [[math.inf, 0, 0]], [[2.0, 0, 0]], [[1e300, 0, 0]]), AS_FLOATS),
        count(0),
    ),
    "CycleState": (
        Int(5, lambda n: n == 5, (3, 4, 5, 7)),
        Table(ring(SINGLE[0]), tuple(ring(row) for row in ([math.nan, 0, 0], [math.inf, 0, 0], [2.0, 0, 0])),
              tuple((ring(value[0]), ring(floats[0])) for value, floats in AS_FLOATS)),
        count(0),
    ),
    "Distribution": (
        site(),
        Table(
            SINGLE,
            ([[math.nan, 0, 0]], [[math.inf, 0, 0]], [[-math.inf, 0, 0]], [[-1.0, 0, 0]], [[1e308, 1e308, 0]]),
            AS_FLOATS + (([[1e300, 0, 0]], [[1e300, 0.0, 0.0]]),),
        ),
    ),
    "coin_matrix": (),
    "projector_matrices": (),
    "step_line": (Given(evolve_line(FIGURE_STATE, 2)),),
    "evolve_line": (Q, count(2)),
    "step_cycle": (Given(evolve_cycle(FIGURE_STATE, 5, 2)),),
    "evolve_cycle": (Q, CYCLE, count(2)),
    "distribution": (Given(evolve_line(FIGURE_STATE, 2)),),
    # spectral
    "DEFAULT_GRID_SIZE": CONSTANT,
    "SingularMomentumError": CONSTANT,
    "quadrature_nodes": (Int(8, lambda n: n >= 2 and n % 2 == 0, (-2, 0, 1, 2, 7, 8)),),
    "dispersion": (MOMENTUM,),
    "fourier_operator": (MOMENTUM,),
    # Finite values only: the eigenvectors near k = 0 are item 12 of the ROADMAP.
    "eigensystem": (MOMENTUM,),
    "wavefunction": (site(reach=True), count(3, reach=True), Q),
    "wavefunction_window": (count(1, reach=True), count(3, reach=True), Q),
    "stationary_component_integral": (site(reach=True), CHIRALITY, Q),
    "j_kernel": (site(reach=True), count(3, reach=True)),
    "k_kernel": (site(reach=True), count(3, reach=True)),
    "remainder_matrix": (site(reach=True), count(3, reach=True)),
    "oscillatory_remainder": (site(reach=True), count(3, reach=True), Q),
    "remainder_window": (count(1, reach=True), count(3, reach=True), Q),
    # stationary
    "GEOMETRIC_RATIO": CONSTANT,
    "limit_amplitude": (site(), CHIRALITY, Q),
    "limit_component": (site(), CHIRALITY, Q),
    "limit_probability": (site(), Q),
    "total_mass": (Q,),
    "stationary_profile": (Q, count(2, least=1)),
    # timeavg
    "MomentumBlock": Record((0, 0.0, np.eye(3), ())),
    "EigenvalueGroup": Record((0.0, (), ChiralVector(0.0, 0.0, 0.0))),
    "momentum_blocks": (CYCLE,),
    "eigenvalue_groups": (CYCLE, Q, site()),
    "cycle_time_average": (CYCLE, Q, site()),
    "infinite_time_average_component": (CHIRALITY, Q),
    "infinite_time_average_total": (Q,),
    # weaklimit
    "SUPPORT_EDGE": CONSTANT,
    "EmpiricalRescaled": (
        count(1, least=1),
        Table([-0.5, 0.5], ([math.nan, 0.5], [-0.5, math.nan], [-0.5, math.inf], [-2.0, 0.5], [0.5, -0.5]),
              (([-1, 1], [-1.0, 1.0]), ([False, True], [0.0, 1.0]))),
        Table([0.5, 0.5], ([math.nan, 0.5], [math.inf, 0.5], [1.5, -0.5], [-0.5, 1.5]),
              (([1, 0], [1.0, 0.0]), ([True, False], [1.0, 0.0]))),
    ),
    "density": (Real(0.25, finite=False),),
    "continuous_mass": (Real(-0.25, finite=False), Real(0.25, finite=False)),
    "localization_mass": (),
    "limit_cdf": (Real(0.25, finite=False),),
    "empirical_rescaled": (count(2, least=1),),
    "cdf_distance": (Given(EmpiricalRescaled(1, [-0.5, 0.5], [0.5, 0.5])),),
}


def _leaves(value):
    """The numbers of a result: arrays, scalars and every field of a record."""
    if isinstance(value, (QubitState, ChiralVector)):
        yield value.as_array()
    elif is_record(value):
        for name in fields(value):
            yield from _leaves(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _same(a, b) -> bool:
    """The same numbers bit for bit, and ints of one type: a stored numpy int is no plain int."""
    pairs = [(np.asarray(x), np.asarray(y), x, y) for x, y in zip(_leaves(a), _leaves(b), strict=True)]
    return all(
        (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        and (type(u) is type(v) or not isinstance(u, (int, np.integer)))
        for x, y, u, v in pairs
    )


def _outcome(call, args):
    """The exception class ``call(*args)`` raises, or its value."""
    try:
        return call(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _violations(call, params):
    bases = [p.base for p in params]
    for i, param in enumerate(params):
        for probe, expect in param.probes():
            args = [*bases[:i], probe, *bases[i + 1 :]]
            got = _outcome(call, args)
            raised = isinstance(got, type)
            if isinstance(expect, Same):
                want = _outcome(call, [*bases[:i], expect.value, *bases[i + 1 :]])
                fine = got is want if raised or isinstance(want, type) else _same(got, want)
            elif raised:
                fine = got is expect or expect is EITHER and issubclass(got, ValueError)
            else:
                fine = expect in (OK, EITHER)
            if fine and not raised:
                fine = all(np.isfinite(leaf).all() for leaf in _leaves(got))
            if not fine:
                yield f"argument {i} = {probe!r}: expected {getattr(expect, '__name__', expect)}, got {got!r}"


def test_every_public_name_has_one_row():
    assert list(ROWS) == triwalk.__all__


@pytest.mark.parametrize("name", triwalk.__all__)
def test_each_input_raises_or_gives_a_finite_value(name):
    row, value = ROWS[name], getattr(triwalk, name)
    if row is CONSTANT:
        assert isinstance(value, (types.ModuleType, str)) or (
            issubclass(value, ValueError) if isinstance(value, type) else math.isfinite(value)
        )
    elif isinstance(row, Record):
        for i in range(len(row.base)):
            for probe in (math.nan, math.inf, -1, 0.5, True, np.int64(2), None):
                args = [*row.base[:i], probe, *row.base[i + 1 :]]
                assert getattr(value(*args), fields(value)[i]) is probe
    else:
        assert list(_violations(value, row)) == []


def test_distribution_refuses_a_bad_probability():
    # Distribution(0, [[nan, 0, 0]]).total(0) was nan and [[-1, 0, 0]] gave -1.0.
    # distribution() and stationary_profile build valid squares and skip the check.
    for table in ([[math.nan, 0, 0]], [[math.inf, 0, 0]], [[-1.0, 0, 0]], [[-0.5, 1.0, 0.5]]):
        with pytest.raises(ValueError):
            Distribution(0, table)


def _records(value):
    """Each record in a result, nested ones included."""
    if is_record(value):
        yield value
        for name in fields(value):
            yield from _records(getattr(value, name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _records(item)


def _arrays(value):
    """Each array a result holds, in its records and their tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif is_record(value):
        for name in fields(value):
            yield from _arrays(getattr(value, name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def _rebuilt(record):
    """``record`` built again by its public constructor, from copies of its fields."""
    if isinstance(record, ChiralVector):  # its components as the array constructor stores them
        return ChiralVector.from_array(record.as_array())
    return type(record)(**{name: copy.deepcopy(getattr(record, name)) for name in parameters(record)})


CYCLES = (3, 5, 101)

#: Each library call that builds its records without their constructors, with
#: every result it gives on the cycles of CYCLES and the 13 test states.
BUILT = {
    "momentum_blocks": lambda: [momentum_blocks(n) for n in CYCLES],
    "eigenvalue_groups": lambda: [
        eigenvalue_groups(n, q, site) for n in CYCLES for q in TEST_STATES for site in (0, n // 2)
    ],
    "evolve_line": lambda: [evolve_line(q, t) for q in TEST_STATES for t in (0, 1, 9)],
    "step_line": lambda: [step_line(evolve_line(q, t)) for q in TEST_STATES for t in (0, 9)],
    "evolve_cycle": lambda: [evolve_cycle(q, n, t) for n in CYCLES for q in TEST_STATES for t in (0, 2, 60)],
    "step_cycle": lambda: [step_cycle(evolve_cycle(q, n, t)) for n in CYCLES for q in TEST_STATES for t in (0, 60)],
    "distribution": lambda: [
        distribution(s) for q in TEST_STATES for s in (evolve_line(q, 9), *(evolve_cycle(q, n, 60) for n in CYCLES))
    ],
}


@pytest.mark.parametrize("name", BUILT)
def test_records_equal_their_public_rebuild(name):
    # Internal builds skip __init__ (or take the values positionally); each
    # record must hold what its public constructor would build from it, field
    # for field, with the same scalar types, and only read-only arrays.
    seen = 0
    for result in BUILT[name]():
        for record in _records(result):
            seen += 1
            rebuilt = _rebuilt(record)
            for field in fields(record):
                mine, theirs = getattr(record, field), getattr(rebuilt, field)
                assert type(mine) is type(theirs), field
                assert _same(mine, theirs), field
        assert not any(a.flags.writeable for a in _arrays(result))
    assert seen  # each call's results hold records
