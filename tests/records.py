"""The fields, constructor parameters and arrays of triwalk's records, for the tests.

A record stores its fields in its ``__slots__``, in order, and its
constructor takes the parameters that ``inspect.signature`` names: the
leading fields, as ``Distribution`` computes its last field, ``totals``.
"""

from __future__ import annotations

import inspect

import numpy as np

from triwalk.walk import _Record


def is_record(value) -> bool:
    """Whether ``value`` is a record (not a record type)."""
    return isinstance(value, _Record)


def fields(record) -> tuple[str, ...]:
    """The names of the fields a record or record type stores, in order."""
    return (record if isinstance(record, type) else type(record)).__slots__


def parameters(record) -> tuple[str, ...]:
    """The names of the parameters a record's or record type's constructor takes, in order."""
    return tuple(inspect.signature(record if isinstance(record, type) else type(record)).parameters)


def replace(record, **changes):
    """``record`` built again by its constructor, with ``changes`` in place of some of its parameters."""
    return type(record)(**{name: getattr(record, name) for name in parameters(record)} | changes)


def arrays(value):
    """Each array a record or a tuple holds, nested ones included, in order."""
    if isinstance(value, np.ndarray):
        yield value
    elif is_record(value):
        for name in fields(value):
            yield from arrays(getattr(value, name))
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays(item)
