"""Shared test states and hypothesis strategies.

A plain module, not a conftest: ``from conftest import ...`` resolves to
whichever conftest was imported first, so a run that also collects
``perfbench/tests`` would find the wrong one.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from triwalk import QubitState

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

#: The localizing state used in the probability-trace figure.
FIGURE_STATE = QubitState(1j / _SQRT2, 0.0, 1.0 / _SQRT2)

#: Uniform real state.
UNIFORM_STATE = QubitState(1.0 / _SQRT3, 1.0 / _SQRT3, 1.0 / _SQRT3)

#: Alternating-sign state.
ALTERNATING_STATE = QubitState(1.0 / _SQRT3, -1.0 / _SQRT3, 1.0 / _SQRT3)

#: The state whose localized part vanishes identically.
ZERO_LOCALIZATION_STATE = QubitState(1.0 / _SQRT6, -2.0 / _SQRT6, 1.0 / _SQRT6)


def _random_states(count: int, seed: int = 7) -> list[QubitState]:
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        norm = np.linalg.norm(raw)
        if norm < 1e-3:
            continue
        a, b, g = raw / norm
        states.append(QubitState(complex(a), complex(b), complex(g)))
    return states


#: A broad deterministic state set, complex phases included, for oracle sweeps.
TEST_STATES: list[QubitState] = [
    FIGURE_STATE,
    QubitState(1.0, 0.0, 0.0),
    QubitState(0.0, 1.0, 0.0),
    QubitState(0.0, 0.0, 1.0),
    UNIFORM_STATE,
    ALTERNATING_STATE,
    ZERO_LOCALIZATION_STATE,
    QubitState(0.6, 0.0, 0.8j),
    QubitState(0.5, 0.5, 0.5 + 0.5j),
    QubitState(
        np.exp(1j * np.pi / 7) / _SQRT2, 0.0, 1j * np.exp(-1j * np.pi / 5) / _SQRT2
    ),
    *_random_states(3),
]


def mirrored(q: QubitState) -> QubitState:
    """The reflection partner state: components reversed."""
    return QubitState(q.gamma, q.beta, q.alpha)


@st.composite
def qubit_states(draw) -> QubitState:
    """Normalized three-component states with arbitrary complex phases."""
    parts = [
        draw(
            st.floats(
                min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
            )
        )
        for _ in range(6)
    ]
    vec = np.array(parts[:3]) + 1j * np.array(parts[3:])
    norm = np.linalg.norm(vec)
    if norm < 1e-2:
        vec = np.array([1.0, 0.0, 0.0], dtype=complex)
        norm = 1.0
    a, b, g = vec / norm
    return QubitState(complex(a), complex(b), complex(g))
