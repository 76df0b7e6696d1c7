"""State model and exact direct evolution of the three-state quantum walk.

The walker carries three internal (chirality) components: a left mover, a
stayer, and a right mover. One time step applies the Grover-type coin to the
internal state and then routes each component one site left, nowhere, or one
site right. Evolution is implemented on a finite window of the infinite line
(the window spans the light cone; only amplitudes below 2^-1000 at its edges
are dropped, see below) and on cycles with an odd number of sites.

The coin and the shifts are real, so the real and imaginary parts of a state
evolve apart, as float64 buffers (rows, 3, sites): one row for a real state,
two otherwise, three for the weak limit's pure states. Each step is one BLAS
product ``coin @ window``, which ``evolve_*`` write into a second buffer
through a landing view ``landing[r, c, j] = buf[r, c, j + c]`` that shifts
each chirality as it lands. The buffers alternate, and both stay exactly zero
outside a live window of columns, so cells that nothing lands on read zero;
the cycle's live window is the whole ring, whose edge movers land in a spare
end column and wrap around. On the line the live window grows by one column
per side each step, and every 8 steps it drops the edge columns whose
amplitudes all lie below 2^-1000, zeroing them in both buffers. Past the
ballistic front at |n| = t/sqrt(3) the amplitudes fall off faster than
exponentially, so the outer columns of the light cone hold only floats whose
squares underflow to 0, many of them subnormal, which x86 multiplies in
microcode. 2^-1000 sits 22 binades above the smallest normal float, so the
cells kept stay normal for the 8 steps between scans. Each step covers the
live window with a zero column per side, never one column, whose product BLAS
rounds differently. So ``evolve_*`` and ``step_*`` agree bitwise until a
column is dropped. After it the difference spreads inward only in amplitudes
whose squares underflow: every probability matched the full light cone bit
for bit up to t = 12000, and every amplitude was within 2^-990 of it at
t = 1000, 2000 and 4000 (tests pin both there) and within 2^-821 at 12000.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QubitState",
    "ChiralVector",
    "LineState",
    "CycleState",
    "Distribution",
    "coin_matrix",
    "projector_matrices",
    "step_line",
    "evolve_line",
    "step_cycle",
    "evolve_cycle",
    "distribution",
]

#: Tolerance for accepting a caller-supplied initial state as normalized.
NORM_TOLERANCE = 1e-9

#: Roundoff allowance per step for the probability-conservation check. The
#: shifts are exact; each new real (or imaginary) component is a three-term real
#: dot product of a coin row with old components, under at most 5 roundings of
#: u = eps/2 (3 products, 2 sums). So the error vector has ||delta|| <= 5u ||B||,
#: B being the step taken with the entrywise moduli |A| and |psi|; |A| is
#: symmetric with row sums 5/3, so ||B|| <= 5/3 ||psi||, and with ||psi|| ~ 1
#: the squared norm moves by at most 2||delta|| + ||delta||^2 < 5 eps. The
#: 16 eps allowance keeps that margin. Measured: 0.5 eps per step (1.07e-16).
STEP_ROUNDOFF = 16.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class QubitState:
    """Initial internal state (alpha, beta, gamma) of the walker at the origin.

    Parameters
    ----------
    alpha, beta, gamma : complex
        Amplitudes of the left-moving, staying, and right-moving chirality
        components. The vector must have unit norm.

    Raises
    ------
    ValueError
        If ``|alpha|^2 + |beta|^2 + |gamma|^2`` deviates from 1 by more than
        ``NORM_TOLERANCE``.
    """

    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self) -> None:
        try:
            norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2 + abs(self.gamma) ** 2
        except OverflowError:  # a square beyond the largest float
            norm_sq = math.inf
        if not abs(norm_sq - 1.0) <= NORM_TOLERANCE:  # also rejects NaN
            raise ValueError(
                f"initial state is not normalized: |state|^2 = {norm_sq!r}"
            )

    def as_array(self) -> np.ndarray:
        """Return the state as a length-3 complex array."""
        return np.array([self.alpha, self.beta, self.gamma], dtype=complex)


# One rule per kind of argument, each returning it as the type the code computes
# with. operator.index refuses a float with TypeError and takes a numpy int or
# a bool as the int it stands for; float64 keeps a bool or a small numpy int
# out of numpy's float16 and float32 loops.


def _count(n: int, least: int = 0, what: str = "step count") -> int:
    n = operator.index(n)
    if n < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {n}")
    return n


def _cycle_size(n: int) -> int:
    n = operator.index(n)
    if n < 3 or n % 2 == 0:
        raise ValueError("cycle size must be an odd integer >= 3")
    return n


def _chirality(l: int) -> int:
    l = operator.index(l)
    if l not in (1, 2, 3):
        raise ValueError("chirality index must be 1, 2, or 3")
    return l


def _momentum(k: float | np.ndarray) -> float | np.ndarray:
    array = isinstance(k, np.ndarray)
    if not (np.isfinite(k).all() if array else math.isfinite(k)):
        raise ValueError(f"momentum must be finite, got {k}")
    return k.astype(float, copy=False) if array else float(k)


@dataclass(frozen=True)
class ChiralVector:
    """Complex amplitude triple at a single site.

    Components are ordered (left mover, stayer, right mover).
    """

    left: complex
    zero: complex
    right: complex

    @classmethod
    def from_array(cls, a: np.ndarray) -> "ChiralVector":
        return cls(complex(a[0]), complex(a[1]), complex(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.left, self.zero, self.right], dtype=complex)

    def probability(self) -> float:
        """Total probability carried by this site."""
        return abs(self.left) ** 2 + abs(self.zero) ** 2 + abs(self.right) ** 2


def _check_totals(totals: np.ndarray, first: int, what: str) -> None:
    # Row i of totals holds each state's total probability after step first + i.
    # The initial state may be off by NORM_TOLERANCE; every step, plus the
    # re-evaluation of the initial norm, adds at most STEP_ROUNDOFF.
    bound = NORM_TOLERANCE + np.arange(first + 1, first + 1 + len(totals), dtype=float) * STEP_ROUNDOFF
    kept = np.abs(totals - 1.0) <= bound[:, None]  # NaN fails too
    if not kept.all():
        raise ValueError(f"{what} breaks probability conservation: total = {float(totals[~kept][0])!r}")


def _check_total_probability(values: np.ndarray, time: int, what: str) -> None:
    # A frozen state: contiguous, so vdot copies nothing. The same bound as
    # _check_totals, in scalars: step_* check one state per call.
    total = float(np.vdot(values, values).real)
    if not abs(total - 1.0) <= NORM_TOLERANCE + (time + 1) * STEP_ROUNDOFF:  # NaN fails too
        raise ValueError(f"{what} breaks probability conservation: total = {total!r}")


def _frozen_rows(values: np.ndarray, dtype: type) -> np.ndarray:
    a = np.array(values, dtype=dtype, order="C")
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("per-site table must have shape (sites, 3)")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LineState:
    """Wavefunction on a finite window of the infinite line.

    Attributes
    ----------
    origin_offset : int
        Site index of the first row of ``amplitudes``.
    amplitudes : numpy.ndarray
        Read-only complex array of shape (window, 3); row ``i`` holds the
        chirality amplitudes at site ``origin_offset + i``.
    time : int
        Number of steps taken since the initial state.
    """

    origin_offset: int
    amplitudes: np.ndarray
    time: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin_offset", operator.index(self.origin_offset))
        object.__setattr__(self, "time", _count(self.time))
        object.__setattr__(self, "amplitudes", _frozen_rows(self.amplitudes, complex))
        _check_total_probability(self.amplitudes, self.time, "line state")

    @property
    def sites(self) -> range:
        return range(self.origin_offset, self.origin_offset + self.amplitudes.shape[0])

    def amplitude(self, n: int) -> ChiralVector:
        """Amplitudes at site ``n`` (zero outside the stored window)."""
        i = operator.index(n) - self.origin_offset
        if 0 <= i < self.amplitudes.shape[0]:
            return ChiralVector.from_array(self.amplitudes[i])
        return ChiralVector(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CycleState:
    """Wavefunction on a cycle of ``n_sites`` sites (``n_sites`` odd)."""

    n_sites: int
    amplitudes: np.ndarray
    time: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_sites", _cycle_size(self.n_sites))
        object.__setattr__(self, "time", _count(self.time))
        object.__setattr__(self, "amplitudes", _frozen_rows(self.amplitudes, complex))
        if self.amplitudes.shape[0] != self.n_sites:
            raise ValueError("amplitude field does not match the cycle size")
        _check_total_probability(self.amplitudes, self.time, "cycle state")

    def amplitude(self, n: int) -> ChiralVector:
        """Amplitudes at site ``n`` (site indices taken modulo the cycle size)."""
        return ChiralVector.from_array(self.amplitudes[operator.index(n) % self.n_sites])


@dataclass(frozen=True)
class Distribution:
    """Per-site, per-chirality probabilities over consecutive sites.

    Row ``i`` of the read-only (window, 3) array ``probabilities`` holds
    (p_L, p_0, p_R) at site ``first_site + i``; ``totals`` holds the row sums
    p_L + p_0 + p_R, added left to right. A NaN, infinite or negative
    probability, or a row whose sum overflows, raises ``ValueError``.
    """

    first_site: int
    probabilities: np.ndarray = field(repr=False)
    totals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "first_site", operator.index(self.first_site))
        p = _frozen_rows(self.probabilities, float)
        with np.errstate(over="ignore"):  # an infinite total is refused below
            totals = p[:, 0] + p[:, 1] + p[:, 2]
        if not (p.min(initial=0.0) >= 0.0 and totals.max(initial=0.0) < math.inf):  # NaN fails too
            raise ValueError("probabilities must be finite and non-negative")
        totals.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "totals", totals)

    def __len__(self) -> int:
        return self.probabilities.shape[0]

    def sites(self) -> range:
        return range(self.first_site, self.first_site + len(self))

    def total(self, n: int) -> float:
        """Total probability at site ``n``; zero for sites outside the window."""
        i = operator.index(n) - self.first_site
        return float(self.totals[i]) if 0 <= i < len(self) else 0.0


def _own(cls: type, **fields):
    # cls(**fields) for valid arrays that triwalk has just built and no caller
    # holds: each is frozen in place where the public constructor would copy it.
    if cls is Distribution:
        p = fields["probabilities"]
        fields["totals"] = p[:, 0] + p[:, 1] + p[:, 2]
    else:  # a state, checked for conservation once, as its constructor checks it
        what = "line state" if cls is LineState else "cycle state"
        _check_total_probability(fields["amplitudes"], fields["time"], what)
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def coin_matrix() -> np.ndarray:
    """Return the 3x3 coin operator.

    The matrix has every diagonal entry -1/3 and every off-diagonal entry
    2/3. It is unitary (real orthogonal) and each row sums to 1, so the
    uniform chirality vector is invariant.
    """
    m = np.full((3, 3), 2.0, dtype=complex)
    np.fill_diagonal(m, -1.0)
    return m / 3.0


def projector_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return the row pieces (U_L, U_0, U_R) of the coin operator.

    U_L keeps only the first row of the coin (the component routed one site
    to the left), U_0 the middle row (the component that stays), U_R the
    last row (routed right). They sum to the full coin matrix.
    """
    coin = coin_matrix()
    pieces = []
    for row in range(3):
        p = np.zeros((3, 3), dtype=complex)
        p[row] = coin[row]
        pieces.append(p)
    return pieces[0], pieces[1], pieces[2]


@functools.lru_cache(maxsize=1)
def _coin() -> np.ndarray:
    # The real coin for the kernel, built once per process.
    coin = sum(projector_matrices()).real.copy()
    coin.setflags(write=False)
    return coin


def _parts(amplitudes: np.ndarray, pad: int = 0) -> np.ndarray:
    # (rows, 3, pad + sites + pad) copy of contiguous (sites, 3) amplitudes, zero
    # in the pad: the real part, then the imaginary part unless it is all zero.
    pairs = amplitudes.view(float).reshape(-1, 3, 2).T
    rows = 2 if pairs[1].any() else 1
    parts = np.zeros((rows, 3, len(amplitudes) + 2 * pad))
    parts[:, :, pad : pad + len(amplitudes)] = pairs[:rows]
    return parts


def _amplitudes(parts: np.ndarray) -> np.ndarray:
    amplitudes = np.empty((parts.shape[2], 3), dtype=complex)
    amplitudes.real = parts[0].T
    amplitudes.imag = parts[1].T if len(parts) == 2 else 0.0
    return amplitudes


def _step(amplitudes: np.ndarray, cycle: bool) -> np.ndarray:
    # One step of frozen amplitudes: the coin over their parts (the line's padded by
    # a zero site per side), landing shifted in an output with a spare end site.
    parts = _parts(amplitudes, pad=0 if cycle else 1)
    n = parts.shape[2]
    out = np.zeros((n + 2, 3), dtype=complex)
    site, item = out.strides
    landing = np.ndarray((len(parts), 3, n), float, out, strides=(item // 2, site + item, site))
    np.matmul(_coin(), parts, out=landing)
    if cycle:
        out[n, 0], out[1, 2] = out[0, 0], out[n + 1, 2]
    return out[1:-1]


#: Steps between scans of the line's live window.
_SCAN = 8

#: Amplitude below which an edge column of the line leaves the live window.
#: The front falls by about a factor 3 (1.6 binades) per step, the outermost
#: left mover by exactly the coin's diagonal -1/3, so from 2^-1000 the cells
#: that grow out of a kept edge stay above the smallest normal float, 2^-1022,
#: for the _SCAN steps between scans. A lower floor keeps more columns and
#: costs time; a higher one moves probabilities: at 2^-900, 31 of the 24001
#: weak-limit masses at t = 12000 moved in their last bits (by at most
#: 8.4e-286), as rounding differences spread inward from the cut.
_FLOOR = 2.0**-1000


def _edge(columns: np.ndarray) -> int:
    # The number of leading columns of (rows, n) whose amplitudes are all below
    # _FLOOR, read 32 at a time: a scan seldom drops more than the _SCAN columns
    # each side gained since the last one.
    k = 0
    while k < columns.shape[1]:
        big = np.flatnonzero(np.abs(columns[:, k : k + 32]).max(axis=0) >= _FLOOR)
        if big.size:
            return k + int(big[0])
        k += 32
    return k


def _evolve(parts: np.ndarray, t: int, cycle: bool, states: int = 1) -> np.ndarray:
    # t steps of a (rows, 3, cols) buffer of ``states`` states, each checked every
    # step; the line starts in column cols // 2 = t + 1. Both buffers stay zero
    # outside the live columns [lo, hi). Drops the end columns.
    cols = parts.shape[2]
    bufs = (parts, np.zeros_like(parts))
    r, c, j = parts.strides
    landings = [np.ndarray((len(b), 3, cols - 2), float, b, strides=(r, c + j, j)) for b in bufs]
    dots = np.empty((t, 3 * len(parts)))  # row s - 1: each row's squared norm after step s
    what = "cycle state" if cycle else "line state"
    lo, hi = (1, cols - 1) if cycle else (cols // 2, cols // 2 + 1)
    for s in range(1, t + 1):
        if not cycle:  # step the live window with a zero column per side
            lo, hi = lo - 1, hi + 1
        src, dst, landing = bufs[1 - s % 2], bufs[s % 2], landings[s % 2]
        np.matmul(_coin(), src[:, :, lo:hi], out=landing[:, :, lo - 1 : hi - 1])
        if cycle:
            dst[:, 0, -2], dst[:, 2, 1] = dst[:, 0, 0], dst[:, 2, -1]
        rows = dst[:, :, lo:hi].reshape(-1, hi - lo)  # a view: the rows are equally strided
        np.matmul(rows[:, None, :], rows[:, :, None], out=dots[s - 1, :, None, None])
        if s % _SCAN and s < t:
            continue
        done = (s - 1) // _SCAN * _SCAN  # steps checked before this block
        _check_totals(dots[done:s].reshape(s - done, states, -1).sum(axis=2), done + 1, what)
        if not cycle:  # checked, so some column holds amplitude: live_lo < live_hi
            live_lo, live_hi = lo + _edge(rows), hi - _edge(rows[:, ::-1])
            for b in bufs:
                b[:, :, lo:live_lo] = b[:, :, live_hi:hi] = 0.0
            lo, hi = live_lo, live_hi
    return bufs[t % 2][:, :, 1:-1]


def step_line(s: LineState) -> LineState:
    """Advance a line state by one step, widening the window by one site per side."""
    amplitudes = _step(s.amplitudes, cycle=False)
    return _own(LineState, origin_offset=s.origin_offset - 1, amplitudes=amplitudes, time=s.time + 1)


def evolve_line(q: QubitState, t: int) -> LineState:
    """Evolve the walker for ``t`` steps on the line from the origin.

    Parameters
    ----------
    q : QubitState
        Normalized initial internal state.
    t : int
        Non-negative number of steps.

    Returns
    -------
    LineState
        The state after ``t`` steps; its window spans exactly [-t, t].
    """
    t = _count(t)
    parts = _evolve(_parts(q.as_array()[None, :], pad=t + 1), t, cycle=False)
    return _own(LineState, origin_offset=-t, amplitudes=_amplitudes(parts), time=t)


def step_cycle(s: CycleState) -> CycleState:
    """Advance a cycle state by one step (site indices wrap modulo the size)."""
    return _own(CycleState, n_sites=s.n_sites, amplitudes=_step(s.amplitudes, cycle=True), time=s.time + 1)


def evolve_cycle(q: QubitState, n_sites: int, t: int) -> CycleState:
    """Evolve the walker for ``t`` steps on a cycle of ``n_sites`` sites."""
    t, n_sites = _count(t), _cycle_size(n_sites)
    start = np.zeros((n_sites, 3), dtype=complex)
    start[0] = q.as_array()
    _check_total_probability(start, 0, "cycle state")
    parts = _evolve(_parts(start, pad=1), t, cycle=True)
    return _own(CycleState, n_sites=n_sites, amplitudes=_amplitudes(parts), time=t)


def distribution(s: LineState | CycleState) -> Distribution:
    """Per-site probabilities of a state, broken down by chirality."""
    p = np.abs(s.amplitudes)
    p **= 2  # in place, with the bits of np.abs(a) ** 2
    first_site = s.origin_offset if isinstance(s, LineState) else 0
    return _own(Distribution, first_site=first_site, probabilities=p)
