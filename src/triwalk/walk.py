"""State model and exact direct evolution of the three-state quantum walk.

The walker carries three internal (chirality) components: a left mover, a
stayer, and a right mover. One time step applies the Grover-type coin to the
internal state and then routes each component one site left, nowhere, or one
site right, on the infinite line or on a cycle with an odd number of sites.

The coin and the shifts are real, so the real and imaginary parts of a state
evolve apart, as float64 buffers (rows, 3, sites). ``step_*`` step two rows;
``_evolve`` takes the initial chirality vectors at site 0 and a ring size, and
gives each vector a real row, then an imaginary row if any vector is complex:
one row for a real qubit, two otherwise, three for the weak limit's pure
states. ``evolve_line`` is the one-state case of ``_line_states``, which
steps several line states in one buffer, each state's rows a run of their
own, so that they share each step's fixed costs. Each step is one BLAS
product ``coin @ window``, landed in a second buffer through a view
``landing[r, c, j] = buf[r, c, j + c]`` that shifts each chirality. A
buffer is a ring with a spare end column per side and site 0 in its middle
column: the line of t steps is the ring of 2t + 1 sites, which t steps never
wrap, and a cycle is rolled back to site 0 at the end. Both buffers stay zero
outside a live window, which ``evolve_*`` widen by one column per
side per step, in scan blocks of 8 steps stepped from one set of views. Each
step is checked once: one dot per buffer row per step, checked at the block's
end, and the qubit's own normalization covers step 0. At its end a block
reads its last step's rows from each end inward, in bands of 16 columns and
then twice as many each band, up to that end's first live column, and drops
the edge columns whose amplitudes all lie below 2^-1000; the edges move a
few columns per block, so the first band finds them at any t. A block whose
window would pass the ring's ends steps the whole ring instead, wraps its
edge movers every step and drops nothing. Past the ballistic front at
|n| = t/sqrt(3) amplitudes fall off faster than exponentially, so dropped
columns hold only floats whose squares underflow to 0, many of them
subnormal, which x86 multiplies in microcode; 2^-1000 sits 22 binades above
the smallest normal float, so the cells kept stay normal between scans.
Each step covers the live state with a zero column per side, which lands as
+0, or the whole ring, never one column, whose product BLAS rounds
differently. So ``evolve_*`` and ``step_*`` agree bitwise until a column is
dropped, then in probabilities only: the drops moved amplitudes by at most
2^-990 on the line at t = 1000, 2000 and 4000 and on a ring of 2001 sites at
t = 1001 and 2000 (tests pin these), and 2^-821 on the line at t = 12000.

The records here, and that of ``weaklimit``, are frozen slotted classes on
one private base, each built by its own constructor, which sets every field
once; triwalk's own builds of the states and distributions skip the
constructor through ``_own``.
"""

from __future__ import annotations

import functools
import math
import operator

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


class _Record:
    # The frozen record under every result type. Its fields are its __slots__, in
    # order, each set once through object.__setattr__ by the class's own __init__,
    # or by _own. Equality, hashing and the repr read them as one tuple in that
    # order. Copy, deepcopy and pickle build a record again by its constructor,
    # from the fields it takes, so a copy is checked and frozen as the original.
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class QubitState(_Record):
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

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: complex, beta: complex, gamma: complex) -> None:
        try:
            norm_sq = abs(alpha) ** 2 + abs(beta) ** 2 + abs(gamma) ** 2
        except OverflowError:  # a square beyond the largest float
            norm_sq = math.inf
        if not abs(norm_sq - 1.0) <= NORM_TOLERANCE:  # also rejects NaN
            raise ValueError(
                f"initial state is not normalized: |state|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

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


class ChiralVector(_Record):
    """Complex amplitude triple at a single site.

    Components are ordered (left mover, stayer, right mover).
    """

    __slots__ = ("left", "zero", "right")

    def __init__(self, left: complex, zero: complex, right: complex) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "right", right)

    @classmethod
    def from_array(cls, a: np.ndarray) -> "ChiralVector":
        return cls(complex(a[0]), complex(a[1]), complex(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.left, self.zero, self.right], dtype=complex)

    def probability(self) -> float:
        """Total probability carried by this site."""
        return abs(self.left) ** 2 + abs(self.zero) ** 2 + abs(self.right) ** 2


def _check_total(total: float, time: int, what: str) -> None:
    # The conservation rule for one state's total after step time: the initial state may be
    # off by NORM_TOLERANCE; each step, and re-evaluating its norm, adds STEP_ROUNDOFF at most.
    try:
        bound = NORM_TOLERANCE + (time + 1) * STEP_ROUNDOFF
    except OverflowError:  # time + 1 beyond float range: every finite total is within the bound
        bound = np.finfo(float).max
    if not abs(total - 1.0) <= bound:  # NaN and inf fail too
        raise ValueError(f"{what} breaks probability conservation: total = {total!r}")


def _frozen_rows(values: np.ndarray, dtype: type) -> np.ndarray:
    a = np.array(values, dtype=dtype, order="C")
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("per-site table must have shape (sites, 3)")
    a.setflags(write=False)
    return a


class LineState(_Record):
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

    __slots__ = ("origin_offset", "amplitudes", "time")

    def __init__(self, origin_offset: int, amplitudes: np.ndarray, time: int) -> None:
        origin_offset, time = operator.index(origin_offset), _count(time)
        amplitudes = _frozen_rows(amplitudes, complex)
        _check_total(float(np.vdot(amplitudes, amplitudes).real), time, "line state")
        object.__setattr__(self, "origin_offset", origin_offset)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "time", time)

    @property
    def sites(self) -> range:
        return range(self.origin_offset, self.origin_offset + self.amplitudes.shape[0])

    def amplitude(self, n: int) -> ChiralVector:
        """Amplitudes at site ``n`` (zero outside the stored window)."""
        i = operator.index(n) - self.origin_offset
        if 0 <= i < self.amplitudes.shape[0]:
            return ChiralVector.from_array(self.amplitudes[i])
        return ChiralVector(0.0, 0.0, 0.0)


class CycleState(_Record):
    """Wavefunction on a cycle of ``n_sites`` sites (``n_sites`` odd)."""

    __slots__ = ("n_sites", "amplitudes", "time")

    def __init__(self, n_sites: int, amplitudes: np.ndarray, time: int) -> None:
        n_sites, time = _cycle_size(n_sites), _count(time)
        amplitudes = _frozen_rows(amplitudes, complex)
        if amplitudes.shape[0] != n_sites:
            raise ValueError("amplitude field does not match the cycle size")
        _check_total(float(np.vdot(amplitudes, amplitudes).real), time, "cycle state")
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "time", time)

    def amplitude(self, n: int) -> ChiralVector:
        """Amplitudes at site ``n`` (site indices taken modulo the cycle size)."""
        return ChiralVector.from_array(self.amplitudes[operator.index(n) % self.n_sites])


class Distribution(_Record):
    """Per-site, per-chirality probabilities over consecutive sites.

    Row ``i`` of the read-only (window, 3) array ``probabilities`` holds
    (p_L, p_0, p_R) at site ``first_site + i``; ``totals`` holds the row sums
    p_L + p_0 + p_R, added left to right. A NaN, infinite or negative
    probability, or a row whose sum overflows, raises ``ValueError``.
    """

    __slots__ = ("first_site", "probabilities", "totals")

    def __init__(self, first_site: int, probabilities: np.ndarray) -> None:
        first_site = operator.index(first_site)
        p = _frozen_rows(probabilities, float)
        with np.errstate(over="ignore"):  # an infinite total is refused below
            totals = _totals(p)
        if not (p.min(initial=0.0) >= 0.0 and totals.max(initial=0.0) < math.inf):  # NaN fails too
            raise ValueError("probabilities must be finite and non-negative")
        totals.setflags(write=False)
        object.__setattr__(self, "first_site", first_site)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "totals", totals)

    def __repr__(self) -> str:  # the arrays stay out of it
        return f"{type(self).__qualname__}(first_site={self.first_site!r})"

    def __reduce__(self) -> tuple:  # the totals are computed, not given
        return type(self), (self.first_site, self.probabilities)

    def __len__(self) -> int:
        return self.probabilities.shape[0]

    def sites(self) -> range:
        return range(self.first_site, self.first_site + len(self))

    def total(self, n: int) -> float:
        """Total probability at site ``n``; zero for sites outside the window."""
        i = operator.index(n) - self.first_site
        return float(self.totals[i]) if 0 <= i < len(self) else 0.0


def _totals(p: np.ndarray) -> np.ndarray:
    # Distribution.totals of a (sites, 3) probability table, added left to right.
    return p[:, 0] + p[:, 1] + p[:, 2]


def _own(cls: type, **fields):
    # cls(**fields) without __init__, for values that triwalk has just built and
    # that no caller holds; the caller checks them. Each array is frozen in place
    # where a public constructor would copy it.
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
    # (2, 3, pad + sites + pad) copy of contiguous (sites, 3) amplitudes, zero in
    # the pad: the real part, then the imaginary part. A zero imaginary part
    # steps to +0, as _amplitudes fills it for one row.
    parts = np.zeros((2, 3, len(amplitudes) + 2 * pad))
    parts[:, :, pad : pad + len(amplitudes)] = amplitudes.view(float).reshape(-1, 3, 2).T
    return parts


def _amplitudes(parts: np.ndarray) -> np.ndarray:
    amplitudes = np.empty((parts.shape[2], 3), dtype=complex)
    amplitudes.real = parts[0].T
    amplitudes.imag = parts[1].T if len(parts) == 2 else 0.0
    return amplitudes


def _step(parts: np.ndarray) -> np.ndarray:
    # One step of a ring of parts, landing shifted in an output with a spare end site
    # whose edge movers wrap around: only zeros for a line padded by a site per side.
    n = parts.shape[2]
    out = np.zeros((n + 2, 3), dtype=complex)
    site, item = out.strides
    landing = np.ndarray((len(parts), 3, n), float, out, strides=(item // 2, site + item, site))
    np.matmul(_coin(), parts, out=landing)
    out[n, 0], out[1, 2] = out[0, 0], out[n + 1, 2]
    return out[1:-1]


#: Steps between scans of the live window.
_SCAN = 8

#: Amplitude below which an edge column leaves the live window.
#: The front falls by about a factor 3 (1.6 binades) per step, the outermost
#: left mover by exactly the coin's diagonal -1/3, so from 2^-1000 the cells
#: that grow out of a kept edge stay above the smallest normal float, 2^-1022,
#: for the _SCAN steps between scans. A lower floor keeps more columns and
#: costs time; a higher one moves probabilities: at 2^-900, 31 of the 24001
#: weak-limit masses at t = 12000 moved in their last bits (by at most
#: 8.4e-286), as rounding differences spread inward from the cut.
_FLOOR = 2.0**-1000


def _dead(rows: np.ndarray) -> int:
    # The number of leading columns of a (rows, W) view in which every amplitude
    # lies below _FLOOR, read in bands from that end inward: 2 _SCAN columns, then
    # twice as many each band. A block's live edge sits a few columns in, so the
    # first band finds it whatever the window's width. W if no column is live.
    start, width = 0, 2 * _SCAN
    while start < rows.shape[1]:
        live = np.abs(rows[:, start : start + width]).max(axis=0) >= _FLOOR
        first = int(live.argmax())  # the band's first live column, or 0 if none is live
        if live[first]:
            return start + first
        start, width = start + width, 2 * width
    return rows.shape[1]


def _evolve(vectors: np.ndarray, sites: int, t: int, what: str) -> np.ndarray:
    # t steps, in blocks of _SCAN, of the (states, 3) chirality vectors alone at site 0 of
    # an odd ring: each state's real row, then its imaginary row if any vector is complex,
    # over the ring and an end column per side, site 0 in column cols // 2. Both buffers
    # stay zero outside the live columns [lo, hi). A block steps its k steps over [lo - k,
    # hi + k), leaving a zero column, landing as +0, per side, checks each state's total
    # after each step, in step then state order, and drops the end columns below _FLOOR,
    # each edge found by _dead from its end of the last step's rows; one that would pass
    # the ring's ends steps and wraps the whole ring. Step 0 is the caller's: a
    # QubitState is normalized more tightly than any step's bound.
    layers = (vectors.real, vectors.imag) if vectors.imag.any() else (vectors.real,)
    states, cols = len(vectors), sites + 2
    parts = np.zeros((states * len(layers), 3, cols))
    parts[:, :, cols // 2] = np.concatenate(layers, axis=1).reshape(-1, 3)
    bufs = (parts, np.zeros_like(parts))
    r, c, j = parts.strides
    landings = [np.ndarray((len(b), 3, cols - 2), float, b, strides=(r, c + j, j)) for b in bufs]
    totals = np.empty((_SCAN, 3 * len(parts)))  # row i: each row's squared norm after step i + 1 of a block
    lo, hi = cols // 2, cols // 2 + 1
    for done in range(0, t, _SCAN):
        k = min(_SCAN, t - done)
        ring = lo - k < 1 or hi + k > cols - 1
        lo, hi = (1, cols - 1) if ring else (lo - k, hi + k)
        # By the step's parity: the source, the landing and the rows (a view: they are equally strided).
        block = [b[:, :, lo:hi] for b in bufs]
        steps = [(block[1 - p], landings[p][:, :, lo - 1 : hi - 1], block[p].reshape(-1, hi - lo)) for p in (0, 1)]
        coin = _coin()
        for s in range(done + 1, done + k + 1):
            src, landing, rows = steps[s % 2]
            np.matmul(coin, src, landing)
            if ring:
                dst = bufs[s % 2]
                dst[:, 0, -2], dst[:, 2, 1] = dst[:, 0, 0], dst[:, 2, -1]
            np.vecdot(rows, rows, totals[s - 1 - done])
        for s, state_totals in enumerate(totals[:k].reshape(k, states, -1).sum(axis=2).tolist(), done + 1):
            for total in state_totals:
                _check_total(total, s, what)
        if not ring:  # checked, so some column holds amplitude: both scans stop at it
            live_lo, live_hi = lo + _dead(rows), hi - _dead(rows[:, ::-1])
            for b in bufs:
                b[:, :, lo:live_lo] = b[:, :, live_hi:hi] = 0.0
            lo, hi = live_lo, live_hi
    return bufs[t % 2][:, :, 1:-1]


def step_line(s: LineState) -> LineState:
    """Advance a line state by one step, widening the window by one site per side."""
    amplitudes = _step(_parts(s.amplitudes, pad=1))
    _check_total(float(np.vdot(amplitudes, amplitudes).real), s.time + 1, "line state")
    return _own(LineState, origin_offset=s.origin_offset - 1, amplitudes=amplitudes, time=s.time + 1)


def _line_states(qs: tuple[QubitState, ...], t: int) -> list[LineState]:
    # Each of qs evolved t steps on the line, from one _evolve of all of them. Its rows
    # there are its real row, then its imaginary row if any of qs is complex, so
    # np.split cuts the buffer into equal runs of rows, one per state, in order.
    t = _count(t)
    parts = _evolve(np.array([q.as_array() for q in qs]), 2 * t + 1, t, "line state")
    runs = np.split(parts, len(qs))
    return [_own(LineState, origin_offset=-t, amplitudes=_amplitudes(rows), time=t) for rows in runs]


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
    return _line_states((q,), t)[0]


def step_cycle(s: CycleState) -> CycleState:
    """Advance a cycle state by one step (site indices wrap modulo the size)."""
    amplitudes = _step(_parts(s.amplitudes))
    _check_total(float(np.vdot(amplitudes, amplitudes).real), s.time + 1, "cycle state")
    return _own(CycleState, n_sites=s.n_sites, amplitudes=amplitudes, time=s.time + 1)


def evolve_cycle(q: QubitState, n_sites: int, t: int) -> CycleState:
    """Evolve the walker for ``t`` steps on a cycle of ``n_sites`` sites.

    Until its light cone covers the ring, edge columns below 2^-1000 are
    dropped as on the line, which moves no probability.
    """
    t, n_sites = _count(t), _cycle_size(n_sites)
    h = n_sites // 2  # site 0's row in the stepped ring
    rolled = _amplitudes(_evolve(q.as_array()[None], n_sites, t, "cycle state"))
    amplitudes = np.concatenate((rolled[h:], rolled[:h]))
    return _own(CycleState, n_sites=n_sites, amplitudes=amplitudes, time=t)


def distribution(s: LineState | CycleState) -> Distribution:
    """Per-site probabilities of a state, broken down by chirality."""
    p = np.abs(s.amplitudes)
    p **= 2  # in place, with the bits of np.abs(a) ** 2
    first_site = s.origin_offset if isinstance(s, LineState) else 0
    return _own(Distribution, first_site=first_site, probabilities=p, totals=_totals(p))
