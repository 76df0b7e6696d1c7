"""The four benchmark workloads: CLI argv, reference values, output checks.

Each workload builds its argv from the workload qubit, computes reference
values once per run, and checks one invocation's outputs. A check returns a
list of problems; an empty list means the invocation is correct. References
use a route independent of the code they check where that is cheap: a
plain NumPy stepper written here, NumPy eigendecompositions of the 3x3
momentum blocks, ``spectral.wavefunction`` quadrature, and closed forms.

Outputs of one invocation live in a run directory: the CLI's stdout in
``stdout.txt`` and every file it writes under ``out/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

OUT = "out"

#: Absolute tolerance of a value checked against an independent reference.
TOL = 1e-9

#: Kolmogorov distance printed by ``weaklimit --steps 2000`` at the seed commit.
REFERENCE_DISTANCE = {2000: 0.083383127326140505}


def qubit_text(seed: int) -> str:
    """A normalized complex qubit drawn from ``seed``, in CLI syntax."""
    rng = random.Random(seed)
    z = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(3)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in z))
    return ",".join(f"{c.real / norm:.17g}{c.imag / norm:+.17g}i" for c in z)


def parse_qubit(text: str) -> np.ndarray:
    return np.array([complex(p.replace("i", "j")) for p in text.split(",")])


def reference_walk(psi0: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Direct evolution on the line, written independently of ``triwalk.walk``.

    The coin is (2/3) J - I, so the coined component i at a site is two
    thirds of the site's component sum minus its own amplitude. Component 0
    then moves one site left and component 2 one site right. Returns the
    (2 steps + 1, 3) amplitudes over sites -steps..steps and the origin
    probability after each step 0..steps.
    """
    a = np.zeros((2 * steps + 1, 3), dtype=complex)
    a[steps] = psi0
    origin = [float(np.sum(np.abs(a[steps]) ** 2))]
    for _ in range(steps):
        coined = (2.0 / 3.0) * a.sum(axis=1, keepdims=True) - a
        a = np.zeros_like(coined)
        a[:-1, 0] = coined[1:, 0]
        a[:, 1] = coined[:, 1]
        a[1:, 2] = coined[:-1, 2]
        origin.append(float(np.sum(np.abs(a[steps]) ** 2)))
    return a, np.array(origin)


def limit_cdf(x: np.ndarray) -> np.ndarray:
    """Closed-form CDF of the weak limit: jump of 1/3 at 0 plus arctan part."""
    edge = 1.0 / math.sqrt(3.0)
    inside = np.abs(x) < edge
    xs = np.where(inside, x, 0.0)
    smooth = 1.0 / 3.0 + (2.0 / (3.0 * math.pi)) * np.arctan(
        math.sqrt(2.0) * xs / np.sqrt(1.0 - 3.0 * xs * xs)
    )
    value = np.where(inside, smooth, np.where(x < 0.0, 0.0, 2.0 / 3.0))
    return value + np.where(x >= 0.0, 1.0 / 3.0, 0.0)


def cycle_average(psi0: np.ndarray, n_sites: int) -> float:
    """Cesaro average of the origin probability on an odd cycle.

    Eigendecomposes each 3x3 momentum block diag(e^{ik}, 1, e^{-ik}) C with
    NumPy and sums coherently within each eigenvalue: all stationary
    branches (eigenvalue 1), the two mode-0 branches at -1, and each moving
    branch of mode m with the same branch of mode -m.
    """
    half = (n_sites - 1) // 2
    modes = np.arange(-half, half + 1)
    k = 2.0 * math.pi * modes / n_sites
    coin = np.full((3, 3), 2.0 / 3.0) - np.eye(3)
    blocks = np.exp(1j * np.outer(k, [1.0, 0.0, -1.0]))[:, :, None] * coin
    values, vectors = np.linalg.eig(blocks)
    vectors = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    projected = vectors * np.einsum("mij,i->mj", vectors.conj(), psi0)[:, None, :]
    rows = np.arange(len(modes))
    stationary = np.argmin(np.abs(values - 1.0), axis=1)
    plus = np.argmax(values.imag, axis=1)
    minus = np.argmin(values.imag, axis=1)
    groups = [projected[rows, :, stationary].sum(axis=0)]
    groups.append(psi0 - projected[half, :, stationary[half]])
    for branch in (plus, minus):
        moving = projected[rows, :, branch]
        groups.extend(moving[half + 1 :] + moving[half - 1 :: -1])
    return float(sum(np.sum(np.abs(g / n_sites) ** 2) for g in groups))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(run_dir: Path) -> dict[str, str]:
    """SHA-256 of stdout and of every file the invocation wrote."""
    files = [run_dir / "stdout.txt", *sorted((run_dir / OUT).glob("*"))]
    return {f.relative_to(run_dir).as_posix(): sha256(f) for f in files if f.is_file()}


def bytes_written(run_dir: Path) -> int:
    return sum(f.stat().st_size for f in (run_dir / OUT).glob("*") if f.is_file())


def _manifest_problems(run_dir: Path, names: set[str]) -> list[str]:
    out = run_dir / OUT
    try:
        outputs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable manifest: {exc}"]
    problems = []
    if set(outputs) != names:
        problems.append(f"manifest lists {sorted(outputs)}, expected {sorted(names)}")
    for name, digest in outputs.items():
        path = out / name
        if not path.is_file() or sha256(path) != digest:
            problems.append(f"manifest checksum of {name} does not match the file")
    return problems


def _read_csv(path: Path, header: str) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]], ndmin=2)


def _gap(name: str, got: np.ndarray, want: np.ndarray, tol: float = TOL) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [f"{name}: off by {worst:.3e} (tolerance {tol:.0e})"] if not worst <= tol else []


def _last_number(line: str) -> float:
    return float(line.rsplit(maxsplit=1)[-1])


class Evolve:
    name = "evolve"
    files = {"distribution.csv", "trace.csv", "trace.svg", "heat.svg"}
    spot_sites = (-500, -123, -1, 0, 1, 250, 500)
    spot_times = (1, 2, 77, 250, 499)

    def __init__(self, steps: int = 500) -> None:
        self.steps = steps

    def argv(self, qubit: str) -> list[str]:
        return ["evolve", f"--qubit={qubit}", "--steps", str(self.steps), "--out", OUT,
                "--svg", f"{OUT}/trace.svg", "--heatmap", f"{OUT}/heat.svg"]

    def reference(self, qubit: str) -> dict:
        from triwalk import spectral
        from triwalk.walk import QubitState

        psi0 = parse_qubit(qubit)
        q = QubitState(*psi0)
        t = self.steps
        amplitudes, origin = reference_walk(psi0, t)

        def prob(n: int, time: int) -> float:
            return spectral.wavefunction(n, time, q).probability()

        sites = [n for n in self.spot_sites if abs(n) <= t]
        times = [s for s in self.spot_times if s <= t]
        return {
            "components": np.abs(amplitudes) ** 2,
            "origin": origin,
            "spot_sites": sites,
            "spot_site_p": [prob(n, t) for n in sites],
            "spot_times": times,
            "spot_time_p": [prob(0, s) for s in times],
        }

    def check(self, run_dir: Path, code: int, ref: dict) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        problems = _manifest_problems(run_dir, self.files)
        t = self.steps
        try:
            dist = _read_csv(run_dir / OUT / "distribution.csv", "n,p_total,p_L,p_0,p_R")
            trace = _read_csv(run_dir / OUT / "trace.csv", "t,p0")
            final = _last_number((run_dir / "stdout.txt").read_text().splitlines()[0])
        except (OSError, ValueError, IndexError) as exc:
            return problems + [f"unreadable output: {exc}"]
        problems += _gap("distribution n", dist[:, 0], np.arange(-t, t + 1), 0.0)
        if problems:
            return problems
        problems += _gap("distribution sum", dist[:, 1].sum(), 1.0)
        problems += _gap("p_total vs components", dist[:, 1], dist[:, 2:].sum(axis=1), 1e-12)
        problems += _gap("p_L, p_0, p_R vs reference walk", dist[:, 2:], ref["components"])
        at = [n + t for n in ref["spot_sites"]]
        problems += _gap("p_total vs wavefunction", dist[at, 1], ref["spot_site_p"])
        problems += _gap("trace t", trace[:, 0], np.arange(t + 1), 0.0)
        if not problems:
            problems += _gap("trace vs reference walk", trace[:, 1], ref["origin"])
            problems += _gap("trace vs wavefunction", trace[ref["spot_times"], 1], ref["spot_time_p"])
            problems += _gap("trace end vs distribution", trace[-1, 1], dist[t, 1], 0.0)
            problems += _gap("printed final P(0)", final, trace[-1, 1], 0.0)
        return problems


class Weaklimit:
    name = "weaklimit"
    files = {"weaklimit.csv", "cdf.svg"}

    def __init__(self, steps: int = 2000) -> None:
        self.steps = steps

    def argv(self, qubit: str) -> list[str]:
        return ["weaklimit", "--steps", str(self.steps), "--out", OUT, "--svg", f"{OUT}/cdf.svg"]

    def reference(self, qubit: str) -> dict:
        t = self.steps
        mixture = sum(
            np.sum(np.abs(reference_walk(psi0, t)[0]) ** 2, axis=1) for psi0 in np.eye(3)
        ) / 3.0
        x = np.arange(-t, t + 1, dtype=float) / t
        return {"x": x, "cdf": np.cumsum(mixture), "limit": limit_cdf(x)}

    def check(self, run_dir: Path, code: int, ref: dict) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        problems = _manifest_problems(run_dir, self.files)
        try:
            rows = _read_csv(run_dir / OUT / "weaklimit.csv", "x,cdf_empirical,cdf_limit")
            printed = _last_number((run_dir / "stdout.txt").read_text().splitlines()[0])
        except (OSError, ValueError, IndexError) as exc:
            return problems + [f"unreadable output: {exc}"]
        problems += _gap("x", rows[:, 0], ref["x"], 0.0)
        if problems:
            return problems
        x, cdf, limit = rows.T
        if np.any(np.diff(cdf) < 0.0):
            problems.append("cdf_empirical decreases")
        problems += _gap("cdf_empirical end", cdf[-1], 1.0, 1e-12)
        problems += _gap("cdf_empirical vs reference walk", cdf, ref["cdf"])
        problems += _gap("cdf_limit vs closed form", limit, ref["limit"], 1e-12)
        # Kolmogorov distance from the CSV alone: each atom seen from the
        # right and from the left, plus the two sides of the jump at 0.
        left = np.concatenate([[0.0], cdf[:-1]])
        zero = self.steps
        distance = max(
            float(np.max(np.abs(cdf - ref["limit"]))),
            float(np.max(np.abs(left - (ref["limit"] - np.where(x == 0.0, 1.0 / 3.0, 0.0))))),
            abs(cdf[zero - 1] - 1.0 / 3.0),
            abs(cdf[zero] - 2.0 / 3.0),
        )
        problems += _gap("printed distance vs CSV", printed, distance, 1e-12)
        if self.steps in REFERENCE_DISTANCE:
            problems += _gap("printed distance vs stored", printed, REFERENCE_DISTANCE[self.steps], 1e-12)
        return problems


class Timeavg:
    name = "timeavg"
    files = {"timeavg.csv"}

    def __init__(self, sites: int = 4001) -> None:
        self.sites = sites

    def argv(self, qubit: str) -> list[str]:
        return ["timeavg", f"--qubit={qubit}", "--sites", str(self.sites), "--out", OUT]

    def reference(self, qubit: str) -> dict:
        from triwalk import stationary
        from triwalk.walk import QubitState

        psi0 = parse_qubit(qubit)
        return {
            "cycle": cycle_average(psi0, self.sites),
            # The infinite-cycle average at the origin equals the localized
            # limit probability there, which has its own closed form.
            "limit": stationary.limit_probability(0, QubitState(*psi0)),
        }

    def check(self, run_dir: Path, code: int, ref: dict) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        problems = _manifest_problems(run_dir, self.files)
        try:
            rows = _read_csv(run_dir / OUT / "timeavg.csv", "n_sites,site,cycle_average,limit_average")
            lines = (run_dir / "stdout.txt").read_text().splitlines()
            printed = [_last_number(line) for line in lines[:2]]
        except (OSError, ValueError, IndexError) as exc:
            return problems + [f"unreadable output: {exc}"]
        problems += _gap("timeavg row", rows[:, :2], [[self.sites, 0]], 0.0)
        if problems:
            return problems
        problems += _gap("cycle_average vs eigendecomposition", rows[0, 2], ref["cycle"])
        problems += _gap("limit_average vs stationary closed form", rows[0, 3], ref["limit"])
        problems += _gap("printed values vs CSV", printed, rows[0, 2:], 0.0)
        return problems


class Verify:
    name = "verify"

    def argv(self, qubit: str) -> list[str]:
        return ["verify", "--suite", "all"]

    def reference(self, qubit: str) -> None:
        return None

    def check(self, run_dir: Path, code: int, ref: None) -> list[str]:
        lines = (run_dir / "stdout.txt").read_text(encoding="utf-8").splitlines()
        problems = [] if code == 0 else [f"exit code {code}"]
        if len(lines) < 2 or lines[-1] != "all checks passed":
            problems.append("last line is not 'all checks passed'")
        problems += [f"not a pass: {line}" for line in lines[:-1] if not line.startswith("PASS ")]
        return problems


WORKLOADS = {w.name: w for w in (Evolve(), Weaklimit(), Timeavg(), Verify())}
