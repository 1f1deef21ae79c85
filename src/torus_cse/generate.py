"""Synthetic grid sources: iid draws and a causal two-direction chain."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import MAX_ALPHABET, Census
from .errors import BadSpecError

_TOL = 1e-9


@dataclass(frozen=True)
class SourceSpec:
    """One reproducible synthetic source."""

    kind: str  # "iid" or "markov2d"
    m: int
    n: int
    seed: int
    probs: Optional[tuple[float, ...]] = None
    horizontal: Optional[tuple[tuple[float, ...], ...]] = None
    vertical: Optional[tuple[tuple[float, ...], ...]] = None
    weight: float = 0.5


def _check_distribution(probs, what: str) -> None:
    if not 2 <= len(probs) <= MAX_ALPHABET:
        raise BadSpecError(f"{what} needs 2 to {MAX_ALPHABET} symbols")
    if not all(q >= 0 for q in probs):  # NaN fails this test too
        raise BadSpecError(f"{what} has a negative or NaN probability")
    if abs(sum(probs) - 1.0) > _TOL:
        raise BadSpecError(f"{what} sums to {sum(probs)}, not 1")


def alphabet_of(spec: SourceSpec) -> int:
    """Validate the spec; the alphabet size falls out of the parameters."""
    if spec.m < 1 or spec.n < 1:
        raise BadSpecError(f"unusable size {spec.m}x{spec.n}")
    if spec.seed < 0:
        raise BadSpecError(f"seed {spec.seed} is negative")
    if spec.kind == "iid":
        if spec.probs is None:
            raise BadSpecError("iid sources need a symbol distribution")
        _check_distribution(spec.probs, "symbol distribution")
        return len(spec.probs)
    if spec.kind == "markov2d":
        if spec.horizontal is None or spec.vertical is None:
            raise BadSpecError("markov2d needs horizontal and vertical rows")
        if not 0.0 <= spec.weight <= 1.0:
            raise BadSpecError(f"mixing weight {spec.weight} outside [0, 1]")
        j = len(spec.horizontal)
        if len(spec.vertical) != j:
            raise BadSpecError("horizontal and vertical alphabets disagree")
        if j < 2:
            raise BadSpecError("markov2d needs at least two symbols")
        for rows, name in ((spec.horizontal, "horizontal"),
                           (spec.vertical, "vertical")):
            for row in rows:
                if len(row) != j:
                    raise BadSpecError(f"{name} transition rows must be {j} wide")
                _check_distribution(row, f"{name} transition row")
        return j
    raise BadSpecError(f"unknown source kind {spec.kind!r}")


def generate(spec: SourceSpec) -> np.ndarray:
    """Seeded grid for the spec; same spec, same grid."""
    alphabet = alphabet_of(spec)
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "iid":
        return rng.choice(alphabet, size=(spec.m, spec.n), p=spec.probs)
    h = np.asarray(spec.horizontal, dtype=np.float64)
    v = np.asarray(spec.vertical, dtype=np.float64)
    h /= h.sum(axis=1, keepdims=True)
    v /= v.sum(axis=1, keepdims=True)
    w = spec.weight
    g = np.zeros((spec.m, spec.n), dtype=np.int64)
    g[0, 0] = rng.integers(alphabet)
    for j in range(1, spec.n):
        g[0, j] = rng.choice(alphabet, p=h[g[0, j - 1]])
    for i in range(1, spec.m):
        g[i, 0] = rng.choice(alphabet, p=v[g[i - 1, 0]])
        for j in range(1, spec.n):
            p = w * h[g[i, j - 1]] + (1 - w) * v[g[i - 1, j]]
            g[i, j] = rng.choice(alphabet, p=p)
    return g


def entropy_bits(spec: SourceSpec, grid: np.ndarray) -> tuple[float, str]:
    """Per-cell entropy: analytical for iid, a 2x2 block estimate on the
    spec's `grid` otherwise.  A zero entropy is +0.0: each sum is taken
    from 0.0, as negating a zero sum would give -0.0."""
    alphabet_of(spec)
    if spec.kind == "iid":
        h = 0.0 - sum(q * math.log2(q) for q in spec.probs if q > 0)
        return h, "analytical"
    freq = Census(grid).counts(2, 2) / grid.size
    h2 = 0.0 - (freq * np.log2(freq)).sum()
    return float(h2 / 4.0), "estimated"
