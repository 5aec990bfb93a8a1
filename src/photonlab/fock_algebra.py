"""Exact ladder-operator algebra on sparse occupation-number states.

States are dictionaries mapping occupation tuples to complex amplitudes, so
everything stays exact up to floating point in the sqrt(n) ladder factors.
Indefinite-metric (scalar-mode) bookkeeping is confined to the inner product
and to commutator_expectation; the ladder amplitude factors themselves are
always the standard sqrt(n) ones.  With that convention the subsidiary
condition on a physical state reads (a_L + a_S)|psi> = 0 for a longitudinal
mode L (metric +1) and a scalar mode S (metric -1), not a_L - a_S: the state
(a_L^dagger - a_S^dagger) a_T^dagger |0> satisfies it, has metric norm 0, and
its longitudinal and scalar numbers metric_sign[m] <a_m psi|a_m psi> are +1
and -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Occupation = tuple[int, ...]


@dataclass(frozen=True)
class ModeSet:
    """A finite set of discrete modes with per-mode metric signs.

    metric_sign[m] = -1 marks a negative-metric (scalar gauge) mode; the
    default is +1 everywhere.  n_max bounds every occupation number.
    """

    mode_count: int
    metric_sign: tuple[int, ...] = None
    n_max: int = 12

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        signs = self.metric_sign
        if signs is None:
            signs = (1,) * self.mode_count
        signs = tuple(int(s) for s in signs)
        if len(signs) != self.mode_count:
            raise ValueError("metric_sign length must equal mode_count")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("metric signs must be +1 or -1")
        object.__setattr__(self, "metric_sign", signs)

    def check_mode(self, m):
        if not (0 <= m < self.mode_count):
            raise ValueError(f"mode index {m} out of range 0..{self.mode_count - 1}")


@dataclass
class FockVector:
    """Sparse superposition of occupation-number basis states."""

    modes: ModeSet
    amplitudes: dict[Occupation, complex] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for occ, amp in self.amplitudes.items():
            occ = tuple(int(n) for n in occ)
            if len(occ) != self.modes.mode_count:
                raise ValueError(f"occupation {occ!r} has wrong length")
            if any(n < 0 or n > self.modes.n_max for n in occ):
                raise ValueError(f"occupation {occ!r} outside 0..n_max")
            amp = complex(amp)
            if amp != 0:
                clean[occ] = clean.get(occ, 0.0 + 0.0j) + amp
        self.amplitudes = clean

    def plain_norm_sq(self) -> float:
        """Sum |amp|^2 without metric weights."""
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))


def vacuum(ms: ModeSet) -> FockVector:
    return FockVector(ms, {(0,) * ms.mode_count: 1.0 + 0.0j})


def apply_create(v: FockVector, m: int) -> FockVector:
    """a_m^dagger with the standard sqrt(n+1) factor."""
    v.modes.check_mode(m)
    out: dict[Occupation, complex] = {}
    for occ, amp in v.amplitudes.items():
        n = occ[m]
        if n + 1 > v.modes.n_max:
            raise OverflowError(
                f"truncation overflow: occupation {n + 1} exceeds n_max={v.modes.n_max}"
            )
        new = occ[:m] + (n + 1,) + occ[m + 1 :]
        out[new] = out.get(new, 0.0 + 0.0j) + math.sqrt(n + 1) * amp
    return FockVector(v.modes, out)


def apply_annihilate(v: FockVector, m: int) -> FockVector:
    """a_m with the standard sqrt(n) factor; annihilates the vacuum."""
    v.modes.check_mode(m)
    out: dict[Occupation, complex] = {}
    for occ, amp in v.amplitudes.items():
        n = occ[m]
        if n == 0:
            continue
        new = occ[:m] + (n - 1,) + occ[m + 1 :]
        out[new] = out.get(new, 0.0 + 0.0j) + math.sqrt(n) * amp
    return FockVector(v.modes, out)


def n_photon_state(ms: ModeSet, m: int, n: int) -> FockVector:
    """|n> = (a^dagger)^n / sqrt(n!) |0> in mode m."""
    ms.check_mode(m)
    if n < 0 or n > ms.n_max:
        raise ValueError(f"photon number {n} outside 0..n_max")
    v = vacuum(ms)
    for _ in range(n):
        v = apply_create(v, m)
    scale = 1.0 / math.sqrt(math.factorial(n))
    return FockVector(ms, {occ: amp * scale for occ, amp in v.amplitudes.items()})


def _metric_weight(ms: ModeSet, occ: Occupation) -> int:
    w = 1
    for s, n in zip(ms.metric_sign, occ):
        if s < 0 and (n % 2):
            w = -w
    return w


def inner_product(u: FockVector, v: FockVector) -> complex:
    """<u|v> with metric weights prod_m sign_m^{n_m} (conjugate-linear in u)."""
    if u.modes != v.modes:
        raise ValueError("mode set mismatch")
    total = 0.0 + 0.0j
    small, large = (u, v) if len(u.amplitudes) <= len(v.amplitudes) else (v, u)
    for occ, amp in small.amplitudes.items():
        other = large.amplitudes.get(occ)
        if other is None:
            continue
        ua = u.amplitudes[occ]
        va = v.amplitudes[occ]
        total += _metric_weight(u.modes, occ) * np.conj(ua) * va
    return complex(total)


def number_expectation(v: FockVector, m: int) -> float:
    """<v|a_m^dagger a_m|v> for a plain-normalized state."""
    v.modes.check_mode(m)
    return float(sum(occ[m] * abs(amp) ** 2 for occ, amp in v.amplitudes.items()))


def commutator_expectation(v: FockVector, m: int) -> complex:
    """<v|[a_m, a_m^dagger]|v> = metric_sign[m], independent of the state.

    Evaluated honestly through the ladder operators; the metric sign
    multiplies the contraction (that is the only place it touches the
    algebra).  Requires sum |amp|^2 = 1.
    """
    v.modes.check_mode(m)
    if abs(v.plain_norm_sq() - 1.0) > 1e-10:
        raise ValueError("state must be normalized (sum |amp|^2 = 1)")
    aad = apply_annihilate(apply_create(v, m), m)
    ada = apply_create(apply_annihilate(v, m), m)
    plain = 0.0 + 0.0j
    for occ, amp in v.amplitudes.items():
        plain += np.conj(amp) * (aad.amplitudes.get(occ, 0.0) - ada.amplitudes.get(occ, 0.0))
    return complex(v.modes.metric_sign[m] * plain)

