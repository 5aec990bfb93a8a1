"""Ladder-operator algebra on the sparse occupation-number basis."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab.fock_algebra import (
    FockVector,
    ModeSet,
    apply_annihilate,
    apply_create,
    commutator_expectation,
    inner_product,
    n_photon_state,
    vacuum,
)

MODES = ModeSet(3, n_max=14)


def number_expectation(v: FockVector, m: int) -> float:
    """<v|a_m^dagger a_m|v> for a plain-normalized state."""
    v.modes.check_mode(m)
    return float(sum(occ[m] * abs(amp) ** 2 for occ, amp in v.amplitudes.items()))


def random_state(seed: int, ms: ModeSet = MODES, terms: int = 6) -> FockVector:
    """Normalized random superposition of low-occupation basis states."""
    rng = np.random.default_rng(seed)
    amplitudes = {}
    for _ in range(terms):
        occ = tuple(int(n) for n in rng.integers(0, 5, size=ms.mode_count))
        amplitudes[occ] = complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
    return FockVector(ms, {occ: a / norm for occ, a in amplitudes.items()})


# ---------------------------------------------------------------------------
# Ladder identities


def test_number_operator_on_fock_states():
    for n in range(11):
        state = n_photon_state(MODES, 1, n)
        assert abs(number_expectation(state, 1) - n) < 1e-12
        lowered = apply_annihilate(state, 1)
        assert abs(inner_product(lowered, lowered) - n) < 1e-12


def test_reversed_order_gains_one():
    for n in range(11):
        state = n_photon_state(MODES, 0, n)
        raised = apply_create(state, 0)
        assert abs(inner_product(raised, raised) - (n + 1)) < 1e-12


def test_commutator_is_unity_on_fock_states():
    for n in range(11):
        state = n_photon_state(MODES, 2, n)
        assert abs(commutator_expectation(state, 2) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_commutator_is_state_independent(seed, mode):
    state = random_state(seed)
    assert abs(commutator_expectation(state, mode) - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_create_annihilate_adjointness(seed, mode):
    """<u| a v> equals <a^dagger u | v> for generic states."""
    u, v = random_state(seed), random_state(seed + 1)
    lhs = inner_product(u, apply_annihilate(v, mode))
    rhs = inner_product(apply_create(u, mode), v)
    assert abs(lhs - rhs) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_number_expectation_is_nonnegative(seed, mode):
    assert number_expectation(random_state(seed), mode) >= 0.0


def test_vacuum_annihilates_and_normalizes():
    v = vacuum(MODES)
    assert abs(inner_product(v, v) - 1.0) == 0.0
    dead = apply_annihilate(v, 0)
    assert inner_product(dead, dead) == 0.0


def test_truncation_overflow_is_loud():
    small = ModeSet(1, n_max=3)
    state = n_photon_state(small, 0, 3)
    with pytest.raises(OverflowError, match="truncation overflow"):
        apply_create(state, 0)


def test_mode_set_mismatch_rejected():
    other = ModeSet(2, n_max=14)
    with pytest.raises(ValueError, match="mode set"):
        inner_product(vacuum(MODES), vacuum(other))


# ---------------------------------------------------------------------------
# Negative-metric (gauge-sector) modes


def test_negative_metric_mode_flips_single_photon_norm():
    ms = ModeSet(2, metric_sign=(1, -1), n_max=6)
    good = n_photon_state(ms, 0, 1)
    ghost = n_photon_state(ms, 1, 1)
    assert abs(inner_product(good, good) - 1.0) < 1e-12
    assert abs(inner_product(ghost, ghost) + 1.0) < 1e-12


def test_commutator_carries_the_metric_sign():
    ms = ModeSet(2, metric_sign=(1, -1), n_max=6)
    state = vacuum(ms)
    assert abs(commutator_expectation(state, 0) - 1.0) < 1e-12
    assert abs(commutator_expectation(state, 1) + 1.0) < 1e-12


def _combine(u, v, sign):
    """u + sign * v."""
    out = dict(u.amplitudes)
    for occ, amp in v.amplitudes.items():
        out[occ] = out.get(occ, 0.0) + sign * amp
    return FockVector(u.modes, out)


def test_subsidiary_condition_is_a_longitudinal_plus_scalar():
    """The sign convention of the module docstring, on (a_L^+ - a_S^+) a_T^+ |0>."""
    ms = ModeSet(3, metric_sign=(1, 1, -1))
    transverse, longitudinal, scalar = range(3)
    one = apply_create(vacuum(ms), transverse)
    psi = _combine(apply_create(one, longitudinal), apply_create(one, scalar), -1)
    assert inner_product(psi, psi) == 0
    lowered = {m: apply_annihilate(psi, m) for m in (longitudinal, scalar)}
    numbers = [ms.metric_sign[m] * inner_product(lowered[m], lowered[m]) for m in lowered]
    assert numbers == [1, -1]
    assert _combine(lowered[longitudinal], lowered[scalar], +1).amplitudes == {}
    assert _combine(lowered[longitudinal], lowered[scalar], -1).amplitudes == {(1, 0, 0): 2}


@settings(max_examples=25, deadline=None)
@given(st.floats(0.01, 0.5), st.sampled_from((-1.0, 1.0)))
def test_amplitude_mismatch_leaves_a_residual(mismatch, sign):
    """A scalar amplitude r != 1 in (a_L^+ - r a_S^+) a_T^+ |0> breaks all three cancellations."""
    ms = ModeSet(3, metric_sign=(1, 1, -1))
    transverse, longitudinal, scalar = range(3)
    r = 1.0 + sign * mismatch
    one = apply_create(vacuum(ms), transverse)
    psi = _combine(apply_create(one, longitudinal), apply_create(one, scalar), -r)
    lowered = {m: apply_annihilate(psi, m) for m in (longitudinal, scalar)}
    numbers = sum(ms.metric_sign[m] * inner_product(v, v) for m, v in lowered.items())
    assert numbers == pytest.approx(1.0 - r**2, rel=1e-12)
    assert inner_product(psi, psi) == pytest.approx(1.0 - r**2, rel=1e-12)
    remainder = _combine(lowered[longitudinal], lowered[scalar], +1)
    assert remainder.amplitudes == {(1, 0, 0): pytest.approx(1.0 - r, rel=1e-12)}
