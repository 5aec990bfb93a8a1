"""Full acceptance suite: one test per headline guarantee.

Every check in :mod:`photonlab.registry` runs once per session, in
the shared ``photonlab selftest`` run (the ``selftest_run`` fixture).  Each
test here finds its check's single PASS/FAIL line in that run's output,
prints it (visible with ``pytest -s`` and in failure reports) and asserts
that it is a PASS, i.e. that every metric landed inside its threshold.  A
regression thus names the broken physics directly in its test id.
"""

from __future__ import annotations

import pytest

from photonlab import registry


def _check(selftest_run, name: str) -> None:
    out = selftest_run[1]
    lines = [line for line in out.splitlines()
             if line.startswith((f"PASS {name}:", f"FAIL {name}:"))]
    assert len(lines) == 1, f"{name}: expected one selftest line, got {lines}"
    print(lines[0])
    assert lines[0].startswith(f"PASS {name}:"), lines[0]


def test_01_ladder_operator_identities(selftest_run):
    """Number, reversed-product and commutator expectations on a Fock ladder."""
    _check(selftest_run, "fock-identities")


def test_02_number_density_norm_is_conserved(selftest_run):
    """Unit photon number, preserved across ten spectral evolution steps."""
    _check(selftest_run, "number-norm")


def test_03_current_integral_matches_mode_sum(selftest_run):
    """Volume-integrated number current equals its mode-space oracle."""
    _check(selftest_run, "current-integral")


def test_04_energy_and_momentum_integrals_match_mode_sums(selftest_run):
    """Volume-integrated energy and momentum equal their mode-space oracles."""
    _check(selftest_run, "energy-momentum")


def test_05_continuity_residual_and_convergence_order(selftest_run):
    """d(rho)/dt + div J is small and shrinks quadratically with the step."""
    _check(selftest_run, "continuity")


def test_06_helicity_and_spin_expectations(selftest_run):
    """Pure circular packets carry unit helicity and matching spin integral."""
    _check(selftest_run, "helicity-spin")


def test_07_packet_transport_at_light_speed(selftest_run):
    """Centroid speed within 1% of c plus an exact 1-D translation residual."""
    _check(selftest_run, "transport")


def test_08_half_power_frequency_operator_identity(selftest_run):
    """Energy-normalized and number-normalized wave fields are related by
    the square root of the frequency operator."""
    _check(selftest_run, "omega-identity")


def test_09_longitudinal_scalar_cancellation(selftest_run):
    """Matched longitudinal and scalar amplitudes cancel exactly; a 10%
    mismatch leaves a strictly positive residual."""
    _check(selftest_run, "longitudinal-cancellation")


def test_10_retarded_potential_solver(selftest_run):
    """Coulomb limit, gauge residual with refinement gain, and bit-exact
    causality of the retarded integrator."""
    _check(selftest_run, "retarded-solver")


def test_11_localization_widths_are_box_independent(selftest_run):
    """Density widths for a broadband packet agree across two box sizes."""
    _check(selftest_run, "localization")


@pytest.mark.parametrize("name", [name for name, _ in registry.CONTROL_CHECKS])
def test_negative_controls_detect_seeded_faults(selftest_run, name):
    """Deliberately corrupted conventions must trip their detectors."""
    _check(selftest_run, name)
