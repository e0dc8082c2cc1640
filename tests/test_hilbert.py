"""Operator algebra, indexing, and coherent-state checks.

Where a value can be derived independently (explicit-loop matrix builds,
closed-form coherent overlaps) the test carries its own oracle instead of
trusting the module under test.
"""
import math

import numpy as np
import pytest

from uscmem import (
    State,
    TruncationError,
    coherent_state,
    fock_annihilation,
)

from reference import (
    annihilation_op, basis_state, coherent_truncation_weight, normalized, number_op, pauli_op,
    product_state, site,
)


# --------------------------------------------------------------------------
# ladder operators
# --------------------------------------------------------------------------

def test_fock_annihilation_elements():
    n_fock = 7
    a = fock_annihilation(n_fock)
    # oracle: a|n> = sqrt(n)|n-1>, built entry by entry
    expected = np.zeros((n_fock, n_fock))
    for n in range(1, n_fock):
        expected[n - 1, n] = math.sqrt(n)
    assert np.array_equal(a, expected)


def test_truncated_commutator_has_corner_defect():
    # On a 4-level truncation, [a, a+] = diag(1, 1, 1, -3): the top level
    # cannot be raised, so the canonical commutator fails only there.
    a = fock_annihilation(4)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(comm, np.diag([1.0, 1.0, 1.0, -3.0]), atol=1e-14)


def test_number_operator_matches_ladder_product():
    n_fock = 6
    a = annihilation_op(n_fock)
    assert np.allclose(a.conj().T @ a, number_op(n_fock), atol=1e-13)


# --------------------------------------------------------------------------
# qubit operators
# --------------------------------------------------------------------------

def test_pauli_algebra():
    n_fock = 3
    sx = pauli_op("x", n_fock)
    sy = pauli_op("y", n_fock)
    sz = pauli_op("z", n_fock)
    eye = np.eye(2 * n_fock)
    assert np.allclose(sx @ sy, 1j * sz, atol=1e-14)
    for s in (sx, sy, sz):
        assert np.allclose(s @ s, eye, atol=1e-14)
    assert np.allclose(sx @ sz + sz @ sx, 0.0, atol=1e-14)


def test_pauli_sign_convention():
    # |g> is qubit index 0 and carries sigma_z eigenvalue -1.
    n_fock = 2
    sz = pauli_op("z", n_fock)
    sx = pauli_op("x", n_fock)
    g0 = basis_state(n_fock, 0, 0).amplitudes
    e0 = basis_state(n_fock, 1, 0).amplitudes
    assert np.allclose(sz @ g0, -g0)
    assert np.allclose(sz @ e0, e0)
    # sigma_x flips the qubit and leaves the photon index alone
    assert np.allclose(sx @ g0, e0)


def test_pauli_commutes_with_number():
    n_fock = 5
    n_op = number_op(n_fock)
    for axis in "xyz":
        s = pauli_op(axis, n_fock)
        assert np.abs(s @ n_op - n_op @ s).max() < 1e-13


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli_op("w", 2)


# --------------------------------------------------------------------------
# states and indexing
# --------------------------------------------------------------------------

def test_state_rejects_unnormalized_amplitudes():
    n_fock = 3
    amps = np.zeros(2 * n_fock, dtype=complex)
    amps[0] = 0.5
    with pytest.raises(ValueError):
        State(amps)
    fixed = normalized(amps)
    assert abs(np.linalg.norm(fixed.amplitudes) - 1.0) < 1e-15
    # a state is one vector, not a stack of them
    with pytest.raises(ValueError, match="1-d"):
        State(np.eye(2) / np.sqrt(2))


def test_overlap_conjugation_order():
    n_fock = 2
    psi = normalized(np.array([1.0, 1j, 0.0, 0.0]))
    phi = basis_state(n_fock, 0, 1)
    # <phi|psi> picks out psi's second amplitude
    assert abs(np.vdot(phi.amplitudes, psi.amplitudes) - 1j / math.sqrt(2)) < 1e-15
    assert abs(np.vdot(psi.amplitudes, phi.amplitudes) - (-1j) / math.sqrt(2)) < 1e-15


def test_product_state_layout():
    n_fock = 3
    qubit = np.array([0.0, 1.0])          # |e>
    fock = np.array([0.0, 0.0, 1.0])      # |2>
    psi = product_state(qubit, fock)
    expected = np.zeros(6)
    expected[site(n_fock, 1, 2)] = 1.0
    assert np.allclose(psi.amplitudes, expected)


# --------------------------------------------------------------------------
# coherent states
# --------------------------------------------------------------------------

def test_coherent_vacuum_amplitude():
    alpha = 0.9
    amps = coherent_state(alpha, 30)
    # c_0 = exp(-|alpha|^2 / 2) in the untruncated state
    assert abs(amps[0] - math.exp(-(alpha ** 2) / 2)) < 1e-10
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-14
    # at alpha = 1 that amplitude is e^{-1/2}
    assert abs(coherent_state(1.0, 20)[0] - 0.60653066) < 1e-7


def test_coherent_mean_photon_number():
    amps = coherent_state(1.0, 30)
    assert abs(float(np.sum(np.arange(30) * np.abs(amps) ** 2)) - 1.0) < 1e-8
    rng = np.random.default_rng(3)
    n = np.arange(40)
    for _ in range(6):
        alpha = rng.uniform(0.1, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        amps = coherent_state(alpha, 40)
        mean_n = float(np.sum(n * np.abs(amps) ** 2))
        assert abs(mean_n - abs(alpha) ** 2) < 1e-8


def test_opposite_coherent_overlap():
    # <alpha|-alpha> = exp(-2 |alpha|^2)
    for alpha in (0.5, 0.8, 1.2):
        plus = coherent_state(alpha, 40)
        minus = coherent_state(-alpha, 40)
        got = np.vdot(plus, minus)
        assert abs(got - math.exp(-2 * alpha ** 2)) < 1e-7


def test_coherent_zero_is_vacuum():
    amps = coherent_state(0.0, 8)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.array_equal(amps, expected)


def test_coherent_truncation_guards():
    # |alpha|^2 > n_fock / 4 is rejected outright
    with pytest.raises(TruncationError, match="n_fock/4"):
        coherent_state(2.0, 8)
    # within the quarter rule but with too much discarded weight
    assert coherent_truncation_weight(1.4, 8) > 1e-8
    with pytest.raises(TruncationError, match="discarded"):
        coherent_state(1.4, 8)
    # a comfortable truncation passes
    coherent_state(1.0, 30)


def test_coherent_terms_match_the_closed_form():
    # <n|alpha> = exp(-|alpha|^2 / 2) alpha^n / sqrt(n!), with n! exact
    for alpha in (0.3, -0.8, 1.2, -1.5, 0.5j, 0.9 * np.exp(0.7j)):
        amps = coherent_state(alpha, 40)
        exact = [math.exp(-abs(alpha) ** 2 / 2) * complex(alpha) ** n
                 / math.sqrt(math.factorial(n)) for n in range(40)]
        assert np.abs(amps - exact).max() < 1e-15


def test_large_coherent_state_does_not_underflow():
    # exp(-|alpha|^2 / 2) underflows to 0 above |alpha|^2 ~ 1490, which a
    # running product from that factor turned into a discarded weight of 1
    alpha, n_fock = 39.0, 8000
    assert coherent_truncation_weight(alpha, n_fock) < 1e-8
    amps = coherent_state(alpha, n_fock)
    n = np.arange(n_fock)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-14
    assert abs(float(np.sum(n * np.abs(amps) ** 2)) / alpha ** 2 - 1.0) < 1e-10
    for k in (500, 1000, 1521, 2000, 3000):
        log_exact = -alpha ** 2 / 2 + k * math.log(alpha) - math.lgamma(k + 1) / 2
        assert abs(amps[k] / math.exp(log_exact) - 1.0) < 1e-11, k


def test_truncation_weight_poisson_oracle():
    # independent route: sum the Poisson tail directly
    alpha, n_fock = 1.1, 12
    lam = alpha ** 2
    tail = sum(
        math.exp(-lam) * lam ** n / math.factorial(n) for n in range(n_fock, 80)
    )
    assert abs(coherent_truncation_weight(alpha, n_fock) - tail) < 1e-12
