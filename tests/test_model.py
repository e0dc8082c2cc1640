"""Hamiltonian construction, symmetry, and coupling schedules.

Frozen eigenvalues below were derived with an independent explicit-loop
builder and direct diagonalization; they pin the default operating point
omega_cav = 1, omega_eg = 0.1, omega0 = 1, n_fock = 30.
"""
import numpy as np
import pytest

from uscmem import (
    CouplingSchedule,
    HilbertDims,
    ModelParams,
    annihilation_op,
    basis_state,
    build_rabi,
    number_op,
    parity_op,
    pauli_op,
    retrieval_schedule,
    storage_schedule,
)

# lowest levels at full coupling, derived independently
E_LOWEST = (-1.007577105014, -0.994040463921, -0.020745678479, 0.019809848711)
DOUBLET_GAP = 1.353664109239e-02


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega_cav=-1.0)
    with pytest.raises(ValueError):
        ModelParams(omega_eg=-0.1)
    with pytest.raises(ValueError):
        ModelParams(n_fock=1)
    p = ModelParams(n_fock=4)
    assert p.dims.total_dim == 8


def test_uncoupled_spectrum_is_exact():
    # At zero coupling the energies are n * omega_cav +- omega_eg / 2.
    params = ModelParams(n_fock=6)
    got = np.sort(np.linalg.eigvalsh(build_rabi(params, 0.0)))
    expected = np.sort(
        [n * 1.0 + s * 0.05 for n in range(6) for s in (-1, 1)]
    )
    assert np.allclose(got, expected, atol=1e-12)


def test_lowest_levels_at_full_coupling():
    params = ModelParams()
    e = np.sort(np.linalg.eigvalsh(build_rabi(params, params.omega0)))
    assert np.allclose(e[:4], E_LOWEST, atol=1e-9)
    assert abs((e[1] - e[0]) - DOUBLET_GAP) < 1e-9


def test_degenerate_doublet_without_qubit_splitting():
    # omega_eg = 0 collapses the ground doublet onto -omega0^2 / omega_cav.
    params = ModelParams(omega_eg=0.0)
    e = np.sort(np.linalg.eigvalsh(build_rabi(params, 1.0)))
    assert abs(e[0] + 1.0) < 1e-6
    assert abs(e[1] + 1.0) < 1e-6
    assert e[1] - e[0] < 1e-9


@pytest.mark.parametrize("n_fock", [2, 3, 8, 30])
def test_hamiltonian_equals_operator_formula(n_fock):
    # reference: (omega_eg / 2) sigma_z + omega_cav a^dag a + Omega sigma_x (a + a^dag)
    params = ModelParams(omega_cav=1.3, omega_eg=0.1, n_fock=n_fock)
    dims = params.dims
    a = annihilation_op(dims)
    diag = params.omega_eg / 2 * pauli_op("z", dims) + params.omega_cav * number_op(dims)
    for om in (0.0, 0.37, 1.0, -0.6):
        expected = diag + om * (pauli_op("x", dims) @ (a + a.conj().T))
        h = build_rabi(params, om)
        assert h.dtype == np.complex128
        assert np.array_equal(h, expected)


def test_hamiltonian_affine_in_coupling():
    params = ModelParams(n_fock=8)
    h0 = build_rabi(params, 0.0)
    h1 = build_rabi(params, 1.0)
    for om in (0.25, 0.5, 0.9):
        direct = build_rabi(params, om)
        assert np.abs(direct - (h0 + om * (h1 - h0))).max() < 1e-13


def test_hamiltonian_is_hermitian():
    rng = np.random.default_rng(17)
    params = ModelParams(n_fock=10)
    for om in rng.uniform(0.0, 1.2, size=8):
        h = build_rabi(params, float(om))
        assert np.abs(h - h.conj().T).max() < 1e-13
    # same property through the schedule path, at many random times
    sched = CouplingSchedule(0.0, 1.0, 7.0)
    for t in rng.uniform(0.0, 7.0, size=100):
        h = build_rabi(params, sched.coupling_at(float(t)))
        assert np.abs(h - h.conj().T).max() < 1e-13


def test_ground_energy_decreases_with_coupling():
    params = ModelParams(n_fock=20)
    e0 = [np.linalg.eigvalsh(build_rabi(params, om))[0]
          for om in np.linspace(0.0, 1.0, 6)]
    assert all(b < a + 1e-12 for a, b in zip(e0, e0[1:]))


# --------------------------------------------------------------------------
# parity
# --------------------------------------------------------------------------

def test_parity_structure():
    dims = HilbertDims(n_fock=6)
    p = parity_op(dims)
    assert np.allclose(p @ p, np.eye(dims.total_dim), atol=1e-14)
    g0 = basis_state(dims, 0, 0).amplitudes
    assert np.allclose(p @ g0, -g0)
    # oracle: sigma_z (x) (-1)^n built entry by entry
    expected = np.zeros((12, 12))
    for q in (0, 1):
        for n in range(6):
            i = dims.index(q, n)
            expected[i, i] = (-1 if q == 0 else 1) * (-1.0) ** n
    assert np.array_equal(p, expected)


def test_parity_commutes_with_hamiltonian():
    params = ModelParams(n_fock=12)
    p = parity_op(params.dims)
    for om in (0.0, 0.3, 1.0):
        h = build_rabi(params, om)
        assert np.abs(h @ p - p @ h).max() < 1e-12


# --------------------------------------------------------------------------
# coupling schedules
# --------------------------------------------------------------------------

def test_schedule_interpolation_and_bounds():
    sched = CouplingSchedule(omega_start=0.0, omega_end=1.0, total_time=10.0)
    assert sched.is_sweep
    assert abs(sched.coupling_at(0.0)) < 1e-15
    assert abs(sched.coupling_at(10.0) - 1.0) < 1e-15
    assert abs(sched.coupling_at(5.0) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        sched.coupling_at(-0.1)
    with pytest.raises(ValueError):
        sched.coupling_at(10.1)


def test_schedule_reversal():
    sched = CouplingSchedule(0.0, 1.0, 8.0)
    rev = sched.reversed()
    assert rev.omega_start == 1.0 and rev.omega_end == 0.0
    assert rev.total_time == 8.0


def test_storage_and_retrieval_directions():
    params = ModelParams()
    up = storage_schedule(params, 105.0)
    down = retrieval_schedule(params, 105.0)
    assert up.omega_start == 0.0 and up.omega_end == params.omega0
    assert down.omega_start == params.omega0 and down.omega_end == 0.0


def test_flux_parameterization():
    # start = omega0 cos(f), end = omega0 (cos(f) - delta_f sin(f))
    f, df = np.pi / 4, 0.2
    sched = CouplingSchedule.from_flux(f, df, omega0=1.0, total_time=5.0)
    c = np.cos(f)
    assert abs(sched.omega_start - c) < 1e-15
    assert abs(sched.omega_end - (c - df * np.sin(f))) < 1e-15
    # zero tilt leaves the coupling constant
    flat = CouplingSchedule.from_flux(0.3, 0.0, omega0=1.0, total_time=5.0)
    assert not flat.is_sweep


def test_schedule_validation():
    with pytest.raises(ValueError):
        CouplingSchedule(0.0, 1.0, total_time=0.0)
    with pytest.raises(ValueError):
        CouplingSchedule(0.0, 1.0, 5.0, shape="cubic")
