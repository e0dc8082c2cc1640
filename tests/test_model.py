"""Hamiltonian construction, symmetry, the chains' ground pair, and coupling schedules.

Frozen eigenvalues below were derived with an independent explicit-loop
builder and direct diagonalization; they pin the default operating point
omega_cav = 1, omega_eg = 0.1, omega0 = 1, n_fock = 30.
"""
import re
import warnings
from math import cos, factorial, log, sin

import numpy as np
import pytest

from uscmem import (
    CouplingSchedule,
    ModelParams,
    NoiseRates,
    PropagatorConfig,
    build_gauge_chain,
    build_rabi,
    chain_ground,
    coherent_state,
    fock_annihilation,
    physical_time,
    sector_eigh,
    sector_propagators,
    sector_spectra,
    storage_schedule,
)
from uscmem import model
from uscmem.model import (
    _FIT_REACH, _TAYLOR, _THETA, PROPAGATOR_BATCH, _propagator_batches, _sturm,
)

from reference import annihilation_op, basis_state, number_op, parity_op, pauli_op, site

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
    # a cell of n_fock Fock levels has 2 * n_fock states
    assert build_rabi(ModelParams(n_fock=4), 0.0).shape == (8, 8)


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
    a = annihilation_op(n_fock)
    diag = params.omega_eg / 2 * pauli_op("z", n_fock) + params.omega_cav * number_op(n_fock)
    for om in (0.0, 0.37, 1.0, -0.6):
        expected = diag + om * (pauli_op("x", n_fock) @ (a + a.conj().T))
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
    p = parity_op(6)
    assert np.allclose(p @ p, np.eye(12), atol=1e-14)
    g0 = basis_state(6, 0, 0).amplitudes
    assert np.allclose(p @ g0, -g0)
    # oracle: sigma_z (x) (-1)^n built entry by entry
    expected = np.zeros((12, 12))
    for q in (0, 1):
        for n in range(6):
            i = site(6, q, n)
            expected[i, i] = (-1 if q == 0 else 1) * (-1.0) ** n
    assert np.array_equal(p, expected)


def test_parity_commutes_with_hamiltonian():
    params = ModelParams(n_fock=12)
    p = parity_op(params.n_fock)
    for om in (0.0, 0.3, 1.0):
        h = build_rabi(params, om)
        assert np.abs(h @ p - p @ h).max() < 1e-12


def test_parity_chains_lay_out_the_cell():
    # chain 0 is the P = -1 chain |g,0>, |e,1>, |g,2>, ... (G, the alpha
    # branch) and chain 1 the P = +1 chain |e,0>, |g,1>, ... (E, beta), so
    # the qubit's two sites are index[:, 0] in read-out order
    n_fock = 5
    index = ModelParams(n_fock=n_fock).chains.index
    parity = np.real(np.diag(parity_op(n_fock)))
    assert np.array_equal(parity[index], np.repeat([[-1.0], [1.0]], n_fock, axis=1))
    assert index[:, 0].tolist() == [0, n_fock]
    # the cell is qubit-major: site n of chain s is |(s + n) % 2, n>, where
    # the kron product of the qubit and Fock factors puts it
    for s in (0, 1):
        for n in range(n_fock):
            amps = basis_state(n_fock, (s + n) % 2, n).amplitudes
            assert np.flatnonzero(amps).tolist() == [index[s, n]]
    assert index[1, 3] == 3 and index[1, 0] == 5 and index[1, 4] == 9


def test_parity_chains_are_the_hamiltonian_blocks():
    # chain s at coupling Omega is bare[s] + Omega * hop: the operator
    # formula restricted to the chain's sites, entry for entry
    n_fock = 7
    params = ModelParams(omega_cav=1.3, omega_eg=0.1, n_fock=n_fock)
    chains = params.chains
    a = annihilation_op(n_fock)
    h0 = params.omega_eg / 2 * pauli_op("z", n_fock) + params.omega_cav * number_op(n_fock)
    x = pauli_op("x", n_fock) @ (a + a.conj().T)
    for om in (0.0, 0.7):
        h = h0 + om * x
        for s in (0, 1):
            block = h[np.ix_(chains.index[s], chains.index[s])]
            assert np.array_equal(chains.bare[s] + om * chains.hop, block)
    a = fock_annihilation(n_fock)
    assert np.array_equal(chains.hop, a + a.T)
    assert not chains.bare[:, ~np.eye(n_fock, dtype=bool)].any()


@pytest.mark.parametrize("name", ["index", "bare", "hop"])
def test_parity_chains_are_read_only(name):
    # every sweep of one ModelParams shares the cached chain arrays
    params = ModelParams(n_fock=4)
    assert params.chains is params.chains
    arr = getattr(params.chains, name)
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] = 1


# --------------------------------------------------------------------------
# the chains' ground pair
# --------------------------------------------------------------------------

def _dense_ground(params, coupling):
    """Lowest level and state of each chain by a dense eigh, signed so that
    the alternating sum over chain sites is positive."""
    alternating = (-1.0) ** np.arange(params.n_fock)
    pairs = [np.linalg.eigh(bare + coupling * params.chains.hop) for bare in params.chains.bare]
    energies = np.array([w[0] for w, _ in pairs])
    states = np.array([v[:, 0] * np.sign(v[:, 0] @ alternating) for _, v in pairs])
    return energies, states


@pytest.mark.parametrize("omega_eg", [0.0, 0.1, 0.9])
@pytest.mark.parametrize("n_fock", [2, 3, 12, 30])
def test_chain_ground_matches_dense_eigh(n_fock, omega_eg):
    params = ModelParams(omega_eg=omega_eg, n_fock=n_fock)
    couplings = np.linspace(0.0, 3.0, 31)
    energies, states = chain_ground(params, couplings)
    assert energies.shape == (31, 2) and states.shape == (31, 2, n_fock)
    for coupling, e, v in zip(couplings, energies, states):
        e_ref, v_ref = _dense_ground(params, coupling)
        assert np.abs(e - e_ref).max() < 1e-13
        assert np.abs(v - v_ref).max() < 1e-12


def test_chain_ground_takes_the_first_site_of_an_exact_tie():
    # at coupling 0 and omega_eg = omega_cav, |e,0> and |g,1> tie on chain 1
    params = ModelParams(omega_eg=1.0, n_fock=12)
    assert params.chains.bare[1, 0, 0] == params.chains.bare[1, 1, 1]
    energies, states = chain_ground(params, [0.0])
    first = np.eye(params.n_fock)[0]
    assert np.array_equal(states[0], [first, first])
    assert np.array_equal(energies[0], [-0.5, 0.5])
    _, v_ref = _dense_ground(params, 0.0)
    assert np.array_equal(v_ref, states[0])


@pytest.mark.parametrize("coupling", [1e-10, 1e-6])
def test_chain_ground_resolves_a_near_tie(coupling):
    # chain 1's two lowest bare sites lie 1e-9 apart; the shift must get
    # within that gap before inverse iteration singles out the lower level
    params = ModelParams(omega_eg=1 - 1e-9)
    energies, _ = build_gauge_chain(params, [coupling])  # checks the residuals
    e_ref, _ = _dense_ground(params, coupling)
    assert np.abs(energies[0] - e_ref).max() < 1e-14


class _FirstShift(Exception):
    pass


@pytest.mark.parametrize("omega_cav, omega_eg", [(1.0, 0.0), (1.0, 0.1), (1.0, 0.9), (2.0, 0.1)])
def test_chain_ground_starts_below_every_level(monkeypatch, omega_cav, omega_eg):
    # Newton's first shift, the larger of the Gershgorin bound and
    # -Omega^2 / omega_cav - omega_eg / 2, less the roundoff margin, is below
    # every level: all its pivots are > 0, down to the 2-site chain, up to
    # coupling 4.5 and n_fock 120
    starts = []

    def first_sturm(diag, hop2, shift):
        starts.append(_sturm(diag, hop2, shift)[0])
        raise _FirstShift

    monkeypatch.setattr(model, "_sturm", first_sturm)
    couplings = np.linspace(0.0, 4.5, 451)
    for n_fock in range(2, 121):
        with pytest.raises(_FirstShift):
            model._ground_batch(ModelParams(omega_cav, omega_eg, n_fock=n_fock), couplings)
        assert starts[-1].shape == (451, 2, n_fock) and (starts[-1] > 0).all(), n_fock


# --------------------------------------------------------------------------
# midpoint propagators
# --------------------------------------------------------------------------

def _eigh_propagators(params, couplings, dt):
    """V exp(-i w dt) V^T per chain from the batched eigh."""
    w, v = sector_eigh(params, couplings)
    return (v * np.exp(-1j * w * dt)[..., None, :]) @ np.swapaxes(v, -1, -2)


@pytest.mark.parametrize("n_fock", [2, 15, 30, 80])
def test_sector_propagators_match_the_eigh_exponential(n_fock):
    # accurate, unitary and complex symmetric from dt 1e-4, no squaring,
    # to dt 4, where n_fock 80 at coupling 3 takes nine squarings
    params = ModelParams(n_fock=n_fock)
    couplings = np.array([0.0, 1.0, 3.0])
    eye = np.eye(n_fock)
    for dt in (1e-4, 1e-3, 0.01, 0.0525, 0.1, 0.5, 1.0, 2.0, 4.0):
        u = sector_propagators(params, couplings, dt)
        assert u.shape == (3, 2, n_fock, n_fock) and u.dtype == np.complex128
        assert np.abs(u - _eigh_propagators(params, couplings, dt)).max() <= 1e-12, dt
        assert np.abs(u @ np.swapaxes(u, -1, -2).conj() - eye).max() <= 1e-12, dt
        assert np.abs(u - np.swapaxes(u, -1, -2)).max() <= 1e-12, dt


@pytest.mark.parametrize("n_fock", [2, 15, 30, 80])
def test_sector_propagators_at_zero_coupling_are_the_bare_phases(n_fock):
    # The chains are diagonal, so every product is too: U is exactly
    # diagonal, and each entry is the series' cos and sin of one number.
    # Each phase -E dt carries its own rounding, about 1e-16 per radian, so
    # the bound is 5e-16 per radian. At `edge`, the largest dt with no
    # squaring, a series one term short would be off by 1.3e-15.
    params = ModelParams(n_fock=n_fock)
    bare = np.diagonal(params.chains.bare, axis1=1, axis2=2)
    edge = 0.999 * _THETA / (np.ptp(bare, axis=1).max() / 2)
    off = 1.0 - np.eye(n_fock)
    for dt in (1e-4, 0.0525, edge, 0.5, 4.0):
        (u,) = sector_propagators(params, [0.0], dt)
        assert not (u * off).any()
        error = np.abs(np.diagonal(u, axis1=1, axis2=2) - np.exp(-1j * bare * dt)).max()
        assert error <= 5e-16 * max(1.0, np.abs(bare * dt).max()), dt


def test_sector_propagator_series_is_taylor_to_roundoff():
    # cos and sin / x through x^14, and the remainder past x^15 at the
    # largest scaled ||A|| is below 2^-53
    x = _THETA
    series = _TAYLOR.reshape(2, 8)
    assert abs(sum(c * x ** (2 * j) for j, c in enumerate(series[0])) - cos(x)) < 2e-16
    assert abs(sum(c * x ** (2 * j + 1) for j, c in enumerate(series[1])) - sin(x)) < 2e-16
    assert sum(x ** k / factorial(k) for k in range(16, 60)) < 2.0 ** -53


def test_sector_propagators_reject_bad_input():
    params = ModelParams(n_fock=4)
    for dt in (0.0, -0.1, np.nan, np.inf, 1e308):
        with pytest.raises(ValueError, match="dt"):
            sector_propagators(params, [1.0], dt)
    for couplings in ([[1.0]], [np.nan], [np.inf], 1.0):
        with pytest.raises(ValueError, match="couplings"):
            sector_propagators(params, couplings, 0.1)
    # dt is checked on its own, and a coupling whose Gershgorin half-width
    # times dt overflows is named as the cause, not dt
    with pytest.raises(ValueError, match="dt must be finite and > 0, got nan"):
        sector_propagators(ModelParams(n_fock=12), [1e308], np.nan)
    with pytest.raises(ValueError, match=r"^couplings \[1\.e\+308\] give") as caught:
        sector_propagators(ModelParams(n_fock=12), [1e308], 0.04)
    assert "dt must be" not in str(caught.value)


def _fitted(params, couplings, dt):
    """The sweep's factors of couplings, one batch at a time, copied out."""
    return np.concatenate([us.copy() for us in _propagator_batches(params, couplings, dt)])


@pytest.mark.parametrize("n_fock", [2, 15, 30, 80])
def test_fitted_propagators_match_the_eigh_exponential(n_fock):
    # 48-step ramps to coupling 3 and over its last tenth, at the dt of the
    # exact kernel's test: from one run of at most eight nodes (dt 1e-4 and
    # 1e-3) to one run per batch at its own couplings (dt 4); every third
    # step, which visits each place in a batch, is accurate, unitary and
    # complex symmetric
    params = ModelParams(n_fock=n_fock)
    ramp = (np.arange(48) + 0.5) / 48
    eye = np.eye(n_fock)
    for couplings in (3.0 * ramp, 2.7 + 0.3 * ramp):
        for dt in (1e-4, 1e-3, 0.01, 0.0525, 0.1, 0.5, 1.0, 2.0, 4.0):
            u = _fitted(params, couplings, dt)
            assert u.shape == (48, 2, n_fock, n_fock) and u.dtype == np.complex128
            u = u[::3]
            assert np.abs(u - _eigh_propagators(params, couplings[::3], dt)).max() <= 1e-12, dt
            assert np.abs(u @ np.swapaxes(u, -1, -2).conj() - eye).max() <= 1e-12, dt
            assert np.abs(u - np.swapaxes(u, -1, -2)).max() <= 1e-12, dt


def test_fitted_propagators_at_roundtrip_defaults_match_the_exact_kernel():
    # n_fock 30, T 105 over 2000 steps from coupling 0 to 1
    params = ModelParams()
    couplings = (np.arange(2000) + 0.5) / 2000
    dt = 105.0 / 2000
    for start, us in zip(range(0, 2000, PROPAGATOR_BATCH),
                         _propagator_batches(params, couplings, dt)):
        exact = sector_propagators(params, couplings[start:start + PROPAGATOR_BATCH], dt)
        assert np.abs(us - exact).max() <= 1e-14, start


def test_fit_node_table_holds_the_bound_at_roundoff():
    # at each table edge some rho puts the interpolation bound
    # 4 exp(beta h (rho - 1/rho) / 2) rho^(1 - M) / (rho - 1) below 2^-53, and
    # one percent further none does: the table is the bound, not a guess
    log_rho = np.linspace(1e-4, 45.0, 200_001)

    def log_bound(reach, nodes):
        return (log(4) + reach * np.sinh(log_rho) - (nodes - 1) * log_rho
                - np.log(np.expm1(log_rho))).min()

    assert len(_FIT_REACH) == PROPAGATOR_BATCH and (np.diff(_FIT_REACH) > 0).all()
    for nodes, reach in enumerate(_FIT_REACH, 1):
        assert log_bound(reach, nodes) < -53 * log(2) < log_bound(1.01 * reach, nodes), nodes


def test_zero_span_sweep_takes_one_exact_factor(monkeypatch):
    # a hold at one coupling is one run of zero span: its one node is the
    # coupling itself, so every step gets that exact factor, and nothing
    # divides by the zero half-span
    params = ModelParams(n_fock=12)
    calls = []

    def counting(params, couplings, dt):
        calls.append(np.array(couplings))
        return sector_propagators(params, couplings, dt)

    monkeypatch.setattr(model, "sector_propagators", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _fitted(params, np.full(100, 0.7), 0.1)
    assert [c.tolist() for c in calls] == [[0.7]]
    assert np.array_equal(u, np.broadcast_to(sector_propagators(params, [0.7], 0.1), u.shape))


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
    # an array of times gives the scalar values bit for bit, and is checked whole
    sched = CouplingSchedule(omega_start=0.3, omega_end=1.7, total_time=10.5)
    t = (np.arange(2000) + 0.5) * (10.5 / 2000)
    assert np.array_equal(sched.coupling_at(t), [sched.coupling_at(float(x)) for x in t])
    with pytest.raises(ValueError):
        sched.coupling_at(np.array([0.0, 5.0, 10.6, 1.0]))


def test_schedule_reversal():
    sched = CouplingSchedule(0.0, 1.0, 8.0)
    rev = sched.reversed()
    assert rev.omega_start == 1.0 and rev.omega_end == 0.0
    assert rev.total_time == 8.0


def test_storage_and_retrieval_directions():
    params = ModelParams()
    up = storage_schedule(params, 105.0)
    down = up.reversed()
    assert up.omega_start == 0.0 and up.omega_end == params.omega0
    assert down.omega_start == params.omega0 and down.omega_end == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        CouplingSchedule(0.0, 1.0, total_time=0.0)
    for start, end in ((-0.1, 1.0), (1.0, -0.1)):
        with pytest.raises(ValueError, match="finite and >= 0"):
            CouplingSchedule(start, end, total_time=10.0)


NON_FINITE_GUARDS = {
    "omega_cav": lambda x: ModelParams(omega_cav=x),
    "omega_eg": lambda x: ModelParams(omega_eg=x),
    "omega0": lambda x: ModelParams(omega0=x),
    "omega_start": lambda x: CouplingSchedule(x, 1.0, 10.0),
    "omega_end": lambda x: CouplingSchedule(0.0, x, 10.0),
    "total_time": lambda x: CouplingSchedule(0.0, 1.0, x),
    "dt": lambda x: PropagatorConfig(dt=x),
    "norm_tol": lambda x: PropagatorConfig(dt=0.1, norm_tol=x),
    "gamma_x": lambda x: NoiseRates(x, 0.0, 0.0, 0.0),
    "gamma_y": lambda x: NoiseRates(0.0, x, 0.0, 0.0),
    "gamma_z": lambda x: NoiseRates(0.0, 0.0, x, 0.0),
    "gamma_r": lambda x: NoiseRates(0.0, 0.0, 0.0, x),
    "f_cav_hz": lambda x: physical_time(105.0, x),
    "alpha_state": lambda x: coherent_state(x, 10),
    "spectra_coupling": lambda x: sector_spectra(ModelParams(n_fock=4), [x], 2),
    "gauge_coupling": lambda x: build_gauge_chain(ModelParams(n_fock=4), np.array([x])),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", NON_FINITE_GUARDS)
def test_parameter_records_reject_non_finite(field, value):
    # an inf norm_tol would switch the drift check off; nan and inf elsewhere
    # fail far from their cause, inside an eigensolver or as a nan duration;
    # the eigensolver's LinAlgError is a ValueError too, hence the match
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_GUARDS[field](value)


COUNT_GUARDS = {
    "steps": (lambda n: PropagatorConfig.for_total_time(10.0, steps=n),
              "steps must be an integer >= 1"),
    "k": (lambda n: sector_spectra(ModelParams(n_fock=4), [1.0], n),
          r"k must be an integer in \[1, 8\]"),
}


@pytest.mark.parametrize("name, value", [
    ("steps", 0), ("steps", 2.5), ("steps", np.float64(3.0)),
    ("k", 0), ("k", 2.5), ("k", np.float64(3.0)), ("k", 9),
])
def test_public_counts_must_be_integers(name, value):
    # a zero, float or out-of-range count is refused by name, not met later
    # as a ZeroDivisionError, numpy's TypeError or a rounded step count;
    # a numpy integer is an integer
    build, message = COUNT_GUARDS[name]
    with pytest.raises(ValueError, match=rf"{message}, got {re.escape(repr(value))}$"):
        build(value)
    build(np.int64(3))
