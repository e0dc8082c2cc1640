"""Dressed-basis zero-temperature relaxation channel and master equation.

The frozen transition rates were derived independently by diagonalizing an
explicitly assembled Hamiltonian and evaluating matrix elements of the bare
noise operators between the lowest dressed levels.
"""
import numpy as np
import pytest

from uscmem import (
    CouplingSchedule,
    ModelParams,
    NoiseRates,
    PositivityError,
    PropagatorConfig,
    State,
    annihilation_op,
    basis_state,
    branch_phase_correction,
    build_rabi,
    corrected_fidelity,
    corrected_fidelity_mixed,
    evolve_master,
    fidelity_mixed,
    flat_rate,
    ohmic_rate,
    optimize_retrieval_phase_mixed,
    pauli_op,
    propagate,
    pure_density,
    storage_input,
    storage_schedule,
    validate_density,
)
from uscmem.lindblad import _rate_table

# per-channel dressed rates at full coupling, n_fock = 20, base rates
# gamma = 1e-4 (qubit axes) and 1e-5 (resonator), flat spectral density
SX_RATES = {
    (0, 1): 9.9845316002e-05,
    (2, 3): 9.9753431955e-05,
    (4, 5): 9.9751073608e-05,
}
SY_RATE_01 = 1.8295720810e-06
SZ_RATE_02 = 7.9635905641e-06
X_RATES = {(0, 1): 3.9952767001e-05, (2, 3): 4.0032952946e-05}

DOUBLET_GAP = 1.353664109239e-02


def _labelled_rates(h, rates, dims, k_levels=12, rate_model=None):
    """Nonzero rates of the jumps |j><k| among the dressed levels of h,
    keyed by (j, k)."""
    energies, vectors = np.linalg.eigh(h)
    gain = _rate_table(energies, vectors, rates, dims, k_levels, rate_model)
    return {(int(j), int(k)): float(gain[j, k]) for j, k in zip(*np.nonzero(gain))}


# --------------------------------------------------------------------------
# rate construction
# --------------------------------------------------------------------------

def test_noise_rates_validation():
    with pytest.raises(ValueError):
        NoiseRates(gamma_x=-1e-4, gamma_y=0, gamma_z=0, gamma_r=0)
    base = NoiseRates.for_qubit_splitting(0.1)
    assert base.gamma_x == pytest.approx(1e-4)
    assert base.gamma_y == pytest.approx(1e-4)
    assert base.gamma_z == pytest.approx(1e-4)
    assert base.gamma_r == pytest.approx(1e-5)
    assert not base.all_zero
    assert NoiseRates(0, 0, 0, 0).all_zero


def test_rate_models():
    assert flat_rate(0.3, 99.0) == 0.3
    model = ohmic_rate(2.0)
    assert model(0.5, 1.0) == pytest.approx(0.25)


def test_uncoupled_qubit_jumps():
    # at zero coupling, sigma_x relaxation connects |e,n> -> |g,n> only
    params = ModelParams(n_fock=6)
    h = build_rabi(params, 0.0)
    rates = NoiseRates(gamma_x=1e-4, gamma_y=0, gamma_z=0, gamma_r=0)
    table = _labelled_rates(h, rates, params.dims, k_levels=6)
    # levels ordered g0, e0, g1, e1, g2, e2; three downward qubit flips
    assert set(table) == {(0, 1), (2, 3), (4, 5)}
    for rate in table.values():
        assert rate == pytest.approx(1e-4, rel=1e-9)


def test_uncoupled_photon_jumps():
    params = ModelParams(n_fock=6)
    h = build_rabi(params, 0.0)
    rates = NoiseRates(gamma_x=0, gamma_y=0, gamma_z=0, gamma_r=1e-5)
    table = _labelled_rates(h, rates, params.dims, k_levels=6)
    # photon loss within each qubit branch, rate n * gamma_r
    assert set(table) == {(0, 2), (1, 3), (2, 4), (3, 5)}
    assert table[(0, 2)] == pytest.approx(1e-5, rel=1e-9)
    assert table[(2, 4)] == pytest.approx(2e-5, rel=1e-9)


def test_uncoupled_dephasing_is_silent():
    # sigma_z is diagonal in the bare basis: no downward jumps survive
    params = ModelParams(n_fock=6)
    h = build_rabi(params, 0.0)
    rates = NoiseRates(gamma_x=0, gamma_y=0, gamma_z=1e-4, gamma_r=0)
    assert _labelled_rates(h, rates, params.dims, k_levels=6) == {}


def test_dressed_rates_frozen_values():
    params = ModelParams(n_fock=20)
    h = build_rabi(params, 1.0)
    dims = params.dims

    sx = _labelled_rates(h, NoiseRates(1e-4, 0, 0, 0), dims)
    for jk, expected in SX_RATES.items():
        assert sx[jk] == pytest.approx(expected, rel=1e-6)

    sy = _labelled_rates(h, NoiseRates(0, 1e-4, 0, 0), dims)
    assert sy[(0, 1)] == pytest.approx(SY_RATE_01, rel=1e-6)

    sz = _labelled_rates(h, NoiseRates(0, 0, 1e-4, 0), dims)
    assert sz[(0, 2)] == pytest.approx(SZ_RATE_02, rel=1e-6)

    xr = _labelled_rates(h, NoiseRates(0, 0, 0, 1e-5), dims)
    for jk, expected in X_RATES.items():
        assert xr[jk] == pytest.approx(expected, rel=1e-6)

    # channels merge additively per transition
    full = _labelled_rates(h, NoiseRates.for_qubit_splitting(0.1), dims)
    merged_01 = SX_RATES[(0, 1)] + SY_RATE_01 + X_RATES[(0, 1)]
    assert full[(0, 1)] == pytest.approx(merged_01, rel=1e-6)

    # the lowest transition spans the protocol doublet gap
    e = np.linalg.eigvalsh(h)
    assert abs((e[1] - e[0]) - DOUBLET_GAP) < 1e-9


def test_ohmic_rescales_by_transition_energy():
    params = ModelParams(n_fock=20)
    h = build_rabi(params, 1.0)
    e = np.linalg.eigvalsh(h)
    flat = _labelled_rates(h, NoiseRates(1e-4, 0, 0, 0), params.dims)
    ohm = _labelled_rates(
        h, NoiseRates(1e-4, 0, 0, 0), params.dims, rate_model=ohmic_rate(1.0)
    )
    for (j, k), rate in flat.items():
        assert ohm[(j, k)] == pytest.approx(rate * (e[k] - e[j]), rel=1e-9)


def _loop_rate_table(energies, vectors, rates, dims, k_levels, model):
    """Per-pair double loop over the lowest levels: the oracle for the
    vectorized rate table, as [(j, k, merged rate)] in ascending (j, k)."""
    a = annihilation_op(dims)
    ops = (pauli_op("x", dims), pauli_op("y", dims), pauli_op("z", dims), a + a.conj().T)
    base = [rates.gamma_x, rates.gamma_y, rates.gamma_z, rates.gamma_r]
    low = vectors[:, :k_levels]
    merged = {}
    for op, gamma in zip(ops, base):
        if gamma == 0.0:
            continue
        elem = low.conj().T @ op @ low
        for k in range(k_levels):
            for j in range(k_levels):
                delta = energies[k] - energies[j]
                if delta <= 0.0:
                    continue
                rate = model(gamma, float(delta)) * float(abs(elem[j, k]) ** 2)
                if rate >= 1e-14:
                    merged[(j, k)] = merged.get((j, k), 0.0) + rate
    return [(j, k, r) for (j, k), r in sorted(merged.items())]


def test_rate_table_matches_the_double_loop():
    # the loop squares |elem| with libm pow, which may be 1 ulp from the
    # correctly rounded array square; the channel sum can add 1 ulp more
    params = ModelParams(n_fock=10)
    dims = params.dims
    full = NoiseRates.for_qubit_splitting(0.1)
    channels = [full] + [
        NoiseRates(*(g if i == c else 0.0 for i, g in enumerate((1e-4, 1e-4, 1e-4, 1e-5))))
        for c in range(4)
    ]
    for coupling in (0.0, 0.4, 1.0):
        energies, vectors = np.linalg.eigh(build_rabi(params, coupling))
        for k_levels in (2, 7, 20):
            for model in (flat_rate, ohmic_rate(1.0)):
                for rates in channels:
                    got = _rate_table(energies, vectors, rates, dims, k_levels, model)
                    want = np.zeros((k_levels, k_levels))
                    table = _loop_rate_table(energies, vectors, rates, dims, k_levels, model)
                    for j, k, rate in table:
                        want[j, k] = rate
                    np.testing.assert_array_max_ulp(got, want, maxulp=2)
                    assert [(int(j), int(k)) for j, k in zip(*np.nonzero(got))] == [
                        (j, k) for j, k, _ in table]


def test_k_levels_bounds():
    params = ModelParams(n_fock=4)
    h = build_rabi(params, 0.5)
    rates = NoiseRates.for_qubit_splitting(0.1)
    with pytest.raises(ValueError):
        _labelled_rates(h, rates, params.dims, k_levels=9)
    with pytest.raises(ValueError):
        _labelled_rates(h, rates, params.dims, k_levels=1)


# --------------------------------------------------------------------------
# density-matrix helpers
# --------------------------------------------------------------------------

def test_density_validation():
    rho = np.diag([0.5, 0.5]).astype(complex)
    validate_density(rho)
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(rho + np.array([[0, 1e-6], [0, 0]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(PositivityError):
        validate_density(np.diag([1.5, -0.5]).astype(complex))


def test_fidelity_mixed_limits():
    params = ModelParams(n_fock=4)
    psi = basis_state(params.dims, 0, 0)
    assert fidelity_mixed(pure_density(psi), psi) == pytest.approx(1.0)
    d = params.dims.total_dim
    rho = np.eye(d, dtype=complex) / d
    assert fidelity_mixed(rho, psi) == pytest.approx(1.0 / d)


# --------------------------------------------------------------------------
# master equation
# --------------------------------------------------------------------------

def test_zero_rates_reduce_to_closed_dynamics():
    params = ModelParams(n_fock=12)
    sched = storage_schedule(params, 20.0)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)
    psi0 = storage_input(params)
    pure = propagate(params, sched, psi0, cfg).final
    mt = evolve_master(params, sched, pure_density(psi0), NoiseRates(0, 0, 0, 0), cfg)
    assert fidelity_mixed(mt.final, pure) > 1 - 1e-8
    assert mt.times[-1] == 20.0


def test_uncoupled_decay_is_exponential():
    # population e^{-Gamma t}, coherence e^{-Gamma t / 2}
    params = ModelParams(n_fock=4)
    gamma = 0.01
    total_time = 100.0
    sched = CouplingSchedule(0.0, 0.0, total_time)
    cfg = PropagatorConfig.for_total_time(total_time)
    rates = NoiseRates(gamma_x=gamma, gamma_y=0, gamma_z=0, gamma_r=0)
    dims = params.dims
    i_g, i_e = dims.index(0, 0), dims.index(1, 0)

    rho0 = pure_density(basis_state(dims, 1, 0))
    mt = evolve_master(params, sched, rho0, rates, cfg, k_levels=8)
    got = float(np.real(mt.final[i_e, i_e]))
    assert got == pytest.approx(np.exp(-gamma * total_time), rel=0.02)

    rho0 = pure_density(storage_input(params))
    mt = evolve_master(params, sched, rho0, rates, cfg, k_levels=8)
    got = abs(mt.final[i_g, i_e])
    assert got == pytest.approx(0.5 * np.exp(-gamma * total_time / 2), rel=0.02)


def test_relaxation_climbs_toward_dressed_ground():
    params = ModelParams(n_fock=12)
    h = build_rabi(params, 1.0)
    energies, vectors = np.linalg.eigh(h)
    ground = State(params.dims, vectors[:, 0])
    excited = State(params.dims, vectors[:, 1])
    rates = NoiseRates(gamma_x=0.01, gamma_y=0.01, gamma_z=0.01, gamma_r=1e-3)
    sched = CouplingSchedule(1.0, 1.0, 200.0)
    cfg = PropagatorConfig.for_total_time(200.0)
    mt = evolve_master(params, sched, pure_density(excited), rates, cfg)
    fids = np.array([fidelity_mixed(mt.rhos[i], ground) for i in range(mt.n_recorded)])
    assert np.all(np.diff(fids) > -1e-10)
    assert fids[-1] > fids[0] + 0.3


def test_master_input_validation():
    params = ModelParams(n_fock=6)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    rates = NoiseRates.for_qubit_splitting(0.1)
    with pytest.raises(ValueError):
        evolve_master(params, sched, np.eye(3, dtype=complex), rates, cfg)
    rho0 = pure_density(storage_input(params))
    with pytest.raises(ValueError):
        evolve_master(params, sched, rho0, rates, cfg, refresh_every=0)


def _lab_frame_master(params, schedule, rho0, rates, cfg, k_levels, refresh_every, model):
    """Reference sweep in the lab frame: dense midpoint eigh, rho <- U rho U^dag,
    then the dissipator taken into the refresh basis and back on every step.
    Returns the samples at step 0, every record_every steps and the last."""
    d = params.dims.total_dim
    n_steps = round(schedule.total_time / cfg.dt)
    dt = schedule.total_time / n_steps
    rho = np.array(rho0, dtype=complex)
    samples = [rho.copy()]
    for i in range(n_steps):
        energies, vectors = np.linalg.eigh(build_rabi(params, schedule.coupling_at((i + 0.5) * dt)))
        u = (vectors * np.exp(-1j * energies * dt)) @ vectors.conj().T
        rho = u @ rho @ u.conj().T
        if i % refresh_every == 0:
            basis = vectors
            gain = np.zeros((d, d))
            for j, k, rate in _loop_rate_table(
                    energies, vectors, rates, params.dims, k_levels, model):
                gain[j, k] = rate
            out_rate = gain.sum(axis=0)
        rho_d = basis.conj().T @ rho @ basis
        drho = -0.5 * (out_rate[:, None] + out_rate[None, :]) * rho_d
        drho[np.diag_indices(d)] += gain @ np.real(np.diag(rho_d))
        rho = rho + dt * (basis @ drho @ basis.conj().T)
        if (i + 1) % cfg.record_every == 0 or i + 1 == n_steps:
            samples.append(rho.copy())
    return np.array(samples)


def test_master_frame_step_matches_lab_frame_reference():
    params = ModelParams(n_fock=8)
    sched = storage_schedule(params, 20.0)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)
    base = NoiseRates.for_qubit_splitting(0.1)
    rates = NoiseRates(*(10 * g for g in (base.gamma_x, base.gamma_y, base.gamma_z, base.gamma_r)))
    rho0 = pure_density(storage_input(params))
    for model in (flat_rate, ohmic_rate(1.0)):
        mt = evolve_master(params, sched, rho0, rates, cfg, refresh_every=3, rate_model=model)
        want = _lab_frame_master(params, sched, rho0, rates, cfg, 12, 3, model)
        assert mt.rhos.shape == want.shape == (51, 16, 16)
        assert np.abs(mt.rhos - want).max() < 1e-12


def test_noisy_readout_frozen_value(noisy_legs):
    params, psi_s, leg_in, leg_out = noisy_legs
    rho_final = leg_out.final
    validate_density(rho_final, "readout")
    theta, f_best = optimize_retrieval_phase_mixed(rho_final, params.dims)
    assert abs(f_best - 0.991436) < 1e-4

    # grid-scan oracle for the closed-form phase optimum
    best_grid = 0.0
    psi = psi_s.amplitudes
    for th in np.linspace(0.0, 2 * np.pi, 4001):
        c = branch_phase_correction(params.dims, th)
        val = float(np.real(np.vdot(c.conj().T @ psi, rho_final @ (c.conj().T @ psi))))
        best_grid = max(best_grid, val)
    assert f_best >= best_grid - 1e-9
    assert abs(f_best - best_grid) < 1e-6


def test_mixed_corrected_fidelity_matches_pure_state_formula():
    # on a pure density the (w, z) branch formula is |<psi_s|C(theta)|psi>|^2
    params = ModelParams(n_fock=6)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=params.dims.total_dim) + 1j * rng.normal(size=params.dims.total_dim)
    state = State(params.dims, amps / np.linalg.norm(amps))
    rho = pure_density(state)
    for alpha_f, beta_f in ((2 ** -0.5, 2 ** -0.5), (0.6, 0.8j)):
        for theta in (0.0, 0.7, 2.5, 4.0, 5.9):
            expected = corrected_fidelity(state, theta, alpha_f, beta_f)
            got = corrected_fidelity_mixed(rho, params.dims, theta, alpha_f, beta_f)
            assert got == pytest.approx(expected, abs=1e-14)


def test_noisy_samples_stay_valid_densities(noisy_legs):
    _, _, leg_in, leg_out = noisy_legs
    for mt in (leg_in, leg_out):
        for i in range(0, mt.n_recorded, 40):
            validate_density(mt.rhos[i], f"sample {i}")
        tr = float(np.real(np.trace(mt.final)))
        assert abs(tr - 1.0) < 1e-8
