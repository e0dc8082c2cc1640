"""Sweep propagation, retrieval phase correction, and protocol timing.

Frozen numbers were produced by an independent implementation (explicit
Hamiltonian assembly, scipy-based propagation) at the default operating
point. Dynamical tests that admit a closed-form or scipy oracle carry it
inline.
"""
import numpy as np
import pytest
import scipy.linalg

from uscmem import (
    CouplingSchedule,
    ModelParams,
    PropagatorConfig,
    State,
    basis_state,
    build_rabi,
    corrected_fidelity,
    optimal_evolution_time,
    optimize_retrieval_phase,
    parity_op,
    phase_landscape,
    physical_time,
    propagate,
    retrieval_schedule,
    roundtrip_run,
    sector_spectra,
    storage_input,
    storage_run,
    storage_schedule,
)
from uscmem.model import sector_eigh, sector_levels

RSQRT2 = 2 ** -0.5

# ground-branch adiabaticity |<ground(omega0)|psi(T)>|^2 after the write sweep
STORAGE_GROUND = {26.25: 0.9962060950, 52.5: 0.9990497605, 105.0: 0.9997603106}

# full write-read cycles with optimized phase correction
ROUNDTRIP = {
    45.0: (0.99684996, 0.914343),
    105.0: (0.99961211, 0.020545),
    120.0: (0.99936069, 4.509912),
}

# ridge minima are tied to the default recording density (201 samples)
RIDGE_MIN = {105.0: 0.999108, 120.0: 0.999242}
THETA_CURVE_MAX_DIFF = 0.9817


# --------------------------------------------------------------------------
# propagator correctness
# --------------------------------------------------------------------------

def test_constant_hamiltonian_is_exact():
    # an eigenstate only acquires the phase exp(-i E t), to roundoff
    params = ModelParams(n_fock=12)
    spec = sector_spectra(params, [1.0], 1)[0]
    psi0 = State(params.dims, spec.states[:, 0])
    sched = CouplingSchedule(1.0, 1.0, total_time=5.0)
    traj = propagate(params, sched, psi0, PropagatorConfig.for_total_time(5.0, steps=50))
    expected = np.exp(-1j * spec.energies[0] * 5.0) * psi0.amplitudes
    assert np.abs(traj.final.amplitudes - expected).max() < 1e-9


def test_zero_coupling_is_pure_phase():
    # with the cavity decoupled, |e,0> only acquires exp(-i omega_eg t / 2)
    params = ModelParams(n_fock=6)
    psi0 = basis_state(params.dims, 1, 0)
    sched = CouplingSchedule(0.0, 0.0, total_time=12.0)
    traj = propagate(params, sched, psi0, PropagatorConfig.for_total_time(12.0, steps=500))
    expected = np.exp(-1j * params.omega_eg * 12.0 / 2.0) * psi0.amplitudes
    assert np.abs(traj.final.amplitudes - expected).max() < 1e-10


def test_exchange_oscillation_against_expm_oracle():
    # weak resonant coupling: |e,0> swaps into |g,1> over a half period.
    # dual route: one-shot scipy expm versus the stepped propagator.
    params = ModelParams(n_fock=8, omega_eg=1.0)
    coupling = 0.01
    t_half = np.pi / (2 * coupling)
    h = build_rabi(params, coupling)
    psi0 = basis_state(params.dims, 1, 0)

    one_shot = scipy.linalg.expm(-1j * h * t_half) @ psi0.amplitudes
    sched = CouplingSchedule(coupling, coupling, t_half)
    traj = propagate(params, sched, psi0, PropagatorConfig.for_total_time(t_half))

    assert np.abs(traj.final.amplitudes - one_shot).max() < 1e-6
    pop = abs(traj.final.amplitudes[params.dims.index(0, 1)]) ** 2
    assert abs(pop - 0.999925) < 1e-4


def test_propagation_is_linear():
    params = ModelParams(n_fock=8)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    a, b = 0.6, 0.8j
    psi1 = basis_state(params.dims, 0, 0)
    psi2 = basis_state(params.dims, 1, 0)
    combo = State(params.dims, a * psi1.amplitudes + b * psi2.amplitudes)
    out1 = propagate(params, sched, psi1, cfg).final.amplitudes
    out2 = propagate(params, sched, psi2, cfg).final.amplitudes
    out = propagate(params, sched, combo, cfg).final.amplitudes
    assert np.abs(out - (a * out1 + b * out2)).max() < 1e-9


def test_norm_is_preserved_tightly():
    # a tolerance far below the contract still passes: the per-step map is
    # unitary to machine precision
    params = ModelParams(n_fock=10)
    cfg = PropagatorConfig(dt=30.0 / 600, norm_tol=1e-12)
    traj = propagate(params, storage_schedule(params, 30.0), storage_input(params), cfg)
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_parity_is_conserved_along_sweep():
    params = ModelParams(n_fock=12)
    p = parity_op(params.dims)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)

    # odd branch input stays at <P> = -1
    traj_g, _ = storage_run(params, 1.0, 0.0, storage_schedule(params, 20.0), cfg)
    vals = np.real(np.einsum("ij,jk,ik->i", traj_g.amplitudes.conj(), p, traj_g.amplitudes))
    assert np.abs(vals + 1.0).max() < 1e-7

    # the equal superposition balances the sectors: <P> stays 0
    traj_s, _ = storage_run(params, RSQRT2, RSQRT2, storage_schedule(params, 20.0), cfg)
    vals = np.real(np.einsum("ij,jk,ik->i", traj_s.amplitudes.conj(), p, traj_s.amplitudes))
    assert np.abs(vals).max() < 1e-7


@pytest.mark.parametrize("omega_eg", [0.1, 0.0])
def test_parity_holds_exactly_by_construction(omega_eg):
    # |g,0> has parity -1; the sector engine never puts an amplitude into +1
    params = ModelParams(n_fock=12, omega_eg=omega_eg)
    plus = np.real(np.diag(parity_op(params.dims))) > 0
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)
    traj = propagate(params, storage_schedule(params, 20.0), basis_state(params.dims, 0, 0), cfg)
    assert np.all(traj.amplitudes[:, plus] == 0.0)


@pytest.mark.parametrize("omega_eg", [0.1, 0.0])
def test_sector_eigensystems_match_dense_hamiltonian(omega_eg):
    # omega_eg = 0 makes the ground doublet exactly degenerate
    params = ModelParams(n_fock=20, omega_eg=omega_eg)
    couplings = np.array([0.0, 0.05, 0.3, 0.7, 1.0, 1.4])
    energies, _, states = sector_levels(params, *sector_eigh(params, couplings), 2 * params.n_fock)
    for om, e, v in zip(couplings, energies, states):
        h = build_rabi(params, float(om))
        assert np.abs(e - np.linalg.eigvalsh(h)).max() < 1e-12
        assert np.linalg.norm(h @ v - v * e, axis=0).max() <= 1e-10
        assert np.all(np.diff(e) >= 0.0)


@pytest.mark.parametrize("omega_eg", [0.1, 0.0])
def test_sector_unitary_matches_expm(omega_eg):
    # one step at a fixed coupling is v exp(-i w dt) v^T on each chain;
    # the images of the basis states are the columns of exp(-i H dt)
    params = ModelParams(n_fock=20, omega_eg=omega_eg)
    dt = 0.0525
    cfg = PropagatorConfig(dt=dt)
    for om in (0.0, 0.3, 1.0, 1.4):
        sched = CouplingSchedule(om, om, dt)
        step = np.array([
            propagate(params, sched, basis_state(params.dims, q, n), cfg).final.amplitudes
            for q in (0, 1) for n in range(params.n_fock)
        ]).T
        exact = scipy.linalg.expm(-1j * dt * build_rabi(params, om))
        assert np.abs(step - exact).max() < 1e-12


def test_integrator_is_second_order():
    # halving dt should cut the error by about 4; accept [3, 5]
    params = ModelParams(n_fock=8)
    sched = storage_schedule(params, 10.0)
    psi0 = storage_input(params)

    def final_at(steps):
        cfg = PropagatorConfig.for_total_time(10.0, steps=steps)
        return propagate(params, sched, psi0, cfg).final.amplitudes

    ref = final_at(8000)
    err_coarse = np.linalg.norm(final_at(500) - ref)
    err_fine = np.linalg.norm(final_at(1000) - ref)
    assert err_coarse / err_fine == pytest.approx(4.0, abs=1.0)


def test_sweep_step_floor():
    params = ModelParams(n_fock=6)
    sched = storage_schedule(params, 10.0)
    with pytest.raises(ValueError, match="steps"):
        propagate(params, sched, storage_input(params), PropagatorConfig(dt=1.0))


def test_recording_grid():
    params = ModelParams(n_fock=6)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500, record_every=50)
    traj = propagate(params, sched, storage_input(params), cfg)
    assert traj.n_recorded == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 10.0
    assert abs(traj.couplings[0]) < 1e-15
    assert abs(traj.couplings[-1] - 1.0) < 1e-15


# --------------------------------------------------------------------------
# write sweep
# --------------------------------------------------------------------------

def test_storage_input_validation():
    params = ModelParams(n_fock=6)
    with pytest.raises(ValueError, match="must be 1"):
        storage_input(params, 1.0, 1.0)
    psi = storage_input(params, 0.6, 0.8j)
    assert abs(psi.amplitudes[params.dims.index(0, 0)] - 0.6) < 1e-12
    assert abs(psi.amplitudes[params.dims.index(1, 0)] - 0.8j) < 1e-12


def test_adiabatic_following_improves_with_sweep_time():
    params = ModelParams()
    v0 = sector_spectra(params, [params.omega0], 1)[0].states[:, 0]
    got = {}
    for total_time in sorted(STORAGE_GROUND):
        cfg = PropagatorConfig.for_total_time(total_time)
        traj, fs = storage_run(params, 1.0, 0.0, storage_schedule(params, total_time), cfg)
        assert abs(fs[0] - 1.0) < 1e-9
        got[total_time] = abs(np.vdot(v0, traj.final.amplitudes)) ** 2
    for total_time, expected in STORAGE_GROUND.items():
        assert abs(got[total_time] - expected) < 1e-6
    values = [got[t] for t in sorted(got)]
    assert values == sorted(values)


# --------------------------------------------------------------------------
# retrieval and phase correction
# --------------------------------------------------------------------------

def test_roundtrip_frozen_values(roundtrip_105, roundtrip_120):
    params = ModelParams()
    results = {
        45.0: roundtrip_run(params, 45.0),
        105.0: roundtrip_105,
        120.0: roundtrip_120,
    }
    for total_time, (f_expected, theta_expected) in ROUNDTRIP.items():
        rt = results[total_time]
        assert abs(rt.fidelity - f_expected) < 1e-5, total_time
        assert abs(rt.theta_opt - theta_expected) < 1e-3, total_time
    assert results[105.0].fidelity > 0.99


def test_phase_correction_matters(roundtrip_105):
    # applying the correction pi away from the optimum nearly destroys the
    # readout for the equal superposition
    final = roundtrip_105.retrieval.final
    bad = corrected_fidelity(final, roundtrip_105.theta_opt + np.pi)
    assert bad < 0.1
    assert roundtrip_105.fidelity > 0.99


def test_optimized_phase_agrees_with_grid_scan(roundtrip_105):
    final = roundtrip_105.retrieval.final
    theta, f_best = optimize_retrieval_phase(final)
    grid = np.linspace(0.0, 2 * np.pi, 20001)
    vals = [corrected_fidelity(final, th) for th in grid]
    assert f_best >= max(vals) - 1e-9
    assert abs(f_best - max(vals)) < 1e-6
    spacing = grid[1] - grid[0]
    diff = abs((theta - grid[int(np.argmax(vals))] + np.pi) % (2 * np.pi) - np.pi)
    assert diff < 2 * spacing


def test_single_branch_needs_no_correction():
    # storing only the ground branch, the readout is theta independent
    params = ModelParams(n_fock=20)
    rt = roundtrip_run(params, 60.0, alpha_f=1.0, beta_f=0.0)
    f0 = corrected_fidelity(rt.retrieval.final, 0.0, 1.0, 0.0)
    f1 = corrected_fidelity(rt.retrieval.final, 2.2, 1.0, 0.0)
    assert abs(f0 - f1) < 1e-12
    assert rt.fidelity > 0.995


def test_roundtrip_is_closed_form_in_branch_return_amplitudes():
    # U|g,0> and U|e,0> lie in different parity chains, so every input's
    # round trip follows from q_g = <g,0|U|g,0> and q_e = <e,0|U|e,0>
    params = ModelParams(n_fock=12)
    cfg = PropagatorConfig.for_total_time(12.0, steps=500)
    final = roundtrip_run(params, 12.0, cfg).retrieval.final.amplitudes
    q_g, q_e = np.sqrt(2.0) * final[[params.dims.index(0, 0), params.dims.index(1, 0)]]
    inputs = [(1.0, 0.0), (0.0, 1.0), (0.6j, 0.8 * np.exp(0.7j)), (RSQRT2, -RSQRT2)]
    for alpha, beta in inputs:
        rt = roundtrip_run(params, 12.0, cfg, alpha, beta)
        expected = (abs(alpha) ** 2 * abs(q_g) + abs(beta) ** 2 * abs(q_e)) ** 2
        assert abs(rt.fidelity - expected) < 1e-12
        if alpha != 0 and beta != 0:
            gap = (rt.theta_opt - np.angle(q_e) + np.angle(q_g)) % (2 * np.pi)
            assert min(gap, 2 * np.pi - gap) < 1e-12


def test_retrieval_from_exact_eigenstate():
    # reading out the exact full-coupling ground state lands on |g,0>
    # regardless of the phase correction
    params = ModelParams()
    stored = State(params.dims, sector_spectra(params, [params.omega0], 1)[0].states[:, 0])
    cfg = PropagatorConfig.for_total_time(105.0)
    final = propagate(params, retrieval_schedule(params, 105.0), stored, cfg).final
    f = corrected_fidelity(final, 0.0, 1.0, 0.0)
    assert f > 0.999
    assert abs(f - corrected_fidelity(final, 1.9, 1.0, 0.0)) < 1e-12


# --------------------------------------------------------------------------
# phase landscape
# --------------------------------------------------------------------------

def test_landscape_shapes_and_start(landscape_105):
    land = landscape_105
    assert land.theta_grid.shape == (64,)
    assert land.fidelity.shape == (len(land.times), 64)
    # before any coupling the input equals the target at theta = 0
    assert abs(land.fidelity[0, 0] - 1.0) < 1e-9
    assert land.theta_opt[0] == 0.0
    assert int(np.argmax(land.fidelity[0])) == 0


def test_landscape_ridge_frozen_values(landscape_105, landscape_120):
    for land, total_time in ((landscape_105, 105.0), (landscape_120, 120.0)):
        ridge = land.fidelity.max(axis=1)
        assert abs(ridge.min() - RIDGE_MIN[total_time]) < 1e-4
        assert ridge.min() > 0.99


def test_landscape_theta_curves_differ(landscape_105, landscape_120):
    a, b = landscape_105.theta_opt, landscape_120.theta_opt
    assert a.shape == b.shape
    diff = np.abs((a - b + np.pi) % (2 * np.pi) - np.pi)
    assert abs(diff.max() - THETA_CURVE_MAX_DIFF) < 0.01
    assert diff.max() > 0.3


def test_landscape_endpoint_matches_closed_form(landscape_105, roundtrip_105):
    # the gridded optimum at the end of the write sweep should sit within
    # one grid spacing of the closed-form roundtrip correction
    spacing = 2 * np.pi / 64
    th_grid = landscape_105.theta_opt[-1]
    th_exact = roundtrip_105.theta_opt
    diff = abs((th_grid - th_exact + np.pi) % (2 * np.pi) - np.pi)
    assert diff <= spacing


def test_landscape_rejects_coarse_theta_grid():
    params = ModelParams(n_fock=6)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    with pytest.raises(ValueError):
        phase_landscape(params, RSQRT2, RSQRT2, sched, cfg, theta_points=16)


# --------------------------------------------------------------------------
# protocol timing
# --------------------------------------------------------------------------

def test_optimal_evolution_time_prefers_slower_sweep():
    params = ModelParams(n_fock=12)
    t_best, records = optimal_evolution_time(params, [20.0, 60.0])
    assert t_best == 60.0
    assert len(records) == 2
    by_time = {r[0]: r for r in records}
    assert by_time[60.0][1] > by_time[20.0][1]
    # same inputs, bit-identical table
    t_again, records_again = optimal_evolution_time(params, [20.0, 60.0])
    assert t_again == t_best
    assert records_again == records


def test_physical_time_conversion():
    assert physical_time(2 * np.pi, 1.0) == pytest.approx(1.0, rel=1e-12)
    ns = physical_time(105.0, 5e9) * 1e9
    assert ns == pytest.approx(3.342, abs=0.01)
    # linear in t, inverse in frequency
    assert physical_time(210.0, 5e9) == pytest.approx(2 * physical_time(105.0, 5e9))
    assert physical_time(105.0, 10e9) == pytest.approx(physical_time(105.0, 5e9) / 2)


def test_propagator_config_validation():
    with pytest.raises(ValueError):
        PropagatorConfig(dt=0.0)
    with pytest.raises(ValueError):
        PropagatorConfig(dt=0.1, record_every=0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=400)
    assert cfg.dt == pytest.approx(0.025)
