"""Sweep propagation, retrieval phase correction, and physical units.

Frozen numbers were produced by an independent implementation (explicit
Hamiltonian assembly, scipy-based propagation) at the default operating
point. Dynamical tests that admit a closed-form or scipy oracle carry it
inline.
"""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from uscmem import (
    CouplingSchedule,
    ExperimentError,
    ExperimentSpec,
    ModelParams,
    PropagatorConfig,
    ResultBundle,
    State,
    branch_block,
    build_gauge_chain,
    build_rabi,
    doublet_amplitudes,
    phase_landscape,
    physical_time,
    propagate,
    readout,
    roundtrip,
    run_experiment,
    sector_spectra,
    storage_input,
    storage_schedule,
)
from uscmem import dynamics, model
from uscmem.cli import emit_csv
from uscmem.dynamics import NormDriftError, _sweep
from uscmem.model import PROPAGATOR_BATCH, _propagator_batches, sector_propagators

from reference import (
    basis_state, corrected_fidelity, eigh_propagator_batches, levels_on_cells, pair_on_cells,
    parity_op, samples_on_cells, site,
)

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
    spec = sector_spectra(params, [1.0], 1)
    psi0 = State(levels_on_cells(params, spec.sector, spec.states)[0, :, 0])
    sched = CouplingSchedule(1.0, 1.0, total_time=5.0)
    traj = propagate(params, sched, psi0, PropagatorConfig.for_total_time(5.0, steps=50))
    expected = np.exp(-1j * spec.energies[0, 0] * 5.0) * psi0.amplitudes
    assert np.abs(samples_on_cells(params, traj.amplitudes[-1]) - expected).max() < 1e-9


def test_zero_coupling_is_pure_phase():
    # with the cavity decoupled, |e,0> only acquires exp(-i omega_eg t / 2)
    params = ModelParams(n_fock=6)
    psi0 = basis_state(params.n_fock, 1, 0)
    sched = CouplingSchedule(0.0, 0.0, total_time=12.0)
    traj = propagate(params, sched, psi0, PropagatorConfig.for_total_time(12.0, steps=500))
    expected = np.exp(-1j * params.omega_eg * 12.0 / 2.0) * psi0.amplitudes
    assert np.abs(samples_on_cells(params, traj.amplitudes[-1]) - expected).max() < 1e-10


def test_exchange_oscillation_against_expm_oracle():
    # weak resonant coupling: |e,0> swaps into |g,1> over a half period.
    # dual route: one-shot scipy expm versus the stepped propagator.
    params = ModelParams(n_fock=8, omega_eg=1.0)
    coupling = 0.01
    t_half = np.pi / (2 * coupling)
    h = build_rabi(params, coupling)
    psi0 = basis_state(params.n_fock, 1, 0)

    one_shot = scipy.linalg.expm(-1j * h * t_half) @ psi0.amplitudes
    sched = CouplingSchedule(coupling, coupling, t_half)
    traj = propagate(params, sched, psi0, PropagatorConfig.for_total_time(t_half))

    final = samples_on_cells(params, traj.amplitudes[-1])
    assert np.abs(final - one_shot).max() < 1e-6
    pop = abs(final[site(params.n_fock, 0, 1)]) ** 2
    assert abs(pop - 0.999925) < 1e-4


def test_propagation_is_linear():
    params = ModelParams(n_fock=8)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    a, b = 0.6, 0.8j
    psi1 = basis_state(params.n_fock, 0, 0)
    psi2 = basis_state(params.n_fock, 1, 0)
    combo = State(a * psi1.amplitudes + b * psi2.amplitudes)
    out1 = propagate(params, sched, psi1, cfg).amplitudes[-1]
    out2 = propagate(params, sched, psi2, cfg).amplitudes[-1]
    out = propagate(params, sched, combo, cfg).amplitudes[-1]
    assert np.abs(out - (a * out1 + b * out2)).max() < 1e-9


def test_norm_is_preserved_tightly():
    # a tolerance far below the contract still passes: the per-step map is
    # unitary to machine precision
    params = ModelParams(n_fock=10)
    cfg = PropagatorConfig(dt=30.0 / 600, norm_tol=1e-12)
    traj = propagate(params, storage_schedule(params, 30.0), storage_input(params), cfg)
    norms = np.linalg.norm(samples_on_cells(params, traj.amplitudes), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_norm_leak_is_caught_not_rescaled(monkeypatch):
    # nothing rescales the state, so propagators that leak 2e-11 of norm
    # per step trip the per-step check at step 50 instead of being hidden,
    # in a lone sweep and on the round trip's write leg alike
    params = ModelParams(n_fock=12)

    def leaky(params, couplings, dt):
        for us in _propagator_batches(params, couplings, dt):
            yield us * (1 + 1e-11) ** 2

    monkeypatch.setattr(dynamics, "_propagator_batches", leaky)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    with pytest.raises(NormDriftError, match="at step 50 "):
        propagate(params, storage_schedule(params, 10.0), storage_input(params), cfg)
    with pytest.raises(NormDriftError, match="at step 50 "):
        roundtrip(params, storage_schedule(params, 10.0), cfg)
    for name in ("roundtrip", "entangled"):
        spec = ExperimentSpec(name, params, storage_schedule(params, 10.0), cfg)
        with pytest.raises(ExperimentError) as caught:
            run_experiment(spec)
        assert isinstance(caught.value.__cause__, NormDriftError), name
        assert "at step 50 " in str(caught.value), name


def test_a_nan_factor_stops_the_sweep_at_its_step(monkeypatch):
    # a NaN in step 7's factor reaches the state column in that step, and
    # the norm check's comparison fails on NaN: the sweep stops there, in a
    # lone sweep and on the round trip's write leg alike
    params = ModelParams(n_fock=12)

    def poisoned(params, couplings, dt):
        for k, us in enumerate(_propagator_batches(params, couplings, dt)):
            if k == 0:
                us[6, 0, 0, 0] = np.nan  # factor 6 is step 7's (steps count from 1)
            yield us

    monkeypatch.setattr(dynamics, "_propagator_batches", poisoned)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    with pytest.raises(NormDriftError, match="nan.* at step 7 "):
        propagate(params, storage_schedule(params, 10.0), storage_input(params), cfg)
    with pytest.raises(NormDriftError, match="nan.* at step 7 "):
        roundtrip(params, storage_schedule(params, 10.0), cfg)


def test_parity_is_conserved_along_sweep():
    params = ModelParams(n_fock=12)
    p = parity_op(params.n_fock)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)

    # odd branch input stays at <P> = -1
    sched = storage_schedule(params, 20.0)
    traj_g = propagate(params, sched, storage_input(params, 1.0, 0.0), cfg)
    psi_g = samples_on_cells(params, traj_g.amplitudes)
    vals = np.real(np.einsum("ij,jk,ik->i", psi_g.conj(), p, psi_g))
    assert np.abs(vals + 1.0).max() < 1e-7

    # the equal superposition balances the sectors: <P> stays 0
    traj_s = propagate(params, sched, storage_input(params), cfg)
    psi_s = samples_on_cells(params, traj_s.amplitudes)
    vals = np.real(np.einsum("ij,jk,ik->i", psi_s.conj(), p, psi_s))
    assert np.abs(vals).max() < 1e-7


@pytest.mark.parametrize("omega_eg", [0.1, 0.0])
def test_parity_holds_exactly_by_construction(omega_eg):
    # |g,0> has parity -1; the sector engine never puts an amplitude into +1
    params = ModelParams(n_fock=12, omega_eg=omega_eg)
    plus = np.real(np.diag(parity_op(params.n_fock))) > 0
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)
    traj = propagate(params, storage_schedule(params, 20.0), basis_state(params.n_fock, 0, 0), cfg)
    assert np.all(samples_on_cells(params, traj.amplitudes)[:, plus] == 0.0)


@pytest.mark.parametrize("omega_eg", [0.1, 0.0])
def test_sector_eigensystems_match_dense_hamiltonian(omega_eg):
    # omega_eg = 0 makes the ground doublet exactly degenerate
    params = ModelParams(n_fock=20, omega_eg=omega_eg)
    couplings = np.array([0.0, 0.05, 0.3, 0.7, 1.0, 1.4])
    spec = sector_spectra(params, couplings, 2 * params.n_fock)
    cells = levels_on_cells(params, spec.sector, spec.states)
    for om, e, v in zip(couplings, spec.energies, cells):
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
        step = samples_on_cells(params, np.array([
            propagate(params, sched, basis_state(params.n_fock, q, n), cfg).amplitudes[-1]
            for q in (0, 1) for n in range(params.n_fock)
        ])).T
        exact = scipy.linalg.expm(-1j * dt * build_rabi(params, om))
        assert np.abs(step - exact).max() < 1e-12


def test_integrator_is_second_order():
    # halving dt should cut the error by about 4; accept [3, 5]
    params = ModelParams(n_fock=8)
    sched = storage_schedule(params, 10.0)
    psi0 = storage_input(params)

    def final_at(steps):
        cfg = PropagatorConfig.for_total_time(10.0, steps=steps)
        return propagate(params, sched, psi0, cfg).amplitudes[-1]

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
    assert len(traj.times) == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 10.0
    assert abs(traj.couplings[0]) < 1e-15
    assert abs(traj.couplings[-1] - 1.0) < 1e-15


@pytest.mark.parametrize("record_every, n_recorded", [(50, 11), (70, 9), (600, 2)])
def test_sweep_record_grid(record_every, n_recorded):
    # 500 steps: record_every divides them, does not, and exceeds them
    params = ModelParams(n_fock=4)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig(dt=0.02, record_every=record_every)
    recorded, runs = [], []

    def record(x, n):
        recorded.append((float(x), n))
        return -x

    def step(x, us, i):
        assert us.shape == (len(us), 2, 4, 4)
        runs.append((i, i + len(us)))
        return np.array(i + len(us) + 0.0)

    times, couplings, samples = _sweep(params, sched, cfg, np.array(0.0), step, record)
    steps = [*range(0, 500, record_every), 500]
    assert len(steps) == n_recorded
    # the runs tile the steps in order, each inside one propagator batch and
    # ending at the next recorded step at the latest
    assert [a for a, _ in runs] == [0] + [b for _, b in runs[:-1]] and runs[-1][1] == 500
    assert all(a // PROPAGATOR_BATCH == (b - 1) // PROPAGATOR_BATCH for a, b in runs)
    assert not any(a < n < b for a, b in runs for n in steps)
    # the hook sees every grid step, 0 included, and the state after step n holds n
    assert recorded == [(float(n), n) for n in steps]
    assert np.array_equal(samples, -np.array(steps))  # the samples are what it returns
    expected = np.array(steps) * 0.02
    expected[-1] = 10.0
    assert np.array_equal(times, expected)
    assert np.array_equal(couplings, [sched.coupling_at(t) for t in expected])


# --------------------------------------------------------------------------
# write sweep
# --------------------------------------------------------------------------

def test_storage_input_validation():
    params = ModelParams(n_fock=6)
    with pytest.raises(ValueError, match="must be 1"):
        storage_input(params, 1.0, 1.0)
    # a NaN weight fails the check rather than slipping past it
    with pytest.raises(ValueError, match="must be 1"):
        storage_input(params, float("nan"), 0.0)
    psi = storage_input(params, 0.6, 0.8j)
    assert abs(psi.amplitudes[site(params.n_fock, 0, 0)] - 0.6) < 1e-12
    assert abs(psi.amplitudes[site(params.n_fock, 1, 0)] - 0.8j) < 1e-12


def test_adiabatic_following_improves_with_sweep_time():
    params = ModelParams()
    ground = sector_spectra(params, [params.omega0], 1)
    v0 = levels_on_cells(params, ground.sector, ground.states)[0, :, 0]
    got = {}
    for total_time in sorted(STORAGE_GROUND):
        cfg = PropagatorConfig.for_total_time(total_time)
        traj = propagate(params, storage_schedule(params, total_time),
                         storage_input(params, 1.0, 0.0), cfg)
        _, fs = readout(branch_block(traj.amplitudes), 1.0, 0.0, 0.0)
        assert abs(fs[0] - 1.0) < 1e-9
        got[total_time] = abs(np.vdot(v0, samples_on_cells(params, traj.amplitudes[-1]))) ** 2
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
        45.0: roundtrip(params, storage_schedule(params, 45.0),
                        PropagatorConfig.for_total_time(45.0)),
        105.0: roundtrip_105,
        120.0: roundtrip_120,
    }
    for total_time, (f_expected, theta_expected) in ROUNDTRIP.items():
        rt = results[total_time]
        assert abs(rt.fidelity - f_expected) < 1e-5, total_time
        assert abs(rt.theta_opt - theta_expected) < 1e-3, total_time
    assert results[105.0].fidelity > 0.99


def test_roundtrip_matches_per_step_eigh_exponentials(monkeypatch, roundtrip_105,
                                                      roundtrip_120):
    # the fitted factors share each run's node roundoff, so their errors add
    # up coherently along a run; over a whole round trip F and theta_opt
    # still stay far below the midpoint rule's own error (about 2e-7)
    params = ModelParams()
    monkeypatch.setattr(dynamics, "_propagator_batches", eigh_propagator_batches)
    for total_time, fitted in ((105.0, roundtrip_105), (120.0, roundtrip_120)):
        oracle = roundtrip(params, storage_schedule(params, total_time),
                           PropagatorConfig.for_total_time(total_time))
        assert abs(fitted.fidelity - oracle.fidelity) < 2e-12, total_time
        assert abs(fitted.theta_opt - oracle.theta_opt) < 2e-12, total_time


def test_roundtrip_takes_few_exact_factors(monkeypatch):
    # at the roundtrip defaults the write leg takes its exact factors at the
    # fit's nodes alone: fewer than one per 16 steps, and no eigensolver
    nodes = []

    def counting(params, couplings, dt):
        nodes.extend(couplings)
        return sector_propagators(params, couplings, dt)

    monkeypatch.setattr(model, "sector_propagators", counting)
    monkeypatch.setattr(np.linalg, "eigh", _no_eigensolver)
    params = ModelParams()
    roundtrip(params, storage_schedule(params, 105.0), PropagatorConfig.for_total_time(105.0))
    assert 0 < len(nodes) < 2000 / 16


def test_phase_correction_matters(params30, roundtrip_105):
    # applying the correction pi away from the optimum nearly destroys the
    # readout for the equal superposition
    read = samples_on_cells(params30, roundtrip_105.retrieval.amplitudes)
    final = State(read[-1])
    bad = corrected_fidelity(final, roundtrip_105.theta_opt + np.pi)
    assert bad < 0.1
    assert roundtrip_105.fidelity > 0.99
    # the read curve's branch formula agrees with the dense C(theta) on every sample
    dense = [corrected_fidelity(State(amps), roundtrip_105.theta_opt)
             for amps in read]
    assert np.abs(roundtrip_105.retrieval_fs - dense).max() < 1e-14


def test_optimized_phase_agrees_with_grid_scan(params30, roundtrip_105):
    final_pair = roundtrip_105.retrieval.amplitudes[-1]
    final = State(samples_on_cells(params30, final_pair))
    theta, f_best = readout(branch_block(final_pair), RSQRT2, RSQRT2, None)
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
    rt = roundtrip(params, storage_schedule(params, 60.0), PropagatorConfig.for_total_time(60.0),
                   alpha_f=1.0, beta_f=0.0)
    final = State(samples_on_cells(params, rt.retrieval.amplitudes[-1]))
    f0 = corrected_fidelity(final, 0.0, 1.0, 0.0)
    f1 = corrected_fidelity(final, 2.2, 1.0, 0.0)
    assert abs(f0 - f1) < 1e-12
    assert rt.fidelity > 0.995


def test_roundtrip_is_closed_form_in_branch_return_amplitudes():
    # U|g,0> and U|e,0> lie in different parity chains, so every input's
    # round trip follows from q_g = <g,0|U|g,0> and q_e = <e,0|U|e,0>
    params = ModelParams(n_fock=12)
    schedule = storage_schedule(params, 12.0)
    cfg = PropagatorConfig.for_total_time(12.0, steps=500)
    final = samples_on_cells(params, roundtrip(params, schedule, cfg).retrieval.amplitudes[-1])
    q_g, q_e = np.sqrt(2.0) * final[[site(params.n_fock, 0, 0), site(params.n_fock, 1, 0)]]
    inputs = [(1.0, 0.0), (0.0, 1.0), (0.6j, 0.8 * np.exp(0.7j)), (RSQRT2, -RSQRT2)]
    for alpha, beta in inputs:
        rt = roundtrip(params, schedule, cfg, alpha, beta)
        expected = (abs(alpha) ** 2 * abs(q_g) + abs(beta) ** 2 * abs(q_e)) ** 2
        assert abs(rt.fidelity - expected) < 1e-12
        if alpha != 0 and beta != 0:
            gap = (rt.theta_opt - np.angle(q_e) + np.angle(q_g)) % (2 * np.pi)
            assert min(gap, 2 * np.pi - gap) < 1e-12
        else:
            # one branch: no relative phase to correct, as the noisy experiment reports
            assert rt.theta_opt == 0.0


@pytest.mark.parametrize("n_fock, record_every, omega_start, alpha, beta", [
    (10, 7, 0.0, RSQRT2, RSQRT2),   # 7 does not divide 500: mirrored grid off the write grid
    (10, 10, 0.3, 0.6, 0.8j),
    (30, 7, 0.0, 1.0, 0.0),         # one branch
    (30, 10, 0.3, RSQRT2, RSQRT2),
])
def test_read_leg_is_the_transposed_write_propagator(n_fock, record_every, omega_start,
                                                     alpha, beta):
    # the read leg built from the write leg's rows against an explicit
    # reverse sweep of the stored state, which diagonalizes every midpoint again
    params = ModelParams(n_fock=n_fock)
    schedule = CouplingSchedule(omega_start, params.omega0, 10.0)
    cfg = PropagatorConfig(dt=0.02, record_every=record_every)
    rt = roundtrip(params, schedule, cfg, alpha, beta)
    write = propagate(params, schedule, storage_input(params, alpha, beta), cfg)
    _, fs = readout(branch_block(write.amplitudes), alpha, beta, 0.0)
    stored = State(samples_on_cells(params, rt.storage.amplitudes[-1]))
    read = propagate(params, schedule.reversed(), stored, cfg)
    for got, ref in ((rt.storage, write), (rt.retrieval, read)):
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.couplings, ref.couplings)
        assert np.abs(got.amplitudes - ref.amplitudes).max() < 1e-12
    assert np.abs(rt.storage_fs - fs).max() < 1e-12
    # one site per chain keeps |g,0> and |e,0> of the same read leg, bit for bit
    branch = roundtrip(params, schedule, cfg, alpha, beta, sites=1)
    assert np.array_equal(branch.retrieval.amplitudes, rt.retrieval.amplitudes[:, :, :1])
    assert np.abs(branch.retrieval_fs - rt.retrieval_fs).max() < 1e-12
    assert np.array_equal(branch.storage.amplitudes, rt.storage.amplitudes)


@pytest.mark.parametrize("sites", [0, 7, 1.5])
def test_read_leg_sites_must_be_a_count_of_chain_sites(sites):
    # n_fock 6: sites counts the leading sites of each chain, 1 to 6
    params = ModelParams(n_fock=6)
    with pytest.raises(ValueError, match="sites must be an integer in \\[1, 6\\]"):
        roundtrip(params, storage_schedule(params, 10.0), PropagatorConfig(dt=0.02), sites=sites)


@pytest.mark.parametrize("steps", [500, 2000])
def test_roundtrip_diagonalizes_one_leg(monkeypatch, steps):
    # one propagator batch per PROPAGATOR_BATCH write steps and none for the
    # read leg: 250 at the default 2000 steps, where two sweeps made 500;
    # and no eigensolver at all
    calls = []

    def counting(params, couplings, dt):
        for us in _propagator_batches(params, couplings, dt):
            calls.append(len(us))
            yield us

    monkeypatch.setattr(dynamics, "_propagator_batches", counting)
    monkeypatch.setattr(np.linalg, "eigh", _no_eigensolver)
    params = ModelParams(n_fock=8)
    roundtrip(params, storage_schedule(params, 20.0),
              PropagatorConfig.for_total_time(20.0, steps=steps))
    assert len(calls) == -(-steps // PROPAGATOR_BATCH)
    assert sum(calls) == steps


def _no_eigensolver(*args, **kwargs):
    raise AssertionError("a closed sweep called an eigensolver")


@pytest.mark.parametrize("name", ["storage", "retrieval", "roundtrip", "phase-map", "entangled"])
def test_closed_sweeps_call_no_eigensolver(monkeypatch, name):
    # every closed sweep takes its factors from sector_propagators, and the
    # doublet comes from chain_ground, so no experiment past the spectrum
    # calls a dense eigensolver
    for solver in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, solver, _no_eigensolver)
    params = ModelParams(n_fock=12)
    sched = storage_schedule(params, 20.0)
    run_experiment(ExperimentSpec(name, params, sched, PropagatorConfig.for_total_time(20.0, 500)))


def test_retrieval_from_exact_eigenstate():
    # reading out the exact full-coupling ground state lands on |g,0>
    # regardless of the phase correction
    params = ModelParams()
    ground = sector_spectra(params, [params.omega0], 1)
    stored = State(levels_on_cells(params, ground.sector, ground.states)[0, :, 0])
    cfg = PropagatorConfig.for_total_time(105.0)
    read = propagate(params, storage_schedule(params, 105.0).reversed(), stored, cfg)
    final = State(samples_on_cells(params, read.amplitudes[-1]))
    f = corrected_fidelity(final, 0.0, 1.0, 0.0)
    assert f > 0.999
    assert abs(f - corrected_fidelity(final, 1.9, 1.0, 0.0)) < 1e-12


# --------------------------------------------------------------------------
# phase landscape
# --------------------------------------------------------------------------

def test_landscape_shapes_and_start(landscape_105):
    land = landscape_105
    assert land.theta_grid.shape == (64,)
    assert land.rows().shape == (len(land.times), 64)
    # before any coupling the input equals the target at theta = 0
    assert abs(land.rows()[0, 0] - 1.0) < 1e-9
    assert land.theta_opt[0] == 0.0
    assert int(np.argmax(land.rows()[0])) == 0


def test_landscape_ridge_frozen_values(landscape_105, landscape_120):
    for land, total_time in ((landscape_105, 105.0), (landscape_120, 120.0)):
        ridge = land.rows().max(axis=1)
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


def test_landscape_rows_match_dense_targets():
    # every row is |<target(theta)|psi>|^2 with target = alpha |G> + beta e^{i theta} |E>
    params = ModelParams(n_fock=8)
    sched = storage_schedule(params, 20.0)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500, record_every=25)
    alpha, beta = 0.6, 0.8j
    land = phase_landscape(params, alpha, beta, sched, cfg, theta_points=32)
    traj = propagate(params, sched, storage_input(params, alpha, beta), cfg)
    _, pairs = build_gauge_chain(params, traj.couplings)
    for row, psi, (g, e) in zip(land.rows(), samples_on_cells(params, traj.amplitudes),
                                pair_on_cells(params, pairs)):
        dense = [abs(np.vdot(alpha * g + beta * np.exp(1j * th) * e, psi)) ** 2
                 for th in land.theta_grid]
        assert np.abs(row - dense).max() < 1e-14
    assert np.array_equal(land.theta_opt, land.theta_grid[land.rows().argmax(axis=1)])
    assert np.array_equal(land.ridge, land.rows().max(axis=1))
    # the hook's amplitudes are the full states' amplitudes on the doublet,
    # and one readout over every phase is the per-phase loop, bit for bit
    full = doublet_amplitudes(traj.amplitudes, pairs)
    assert np.abs(land.amplitudes - full).max() < 1e-15
    c = land.amplitudes
    block = c[:, :, None] * c[:, None, :].conj()
    loop = np.column_stack([readout(block, alpha, beta, th)[1] for th in land.theta_grid])
    assert np.array_equal(land.rows(), loop)
    assert np.array_equal(land.rows(3, 7), loop[3:7])


@pytest.mark.parametrize("n_fock", [12, 30])
def test_landscape_memory_does_not_grow_with_the_phase_grid(tmp_path, n_fock):
    # the landscape keeps two amplitudes per sample and emit_csv builds its
    # rows a block at a time, so 16 times the phases add less than a quarter
    # of the growth of the (samples, phases) table that is never held
    params = ModelParams(n_fock=n_fock)
    sched = storage_schedule(params, 20.0)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500, record_every=1)
    peaks = {}
    for theta_points in (64, 1024):
        args = (params, RSQRT2, RSQRT2, sched, cfg, theta_points)
        emit_csv(ResultBundle(landscapes={"landscape": phase_landscape(*args)}), tmp_path)  # warm
        tracemalloc.start()
        try:
            land = phase_landscape(*args)
            emit_csv(ResultBundle(landscapes={"landscape": land}), tmp_path)
            peaks[theta_points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(land.times) == 501
    growth = 501 * (1024 - 64) * 8
    assert peaks[1024] - peaks[64] < growth / 4, (peaks, growth)


def test_landscape_rejects_coarse_theta_grid():
    params = ModelParams(n_fock=6)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    with pytest.raises(ValueError):
        phase_landscape(params, RSQRT2, RSQRT2, sched, cfg, theta_points=16)
    # a float count fails here, as ExperimentSpec's does, not deep in the sweep
    with pytest.raises(ValueError, match="theta_points must be an integer"):
        phase_landscape(params, RSQRT2, RSQRT2, sched, cfg, theta_points=32.5)


# --------------------------------------------------------------------------
# physical units
# --------------------------------------------------------------------------

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
