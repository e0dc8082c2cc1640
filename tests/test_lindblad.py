"""Dressed-basis zero-temperature relaxation channel and master equation.

The frozen transition rates were derived independently by diagonalizing an
explicitly assembled Hamiltonian and evaluating matrix elements of the bare
noise operators between the lowest dressed levels. The package builds the
same elements from the parity-chain eigenvectors; the dense operators of
``reference`` check them.
"""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from uscmem import (
    CouplingSchedule,
    ModelParams,
    NoiseRates,
    PositivityError,
    PropagatorConfig,
    State,
    branch_block,
    build_rabi,
    evolve_master,
    propagate,
    pure_density,
    readout,
    sector_eigh,
    sector_spectra,
    storage_input,
    storage_schedule,
    validate_density,
)
from uscmem import dynamics, lindblad, run_experiment, spectral
from uscmem.cli import RunConfig, build_spec
from uscmem.lindblad import _rate_table
from uscmem.model import SECTOR_BATCH

from reference import (
    RSQRT2, annihilation_op, basis_state, branch_phase_correction, corrected_fidelity,
    density_block, levels_on_cells, pauli_op, samples_on_cells, site, state_fidelity,
)

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


# the full reference point and each channel alone
CHANNEL_MIXES = [NoiseRates.for_qubit_splitting(0.1)] + [
    NoiseRates(*(g if i == c else 0.0 for i, g in enumerate((1e-4, 1e-4, 1e-4, 1e-5))))
    for c in range(4)
]


def _chain_levels(params, coupling, k_levels):
    """The k_levels lowest levels at one coupling as a sweep step sees them:
    energies, sectors and chain vectors (k_levels, n_fock)."""
    spec = sector_spectra(params, [coupling], k_levels)
    return spec.energies[0], spec.sector[0], spec.states[0]


def _labelled_rates(params, coupling, rates, k_levels=12, rate_model="flat"):
    """Nonzero rates of the jumps |j><k| among the dressed levels at one
    coupling, keyed by (j, k)."""
    gain = _rate_table(*_chain_levels(params, coupling, k_levels), rates, params, rate_model)
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


def test_unknown_rate_model_rejected():
    params = ModelParams(n_fock=6)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    rho0 = pure_density(storage_input(params))
    with pytest.raises(ValueError, match="rate_model"):
        evolve_master(params, sched, rho0, NoiseRates.for_qubit_splitting(0.1), cfg,
                      rate_model="linear")


def test_ohmic_scales_by_transition_energy_over_omega_cav():
    # away from omega_cav = 1 the ohmic weight is Delta E / omega_cav
    params = ModelParams(omega_cav=2.0, n_fock=12)
    e = np.linalg.eigvalsh(build_rabi(params, 1.0))
    rates = NoiseRates.for_qubit_splitting(0.1)
    flat = _labelled_rates(params, 1.0, rates)
    ohm = _labelled_rates(params, 1.0, rates, rate_model="ohmic")
    assert set(ohm) <= set(flat) and len(ohm) > 10
    for (j, k), rate in ohm.items():
        assert rate == pytest.approx(flat[(j, k)] * (e[k] - e[j]) / 2, rel=1e-12)


def test_uncoupled_qubit_jumps():
    # at zero coupling, sigma_x relaxation connects |e,n> -> |g,n> only
    params = ModelParams(n_fock=6)
    rates = NoiseRates(gamma_x=1e-4, gamma_y=0, gamma_z=0, gamma_r=0)
    table = _labelled_rates(params, 0.0, rates, k_levels=6)
    # levels ordered g0, e0, g1, e1, g2, e2; three downward qubit flips
    assert set(table) == {(0, 1), (2, 3), (4, 5)}
    for rate in table.values():
        assert rate == pytest.approx(1e-4, rel=1e-9)


def test_uncoupled_photon_jumps():
    params = ModelParams(n_fock=6)
    rates = NoiseRates(gamma_x=0, gamma_y=0, gamma_z=0, gamma_r=1e-5)
    table = _labelled_rates(params, 0.0, rates, k_levels=6)
    # photon loss within each qubit branch, rate n * gamma_r
    assert set(table) == {(0, 2), (1, 3), (2, 4), (3, 5)}
    assert table[(0, 2)] == pytest.approx(1e-5, rel=1e-9)
    assert table[(2, 4)] == pytest.approx(2e-5, rel=1e-9)


def test_uncoupled_dephasing_is_silent():
    # sigma_z is diagonal in the bare basis: no downward jumps survive
    params = ModelParams(n_fock=6)
    rates = NoiseRates(gamma_x=0, gamma_y=0, gamma_z=1e-4, gamma_r=0)
    assert _labelled_rates(params, 0.0, rates, k_levels=6) == {}


def test_dressed_rates_frozen_values():
    params = ModelParams(n_fock=20)

    sx = _labelled_rates(params, 1.0, NoiseRates(1e-4, 0, 0, 0))
    for jk, expected in SX_RATES.items():
        assert sx[jk] == pytest.approx(expected, rel=1e-6)

    sy = _labelled_rates(params, 1.0, NoiseRates(0, 1e-4, 0, 0))
    assert sy[(0, 1)] == pytest.approx(SY_RATE_01, rel=1e-6)

    sz = _labelled_rates(params, 1.0, NoiseRates(0, 0, 1e-4, 0))
    assert sz[(0, 2)] == pytest.approx(SZ_RATE_02, rel=1e-6)

    xr = _labelled_rates(params, 1.0, NoiseRates(0, 0, 0, 1e-5))
    for jk, expected in X_RATES.items():
        assert xr[jk] == pytest.approx(expected, rel=1e-6)

    # channels merge additively per transition
    full = _labelled_rates(params, 1.0, NoiseRates.for_qubit_splitting(0.1))
    merged_01 = SX_RATES[(0, 1)] + SY_RATE_01 + X_RATES[(0, 1)]
    assert full[(0, 1)] == pytest.approx(merged_01, rel=1e-6)

    # the lowest transition spans the protocol doublet gap
    e = np.linalg.eigvalsh(build_rabi(params, 1.0))
    assert abs((e[1] - e[0]) - DOUBLET_GAP) < 1e-9


def test_ohmic_rescales_by_transition_energy():
    params = ModelParams(n_fock=20)
    e = np.linalg.eigvalsh(build_rabi(params, 1.0))
    flat = _labelled_rates(params, 1.0, NoiseRates(1e-4, 0, 0, 0))
    ohm = _labelled_rates(params, 1.0, NoiseRates(1e-4, 0, 0, 0), rate_model="ohmic")
    for (j, k), rate in flat.items():
        assert ohm[(j, k)] == pytest.approx(rate * (e[k] - e[j]), rel=1e-9)


def _chain_elements(sector, u, params):
    """sigma_x, sigma_y, sigma_z and a + a^dag between the levels, built
    from their chain vectors u exactly as the rate table builds them."""
    index = params.chains.index
    su = (2 * (index // params.n_fock) - 1)[sector] * u
    hu = u @ params.chains.hop
    cross = sector[:, None] != sector[None, :]
    signed = u @ su.T
    return cross * (u @ u.T), cross * signed, ~cross * signed, cross * (u @ hu.T)


def _loop_rate_table(energies, sector, states, rates, params, model):
    """Per-pair double loop over the levels: the oracle for the vectorized
    merge, floor and ohmic scale, as [(j, k, merged rate)] in ascending (j, k)."""
    k_levels = len(sector)
    base = [rates.gamma_x, rates.gamma_y, rates.gamma_z, rates.gamma_r]
    merged = {}
    for elem, gamma in zip(_chain_elements(sector, states, params), base):
        if gamma == 0.0:
            continue
        for k in range(k_levels):
            for j in range(k_levels):
                delta = energies[k] - energies[j]
                if delta <= 0.0:
                    continue
                scale = gamma * float(delta) / params.omega_cav if model == "ohmic" else gamma
                rate = scale * float(abs(elem[j, k]) ** 2)
                if rate >= 1e-14:
                    merged[(j, k)] = merged.get((j, k), 0.0) + rate
    return [(j, k, r) for (j, k), r in sorted(merged.items())]


def test_rate_table_matches_the_double_loop():
    # the loop squares |elem| with libm pow, which may be 1 ulp from the
    # correctly rounded array square; the channel sum can add 1 ulp more
    params = ModelParams(n_fock=10)
    for coupling in (0.0, 0.4, 1.0):
        for k_levels in (2, 7, 20):
            levels = _chain_levels(params, coupling, k_levels)
            for model in ("flat", "ohmic"):
                for rates in CHANNEL_MIXES:
                    got = _rate_table(*levels, rates, params, model)
                    want = np.zeros((k_levels, k_levels))
                    table = _loop_rate_table(*levels, rates, params, model)
                    for j, k, rate in table:
                        want[j, k] = rate
                    np.testing.assert_array_max_ulp(got, want, maxulp=2)
                    assert [(int(j), int(k)) for j, k in zip(*np.nonzero(got))] == [
                        (j, k) for j, k, _ in table]


@pytest.mark.parametrize("model", ["flat", "ohmic"])
@pytest.mark.parametrize("k_levels", [2, 12, 24])
def test_batched_refresh_tables_match_single_refreshes(model, k_levels):
    # evolve_master builds the tables of SECTOR_BATCH refreshes with one
    # sector_spectra over all levels and one _rate_table call; each entry is
    # bit for bit the table of that refresh alone, and the first width
    # levels are bit for bit a spectrum of width levels
    params = ModelParams(n_fock=20)
    rates = NoiseRates.for_qubit_splitting(params.omega_eg)
    couplings = np.linspace(0.0, 1.5, SECTOR_BATCH)
    spec = sector_spectra(params, couplings, 2 * params.n_fock)
    width = k_levels + 12
    energies, sector, states = (a[:, :width] for a in (spec.energies, spec.sector, spec.states))
    narrow = sector_spectra(params, couplings, width)
    assert np.array_equal(narrow.energies, energies) and np.array_equal(narrow.sector, sector)
    assert np.array_equal(narrow.states, states)
    gain = _rate_table(energies[:, :k_levels], sector[:, :k_levels], states[:, :k_levels],
                       rates, params, model)
    assert gain.shape == (SECTOR_BATCH, k_levels, k_levels) and gain.any(axis=(1, 2)).all()
    for i in range(SECTOR_BATCH):
        one_spec = sector_spectra(params, couplings[i:i + 1], 2 * params.n_fock)
        e, s, b = (a[0, :width] for a in (one_spec.energies, one_spec.sector, one_spec.states))
        assert np.array_equal(e, energies[i]) and np.array_equal(s, sector[i])
        assert np.array_equal(b, states[i])
        one = _rate_table(e[:k_levels], s[:k_levels], b[:k_levels], rates, params, model)
        assert np.array_equal(one, gain[i]), i


def _dense_rate_table(energies, states, rates, params, model):
    """Rate table with the channel operators built densely and sandwiched
    between the full-basis levels (columns of states)."""
    nf = params.n_fock
    a = annihilation_op(nf)
    ops = (pauli_op("x", nf), pauli_op("y", nf), pauli_op("z", nf), a + a.conj().T)
    delta = energies[None, :] - energies[:, None]
    down = delta > 0.0
    gain = np.zeros(delta.shape)
    for op, gamma in zip(ops, (rates.gamma_x, rates.gamma_y, rates.gamma_z, rates.gamma_r)):
        elem = states.T @ op @ states
        scale = gamma * delta[down] / params.omega_cav if model == "ohmic" else gamma
        rate = scale * np.abs(elem[down]) ** 2
        gain[down] += np.where(rate >= 1e-14, rate, 0.0)
    return gain


def test_chain_rate_table_matches_dense_operators():
    for n_fock in (6, 10, 20, 30):
        params = ModelParams(n_fock=n_fock)
        for coupling in (0.0, 0.4, 1.0, 1.5):
            depth = min(20, 2 * n_fock)
            energies, sector, states = _chain_levels(params, coupling, depth)
            cells = levels_on_cells(params, sector, states)
            for k_levels in range(2, depth + 1):
                e, sec, st = energies[:k_levels], sector[:k_levels], states[:k_levels]
                for model in ("flat", "ohmic"):
                    for rates in CHANNEL_MIXES:
                        got = _rate_table(e, sec, st, rates, params, model)
                        want = _dense_rate_table(e, cells[:, :k_levels], rates, params, model)
                        assert np.array_equal(got != 0.0, want != 0.0)
                        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_k_levels_bounds():
    # the sweep refuses a table wider than the space or without a jump
    params = ModelParams(n_fock=4)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    rates = NoiseRates.for_qubit_splitting(0.1)
    rho0 = pure_density(storage_input(params))
    for k_levels in (9, 1):
        with pytest.raises(ValueError, match="k_levels"):
            evolve_master(params, sched, rho0, rates, cfg, k_levels=k_levels)


def _short_master(**kwargs):
    params = ModelParams(n_fock=6)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    return evolve_master(params, storage_schedule(params, 10.0),
                         pure_density(storage_input(params)),
                         NoiseRates.for_qubit_splitting(0.1), cfg, **kwargs)


@pytest.mark.parametrize("name, value, build", [
    ("n_fock", 12.0, lambda n: ModelParams(n_fock=n)),
    ("record_every", 10.0, lambda n: PropagatorConfig(dt=0.1, record_every=n)),
    ("k_levels", 4.0, lambda n: _short_master(k_levels=n)),
    ("refresh_every", 2.5, lambda n: _short_master(refresh_every=n)),
], ids=["n_fock", "record_every", "k_levels", "refresh_every"])
def test_counts_must_be_integers(name, value, build):
    # a float count meets its range check but would fail deep in a sweep
    # with a TypeError; the guard names it, and a numpy integer is an integer
    with pytest.raises(ValueError, match=rf"{name} must be an integer.*got {value}"):
        build(value)
    build(np.int64(value))


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
    # one NaN entry fails the checks rather than slipping past them
    nan_rho = rho.copy()
    nan_rho[0, 0] = np.nan
    with pytest.raises(ValueError):
        validate_density(nan_rho)


def test_fidelity_mixed_limits():
    params = ModelParams(n_fock=4)
    psi = basis_state(params.n_fock, 0, 0)
    _, f = readout(density_block(pure_density(psi), params.n_fock), 1.0, 0.0, 0.0)
    assert f == pytest.approx(1.0)
    d = 2 * params.n_fock
    rho = np.eye(d, dtype=complex) / d
    _, f = readout(density_block(rho, params.n_fock), 1.0, 0.0, 0.0)
    assert f == pytest.approx(1.0 / d)


# --------------------------------------------------------------------------
# master equation
# --------------------------------------------------------------------------

def test_zero_rates_reduce_to_closed_dynamics():
    params = ModelParams(n_fock=12)
    sched = storage_schedule(params, 20.0)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)
    psi0 = storage_input(params)
    pure = State(samples_on_cells(params, propagate(params, sched, psi0, cfg).amplitudes[-1]))
    mt = evolve_master(params, sched, pure_density(psi0), NoiseRates(0, 0, 0, 0), cfg)
    assert state_fidelity(mt.final, pure) > 1 - 1e-8
    assert mt.times[-1] == 20.0


def test_uncoupled_decay_is_exponential():
    # population e^{-Gamma t}, coherence e^{-Gamma t / 2}
    params = ModelParams(n_fock=4)
    gamma = 0.01
    total_time = 100.0
    sched = CouplingSchedule(0.0, 0.0, total_time)
    cfg = PropagatorConfig.for_total_time(total_time)
    rates = NoiseRates(gamma_x=gamma, gamma_y=0, gamma_z=0, gamma_r=0)
    i_g, i_e = site(params.n_fock, 0, 0), site(params.n_fock, 1, 0)

    rho0 = pure_density(basis_state(params.n_fock, 1, 0))
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
    ground = State(vectors[:, 0])
    excited = State(vectors[:, 1])
    rates = NoiseRates(gamma_x=0.01, gamma_y=0.01, gamma_z=0.01, gamma_r=1e-3)
    sched = CouplingSchedule(1.0, 1.0, 200.0)
    cfg = PropagatorConfig.for_total_time(200.0)
    mt = evolve_master(params, sched, pure_density(excited), rates, cfg)
    fids = np.array([state_fidelity(mt.rhos[i], ground) for i in range(len(mt.times))])
    assert np.all(np.diff(fids) > -1e-10)
    assert fids[-1] > fids[0] + 0.3


def test_master_input_validation(monkeypatch):
    params = ModelParams(n_fock=6)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    rates = NoiseRates.for_qubit_splitting(0.1)
    with pytest.raises(ValueError):
        evolve_master(params, sched, np.eye(3, dtype=complex), rates, cfg)
    rho0 = pure_density(storage_input(params))
    with pytest.raises(ValueError):
        evolve_master(params, sched, rho0, rates, cfg, refresh_every=0)

    # rho0 is checked as the step-0 sample, before any step is taken
    def no_step(*args):
        raise AssertionError("stepped before rho0 was checked")

    monkeypatch.setattr(dynamics, "_propagator_batches", no_step)
    monkeypatch.setattr(spectral, "sector_eigh", no_step)
    with pytest.raises(ValueError, match="rho0 trace"):
        evolve_master(params, sched, 2 * rho0, rates, cfg)


@pytest.mark.parametrize("omega0, refresh_every", [(1.0, 20), (3.0, 7)])
def test_master_diagonalizes_only_at_refreshes(monkeypatch, omega0, refresh_every):
    # the only eigensystems are those of the refresh midpoints, SECTOR_BATCH
    # per call, also when the frame widens (at omega0 3, from the last
    # refresh's levels)
    params = ModelParams(n_fock=20, omega0=omega0)
    sched = storage_schedule(params, 20.0)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)
    calls = []

    def spy(params, couplings):
        calls.append(couplings)
        return sector_eigh(params, couplings)

    monkeypatch.setattr(spectral, "sector_eigh", spy)
    widths = _spy_widths(monkeypatch)
    evolve_master(params, sched, pure_density(storage_input(params)),
                  NoiseRates.for_qubit_splitting(0.1), cfg, refresh_every=refresh_every)
    refreshes = np.arange(0, 500, refresh_every)
    dt = 20.0 / 500
    assert [len(c) for c in calls] == [len(c) for c in np.array_split(
        refreshes, range(SECTOR_BATCH, len(refreshes), SECTOR_BATCH))]
    assert np.array_equal(np.concatenate(calls), sched.coupling_at((refreshes + 0.5) * dt))
    widened = omega0 == 3.0
    assert len(widths) == len(refreshes) + widened and (40 in widths) == widened


def test_refresh_eigensystems_are_checked(monkeypatch):
    # one eigenvector of the first refresh batch off by 1e-6 at its second
    # site, where the lowest chain-0 level has next to no weight at the
    # sweep's small first coupling
    def perturbed(params, couplings):
        w, v = sector_eigh(params, couplings)
        v[0, 0, 1, 0] += 1e-6
        return w, v

    monkeypatch.setattr(spectral, "sector_eigh", perturbed)
    params = ModelParams(n_fock=10)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500)
    with pytest.raises(RuntimeError, match="eigenpair residual above tolerance"):
        evolve_master(params, storage_schedule(params, 10.0), pure_density(storage_input(params)),
                      NoiseRates.for_qubit_splitting(0.1), cfg)


def test_master_samples_are_held_once():
    # every step recorded: the trajectory's samples dominate a leg's memory,
    # and the sweep holds them in one array, not a list plus a stacked copy
    params = ModelParams(n_fock=10)
    sched = storage_schedule(params, 10.0)
    cfg = PropagatorConfig.for_total_time(10.0, steps=500, record_every=1)
    rates = NoiseRates.for_qubit_splitting(0.1)
    rho0 = pure_density(storage_input(params))
    evolve_master(params, sched, rho0, rates, cfg)  # warm the per-params caches
    tracemalloc.start()
    try:
        mt = evolve_master(params, sched, rho0, rates, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mt.rhos.shape == (501, 20, 20)
    assert peak < 1.5 * mt.rhos.nbytes, peak / mt.rhos.nbytes


def _lab_frame_master(params, schedule, rho0, rates, cfg, k_levels, refresh_every, model):
    """Reference sweep in the lab frame: dense midpoint eigh, rho <- U rho U^dag,
    then the dissipator taken into the refresh basis of sector_spectra,
    laid on the cells, and back on every step.
    Returns the samples at step 0, every record_every steps and the last."""
    d = 2 * params.n_fock
    n_steps = round(schedule.total_time / cfg.dt)
    dt = schedule.total_time / n_steps
    rho = np.array(rho0, dtype=complex)
    samples = [rho.copy()]
    for i in range(n_steps):
        coupling = schedule.coupling_at((i + 0.5) * dt)
        energies, vectors = np.linalg.eigh(build_rabi(params, coupling))
        u = (vectors * np.exp(-1j * energies * dt)) @ vectors.conj().T
        rho = u @ rho @ u.conj().T
        if i % refresh_every == 0:
            levels, sector, states = _chain_levels(params, coupling, d)
            basis = levels_on_cells(params, sector, states)
            gain = np.zeros((d, d))
            for j, k, rate in _loop_rate_table(levels[:k_levels], sector[:k_levels],
                                               states[:k_levels], rates, params, model):
                gain[j, k] = rate
            out_rate = gain.sum(axis=0)
        rho_d = basis.conj().T @ rho @ basis
        drho = -0.5 * (out_rate[:, None] + out_rate[None, :]) * rho_d
        drho[np.diag_indices(d)] += gain @ np.real(np.diag(rho_d))
        rho = rho + dt * (basis @ drho @ basis.conj().T)
        if (i + 1) % cfg.record_every == 0 or i + 1 == n_steps:
            samples.append(rho.copy())
    return np.array(samples)


def _tenfold_reference_rates():
    base = NoiseRates.for_qubit_splitting(0.1)
    return NoiseRates(*(10 * g for g in (base.gamma_x, base.gamma_y, base.gamma_z, base.gamma_r)))


def test_master_frame_step_matches_lab_frame_reference():
    # n_fock = 8: the 12 + 12 carried levels cover all 16, so the frame is exact;
    # a record every 7 steps does not divide the 500, so the last sample ends a short run
    params = ModelParams(n_fock=8)
    sched = storage_schedule(params, 20.0)
    rates = _tenfold_reference_rates()
    rho0 = pure_density(storage_input(params))
    for record_every, n_recorded in ((10, 51), (7, 73)):
        cfg = PropagatorConfig.for_total_time(20.0, steps=500, record_every=record_every)
        for model in ("flat", "ohmic"):
            mt = evolve_master(params, sched, rho0, rates, cfg, refresh_every=3, rate_model=model)
            want = _lab_frame_master(params, sched, rho0, rates, cfg, 12, 3, model)
            assert mt.rhos.shape == want.shape == (n_recorded, 16, 16)
            assert np.abs(mt.rhos - want).max() < 1e-12


def _truncated_frame_run(omega0, refresh_every=3):
    """A sweep at n_fock = 20, where 24 of the 40 levels are carried, and
    the lab-frame reference of the same sweep."""
    params = ModelParams(omega0=omega0, n_fock=20)
    sched = storage_schedule(params, 20.0)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)
    rates = _tenfold_reference_rates()
    rho0 = pure_density(storage_input(params))
    mt = evolve_master(params, sched, rho0, rates, cfg, refresh_every=refresh_every)
    want = _lab_frame_master(params, sched, rho0, rates, cfg, 12, refresh_every, "flat")
    assert mt.rhos.shape == want.shape == (51, 40, 40)
    return (params, sched, rho0, rates, cfg, 12, refresh_every, "flat"), mt, want


def _spy_widths(monkeypatch):
    """The width of every frame refresh of evolve_master, in call order:
    each refresh moves rho_f into its basis once, whatever batch of
    refreshes its tables came from."""
    widths = []
    to_basis = lindblad._to_basis

    def spy(rho_f, frame, basis):
        widths.append(basis.shape[1])
        return to_basis(rho_f, frame, basis)

    monkeypatch.setattr(lindblad, "_to_basis", spy)
    return widths


def test_truncated_frame_matches_lab_frame_reference(monkeypatch):
    widths = _spy_widths(monkeypatch)
    args, mt, want = _truncated_frame_run(1.0)
    params = args[0]
    # the 24 carried levels lose less than a tenth of the trace budget, so
    # the frame never widens: each of the 167 refreshes is 24 levels wide
    assert widths == [24] * 167
    idx = np.array([site(params.n_fock, 0, 0), site(params.n_fock, 1, 0)])
    got_block, want_block = mt.rhos[:, idx[:, None], idx], want[:, idx[:, None], idx]
    assert np.abs(got_block - want_block).max() < 1e-9
    _, f_got = readout(got_block, RSQRT2, RSQRT2, None)
    _, f_want = readout(want_block, RSQRT2, RSQRT2, None)
    assert np.abs(f_got - f_want).max() < 1e-9
    lost = 1.0 - np.real(np.trace(mt.rhos, axis1=1, axis2=2))
    assert lost.max() <= 1e-8
    # Elementwise rho is not held at 1e-12: the coherences between the
    # carried levels and the dropped ones are O(sqrt(trace lost)), about
    # 1.2e-7 here, while every populated level agrees to roundoff.


def test_truncated_frame_widens_to_every_level(monkeypatch):
    # at omega0 = 3 the 24 carried levels would lose more than the 1e-8
    # trace budget, so once they have lost a tenth of it the frame widens
    # to all 40 levels of the last refresh and the sweep goes on there
    widths = _spy_widths(monkeypatch)
    args, mt, want = _truncated_frame_run(3.0)
    params = args[0]
    wide = widths.index(40)
    assert 0 < wide and widths == [24] * wide + [40] * (len(widths) - wide)
    lost = 1.0 - np.real(np.trace(mt.rhos, axis1=1, axis2=2))
    assert lost.max() <= 1e-8
    idx = np.array([site(params.n_fock, 0, 0), site(params.n_fock, 1, 0)])
    got_block, want_block = mt.rhos[:, idx[:, None], idx], want[:, idx[:, None], idx]
    assert np.abs(got_block - want_block).max() < 2e-8


def test_frame_widens_between_refreshes_in_the_last_refresh_basis(monkeypatch):
    # at omega0 = 2 and refresh_every = 20 the frame widens between two
    # scheduled refreshes, so the widening must redo the last scheduled
    # refresh's levels, not take the current step's
    widths = _spy_widths(monkeypatch)
    args, mt, want = _truncated_frame_run(2.0, refresh_every=20)
    params = args[0]
    # 500 steps give 25 scheduled refreshes; the one more is the widening
    wide = widths.index(40)
    assert len(widths) == 26 and widths == [24] * wide + [40] * (26 - wide)
    idx = params.chains.index[:, 0]
    got_block, want_block = mt.rhos[:, idx[:, None], idx], want[:, idx[:, None], idx]
    assert np.abs(got_block - want_block).max() < 1e-7


# noisy --set omega0=3 --set T=20 --set dt=0.04 --set refresh_every=7, as
# computed with the tables built one refresh at a time
WIDE_IN_BATCH = {"F_s_final": 0.9644462502446699, "theta_opt": 5.480374610105038,
                 "trace_lost": 2.4608842741358217e-09}


def test_frame_widens_inside_a_table_batch(monkeypatch):
    # The read leg's frame widens for step 8, at refresh 1 of its first
    # table batch, so refreshes 1 to 31, built 24 levels wide, must be
    # rebuilt 40 wide; the write leg widens for step 223, within refresh 31
    overrides = {"omega0": 3.0, "T": 20.0, "dt": 0.04, "refresh_every": 7}
    widths = _spy_widths(monkeypatch)
    scalars = run_experiment(build_spec(RunConfig("noisy", overrides))).scalars
    # 72 scheduled refreshes per leg and the write leg's widening
    assert widths == [24] * 32 + [40] * 41 + [24] + [40] * 71
    for name, want in WIDE_IN_BATCH.items():
        assert abs(scalars[name] - want) <= 1e-12, name

    widened = []  # per leg, the first step after which the frame is 40 wide
    sweep = lindblad._sweep

    def spy(params, midpoints, dt, steps, x0, step, record):
        leg = len(widened)
        widened.append(None)

        def one_step_at_a_time(x, us, i):
            for k in range(len(us)):
                x = step(x, us[k:k + 1], i + k)
                if widened[leg] is None and len(x) == 40:
                    widened[leg] = i + k + 1
            return x

        return sweep(params, midpoints, dt, steps, x0, one_step_at_a_time, record)

    monkeypatch.setattr(lindblad, "_sweep", spy)
    run_experiment(build_spec(RunConfig("noisy", overrides)))
    assert widened == [223, 8]


# noisy --set n_fock=30 --set omega0=3 --set T=20 --set dt=0.04, as
# computed with every refresh level laid on the cells before its rates
NARROW_FRAME = {"F_s_final": 0.9613587763966878, "theta_opt": 5.4824846321892,
                "trace_lost": 2.0789118204689316e-09}


def test_frame_narrower_than_a_chain(monkeypatch):
    # At n_fock 30 the 24-level frame is narrower than one 30-site chain,
    # so each refresh keeps fewer levels than its spectrum holds. The write
    # leg widens to all 60 after its tenth refresh, the read leg after its
    # first
    widths = _spy_widths(monkeypatch)
    overrides = {"n_fock": 30, "omega0": 3.0, "T": 20.0, "dt": 0.04}
    scalars = run_experiment(build_spec(RunConfig("noisy", overrides))).scalars
    assert widths == [24] * 10 + [60] * 16 + [24] + [60] * 25
    for name, want in NARROW_FRAME.items():
        assert abs(scalars[name] - want) <= 1e-12, name


@pytest.mark.parametrize("omega0", [1.0, 3.0])
def test_block_records_match_the_full_samples(omega0):
    # omega0 = 1 keeps the 24-level frame and omega0 = 3 widens it to all
    # 40 levels mid-sweep; either way the block records are the full
    # samples' blocks, and final is the full last sample
    args, mt, _ = _truncated_frame_run(omega0)
    idx = args[0].chains.index[:, 0]
    block = evolve_master(*args, cells=idx)
    assert block.rhos.shape == (51, 2, 2)
    assert np.array_equal(block.rhos, mt.rhos[:, idx[:, None], idx])
    assert np.array_equal(block.final, mt.rhos[-1])
    assert np.array_equal(mt.final, mt.rhos[-1])


def test_a_failed_check_ends_the_one_sweep(monkeypatch):
    # gamma_x = 50 breaks positivity at step 1. The check fails in the one
    # 24-level sweep, and its error is final: no second sweep runs
    params = ModelParams(n_fock=20)
    sched = storage_schedule(params, 20.0)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500, record_every=1)
    rates = replace(NoiseRates.for_qubit_splitting(params.omega_eg), gamma_x=50.0)
    widths = _spy_widths(monkeypatch)
    sweeps = []

    def spy(*args):
        sweeps.append(args)
        return dynamics._sweep(*args)

    monkeypatch.setattr(lindblad, "_sweep", spy)
    with pytest.raises(PositivityError, match="rho at step 1 "):
        evolve_master(params, sched, pure_density(storage_input(params)), rates, cfg)
    assert len(sweeps) == 1
    assert widths == [24]


def test_noisy_readout_frozen_value(noisy_legs):
    params, psi_s, leg_in, leg_out = noisy_legs
    rho_final = leg_out.final
    validate_density(rho_final, "readout")
    theta, f_best = readout(density_block(rho_final, params.n_fock), RSQRT2, RSQRT2, None)
    assert abs(f_best - 0.991436) < 1e-4

    # grid-scan oracle for the closed-form phase optimum
    best_grid = 0.0
    psi = psi_s.amplitudes
    for th in np.linspace(0.0, 2 * np.pi, 4001):
        c = branch_phase_correction(params.n_fock, th)
        val = float(np.real(np.vdot(c.conj().T @ psi, rho_final @ (c.conj().T @ psi))))
        best_grid = max(best_grid, val)
    assert f_best >= best_grid - 1e-9
    assert abs(f_best - best_grid) < 1e-6


def test_mixed_corrected_fidelity_matches_pure_state_formula():
    # on a pure state, from its amplitudes or its density matrix, the (w, z)
    # branch formula is |<psi_s|C(theta)|psi>|^2
    params = ModelParams(n_fock=6)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=2 * params.n_fock) + 1j * rng.normal(size=2 * params.n_fock)
    state = State(amps / np.linalg.norm(amps))
    blocks = (branch_block(state.amplitudes[params.chains.index]),
              density_block(pure_density(state), params.n_fock))
    for alpha_f, beta_f in ((2 ** -0.5, 2 ** -0.5), (0.6, 0.8j)):
        for theta in (0.0, 0.7, 2.5, 4.0, 5.9):
            expected = corrected_fidelity(state, theta, alpha_f, beta_f)
            for block in blocks:
                _, got = readout(block, alpha_f, beta_f, theta)
                assert got == pytest.approx(expected, abs=1e-14)
    # a block past the roundoff allowance is an error, not a clipped 1
    with pytest.raises(ValueError, match="outside"):
        readout(np.full((2, 2), 0.5 * (1 + 2e-8)), RSQRT2, RSQRT2, 0.0)


def test_noisy_samples_stay_valid_densities(noisy_legs):
    _, _, leg_in, leg_out = noisy_legs
    for mt in (leg_in, leg_out):
        for i in range(0, len(mt.times), 40):
            validate_density(mt.rhos[i], f"sample {i}")
        tr = float(np.real(np.trace(mt.final)))
        assert abs(tr - 1.0) < 1e-8
