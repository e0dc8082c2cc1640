"""Beam splitter, the two-cell register against a dense U x U reference,
and the experiment driver."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from uscmem import (
    EXPERIMENTS,
    CouplingSchedule,
    ExperimentError,
    ExperimentSpec,
    ModelParams,
    PropagatorConfig,
    TruncationError,
    beam_splitter,
    build_gauge_chain,
    build_rabi,
    doublet_amplitudes,
    propagate,
    readout,
    run_experiment,
    sector_spectra,
    storage_input,
    storage_schedule,
)

from reference import kron_cat, parity_op, site

RSQRT2 = 2 ** -0.5

# frozen register fidelities at n_fock = 15, T = 105 (derived independently)
REGISTER_STORAGE = 0.999702
REGISTER_ROUNDTRIP = 0.999224


# --------------------------------------------------------------------------
# beam splitter
# --------------------------------------------------------------------------

def _single_photon(n_fock, mode):
    psi = np.zeros((n_fock, n_fock), dtype=complex)
    psi[(1, 0) if mode == 0 else (0, 1)] = 1.0
    return psi


def test_balanced_splitter_single_photon():
    out = beam_splitter(_single_photon(4, 0), 0.5)
    assert out.shape == (4, 4)
    assert abs(abs(out[1, 0]) - RSQRT2) < 1e-12
    assert abs(abs(out[0, 1]) - RSQRT2) < 1e-12
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_splitter_limits():
    psi = _single_photon(4, 0)
    assert np.allclose(beam_splitter(psi, 1.0), psi, atol=1e-12)
    swapped = beam_splitter(psi, 0.0)
    assert abs(abs(swapped[0, 1]) - 1.0) < 1e-12


def test_hong_ou_mandel_dip():
    psi = np.zeros((4, 4), dtype=complex)
    psi[1, 1] = 1.0
    out = beam_splitter(psi, 0.5)
    assert abs(out[1, 1]) < 1e-10
    assert abs(abs(out[2, 0]) - RSQRT2) < 1e-10
    assert abs(abs(out[0, 2]) - RSQRT2) < 1e-10


def test_splitter_conserves_photons_and_norm():
    rng = np.random.default_rng(29)
    n_fock = 6
    number = np.add.outer(np.arange(n_fock), np.arange(n_fock)).astype(float)
    psi = np.zeros((n_fock, n_fock), dtype=complex)
    for n_a in range(n_fock):
        for n_b in range(n_fock):
            if n_a + n_b <= n_fock - 1:
                psi[n_a, n_b] = rng.normal() + 1j * rng.normal()
    psi /= np.linalg.norm(psi)
    before = float(np.sum(number * np.abs(psi) ** 2))
    for trans in (0.3, 0.5, 0.8):
        out = beam_splitter(psi, trans, phase=0.7)
        after = float(np.sum(number * np.abs(out) ** 2))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert abs(after - before) < 1e-10


def test_splitter_overflow_guard():
    psi = np.zeros((4, 4), dtype=complex)
    psi[2, 2] = 1.0
    with pytest.raises(TruncationError):
        beam_splitter(psi, 0.5)
    # negligible weight on the overflow shell is tolerated
    psi2 = np.zeros((4, 4), dtype=complex)
    psi2[0, 0] = 1.0
    psi2[2, 2] = 1e-13
    beam_splitter(psi2 / np.linalg.norm(psi2), 0.5)


def test_splitter_rejects_bad_transmissivity():
    psi = _single_photon(4, 0)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            beam_splitter(psi, bad)


@pytest.mark.parametrize("shape", [(27,), (16,), (3, 4), (2, 2, 2)])
def test_splitter_rejects_non_square_states(shape):
    # a two-mode state is state[n_a, n_b]; flat and ragged layouts are refused
    with pytest.raises(ValueError, match="square"):
        beam_splitter(np.zeros(shape, dtype=complex), 0.5)


# --------------------------------------------------------------------------
# two-cell register
# --------------------------------------------------------------------------

def _dense_register(params, schedule, cfg, m0):
    """Independent U x U sweep of a two-cell state along schedule and back.

    The joint state is the matrix M[i1, i2] of cell 1 by cell 2 amplitudes,
    and each midpoint step is M -> U M U^T with U = expm(-i dt H) of the
    dense cell Hamiltonian. Returns the recorded M of each leg, sampled as
    the experiment samples its curves.
    """
    m = m0
    legs = []
    for sched in (schedule, schedule.reversed()):
        n_steps = round(sched.total_time / cfg.dt)
        dt = sched.total_time / n_steps
        samples = [m]
        for i in range(n_steps):
            u = scipy.linalg.expm(-1j * dt * build_rabi(params, sched.coupling_at((i + 0.5) * dt)))
            m = u @ m @ u.T
            if (i + 1) % cfg.record_every == 0 or i + 1 == n_steps:
                samples.append(m)
        legs.append(np.array(samples))
    return legs


def _pair_fidelity(m, vec_g, vec_e):
    """Overlap of M with (|G>|E> + |E>|G>)/sqrt(2), maximized over one
    excited-branch phase correction per cell."""
    c_ge = vec_g.conj() @ m @ vec_e.conj()
    c_eg = vec_e.conj() @ m @ vec_g.conj()
    return ((abs(c_ge) + abs(c_eg)) / np.sqrt(2.0)) ** 2


def _cell_entropies(m):
    """Von Neumann entropies (nats) of cell 1 and cell 2 of M."""
    out = []
    for rho in (m @ m.conj().T, m.T @ m.conj()):
        probs = np.linalg.eigvalsh(rho)
        probs = probs[probs > 1e-15]
        out.append(float(-np.sum(probs * np.log(probs))))
    return out


@pytest.fixture(scope="module")
def dense_register():
    # the sweep stops short of params.omega0, so the storage target has to
    # be the doublet where the write leg ends
    params = ModelParams(n_fock=10)
    schedule = CouplingSchedule(0.0, 0.8, 20.0)
    cfg = PropagatorConfig.for_total_time(20.0, steps=500)
    g0, e0 = site(params.n_fock, 0, 0), site(params.n_fock, 1, 0)
    m0 = np.zeros((2 * params.n_fock,) * 2, dtype=complex)
    m0[g0, e0] = m0[e0, g0] = RSQRT2
    bundle = run_experiment(ExperimentSpec("entangled", params, schedule, cfg))
    return params, bundle, _dense_register(params, schedule, cfg, m0)


def test_dense_register_matches_closed_form(dense_register):
    params, bundle, (m_s, m_r) = dense_register
    g0, e0 = site(params.n_fock, 0, 0), site(params.n_fock, 1, 0)
    for name, m in (("entangled_storage", m_s), ("entangled_retrieval", m_r)):
        fbar = np.abs((m[:, g0, e0] + m[:, e0, g0]) * RSQRT2) ** 2
        assert np.abs(bundle.curves[name]["F_s"] - fbar).max() < 1e-10
    _, vecs = np.linalg.eigh(build_rabi(params, 0.8))
    f_store = _pair_fidelity(m_s[-1], vecs[:, 0], vecs[:, 1])
    basis = np.eye(2 * params.n_fock)
    f_back = _pair_fidelity(m_r[-1], basis[g0], basis[e0])
    assert abs(bundle.scalars["storage_fidelity"] - f_store) < 1e-10
    assert abs(bundle.scalars["roundtrip_fidelity"] - f_back) < 1e-10


def test_register_joint_parity_conserved(dense_register):
    params, _, legs = dense_register
    p = np.real(np.diag(parity_op(params.n_fock)))
    for m in legs:
        joint = np.einsum("kij,i,j->k", np.abs(m) ** 2, p, p)
        assert np.abs(joint + 1.0).max() < 1e-9


def test_entropy_symmetric_between_cells(dense_register):
    # local unitaries keep the shared excitation maximally entangled
    _, _, legs = dense_register
    for m in legs:
        for sample in m:
            assert np.allclose(_cell_entropies(sample), np.log(2.0), rtol=0, atol=1e-9)


def test_local_sweep_cannot_entangle_product_input():
    params = ModelParams(n_fock=8)
    g0 = site(params.n_fock, 0, 0)
    m0 = np.zeros((2 * params.n_fock,) * 2, dtype=complex)
    m0[g0, g0] = 1.0
    cfg = PropagatorConfig.for_total_time(15.0, steps=500)
    _, m_r = _dense_register(params, storage_schedule(params, 15.0), cfg, m0)
    assert max(_cell_entropies(m_r[-1])) < 1e-6


def test_register_storage_and_return_frozen(entangled_105):
    f_store = entangled_105.scalars["storage_fidelity"]
    f_back = entangled_105.scalars["roundtrip_fidelity"]
    assert abs(f_store - REGISTER_STORAGE) < 1e-5
    assert abs(f_back - REGISTER_ROUNDTRIP) < 1e-5
    # the two branch phases coincide, so the read curve ends on the return
    # fidelity with no correction applied
    assert entangled_105.curves["entangled_retrieval"]["F_s"][-1] == f_back


def test_register_storage_targets_the_end_of_the_write_leg():
    # params.omega0 plays no part once the schedule is fixed
    schedule = CouplingSchedule(0.0, 0.5, 105.0)
    cfg = PropagatorConfig.for_total_time(105.0)
    f_store = [
        run_experiment(ExperimentSpec("entangled", ModelParams(n_fock=15, omega0=omega0),
                                      schedule, cfg)).scalars["storage_fidelity"]
        for omega0 in (1.0, 0.5)
    ]
    assert f_store[0] == f_store[1]
    assert f_store[0] > 0.999


# --------------------------------------------------------------------------
# experiment driver
# --------------------------------------------------------------------------

def _tiny_spec(name, **kw):
    # n_fock = 12 is the smallest truncation whose full-coupling cat
    # columns clear the coherent tail guard, and it stays cheap
    params = kw.pop("params", ModelParams(n_fock=12))
    total_time = kw.pop("total_time", 12.0)
    return ExperimentSpec(
        name=name,
        params=params,
        schedule=storage_schedule(params, total_time),
        cfg=PropagatorConfig.for_total_time(total_time, steps=500),
        **kw,
    )


def test_experiment_names_are_registered():
    assert set(EXPERIMENTS) == {
        "spectrum",
        "storage",
        "retrieval",
        "roundtrip",
        "phase-map",
        "noisy",
        "entangled",
        "convergence",
    }


def test_spectrum_experiment_bundle():
    spec = _tiny_spec("spectrum", omega_points=7)
    bundle = run_experiment(spec)
    curve = bundle.curves["spectrum"]
    assert len(curve["omega"]) == 7
    # energies come in doublets with alternating parity labels
    assert curve["E0"][-1] < curve["E1"][-1] < curve["E2"][-1]
    overlap = bundle.curves["cat_overlap"]
    assert list(overlap) == ["omega", "F_G", "F_E"]
    assert bundle.scalars["F_G_min"] > 0.9
    assert bundle.scalars["gap_at_peak"] > 0


def test_storage_experiment_curve_layout():
    spec = _tiny_spec("storage")
    bundle = run_experiment(spec)
    curve = bundle.curves["storage"]
    assert list(curve) == ["t", "omega", "F_s", "F_G", "F_E"]
    assert curve["t"][0] == 0.0
    assert curve["F_s"][0] == pytest.approx(1.0, abs=1e-12)
    assert "F_s_final" in bundle.scalars


def test_storage_cat_columns_match_dense_doublet():
    # F_G and F_E against the textbook cats and the lowest dense eigenvector
    # of each parity sector, told apart by the parity operator
    spec = _tiny_spec("storage")
    curve = run_experiment(spec).curves["storage"]
    params = spec.params
    parity = np.real(np.diag(parity_op(params.n_fock)))
    for c, f_g, f_e in zip(curve["omega"], curve["F_G"], curve["F_E"]):
        vectors = np.linalg.eigh(build_rabi(params, float(c)))[1]
        sector = parity @ np.abs(vectors) ** 2  # <P> of each eigenvector
        for which, sign, got in (("G", -1.0, f_g), ("E", 1.0, f_e)):
            v = vectors[:, np.flatnonzero(sector * sign > 0)[0]]
            want = abs(np.vdot(kron_cat(params, float(c), which).amplitudes, v)) ** 2
            assert abs(got - want) < 1e-12, (c, which)


def test_doublet_consumers_share_one_contraction():
    # storage's storage_fidelity, the last phase-map row and the register's
    # storage_fidelity all read c, the final write state's amplitudes on
    # the ground doublet where the write leg ends
    specs = {name: _tiny_spec(name, total_time=20.0)
             for name in ("storage", "phase-map", "entangled")}
    spec = specs["phase-map"]
    params = spec.params
    psi = propagate(params, spec.schedule, storage_input(params), spec.cfg).amplitudes[-1]
    _, pair = build_gauge_chain(params, [params.omega0])
    c = doublet_amplitudes(psi, pair[0])
    _, f = readout(np.outer(c, c.conj()), RSQRT2, RSQRT2, None)
    assert abs(run_experiment(specs["storage"]).scalars["storage_fidelity"] - f) < 1e-12
    # the theta grid comes within pi / theta_points of the optimum, where
    # F(theta) = w + 2 |z| cos(theta - theta_opt)
    z = abs(RSQRT2 * RSQRT2 * c[0] * np.conj(c[1]))
    slack = 2 * z * (1 - np.cos(np.pi / spec.theta_points))
    top = run_experiment(spec).landscapes["landscape"].rows()[-1].max()
    assert f - slack - 1e-12 <= top <= f + 1e-12
    register = run_experiment(specs["entangled"]).scalars["storage_fidelity"]
    assert abs(register - 4 * abs(c[0] * c[1]) ** 2) < 1e-12


def test_roundtrip_experiment_times_concatenate():
    spec = _tiny_spec("roundtrip")
    bundle = run_experiment(spec)
    t_in = bundle.curves["storage"]["t"]
    t_out = bundle.curves["retrieval"]["t"]
    assert t_in[0] == 0.0 and t_in[-1] == pytest.approx(12.0)
    assert t_out[0] == pytest.approx(12.0) and t_out[-1] == pytest.approx(24.0)
    for key in ("F_s_final", "F_s_storage", "theta_opt", "storage_fidelity"):
        assert key in bundle.scalars
    assert bundle.scalars["F_s_final"] == pytest.approx(
        bundle.curves["retrieval"]["F_s"][-1]
    )


def test_retrieval_experiment_is_the_roundtrip_read_leg():
    # both experiments write along the configured schedule and read along
    # its reverse, so a nonzero start coupling is honoured by both
    spec = replace(_tiny_spec("retrieval"), schedule=CouplingSchedule(0.3, 1.0, 12.0))
    retrieval = run_experiment(spec)
    roundtrip = run_experiment(replace(spec, name="roundtrip"))
    curve = retrieval.curves["retrieval"]
    assert curve["omega"][-1] == pytest.approx(0.3)
    assert list(curve) == list(roundtrip.curves["retrieval"])
    for key, column in curve.items():
        assert np.array_equal(column, roundtrip.curves["retrieval"][key]), key
    for key in ("F_s_final", "theta_opt"):
        assert retrieval.scalars[key] == roundtrip.scalars[key]
    assert set(retrieval.scalars) == {"F_s_final", "theta_opt"}


def test_noisy_fixed_theta_reproduces_the_optimum():
    spec = _tiny_spec("noisy")
    optimized = run_experiment(spec)
    fixed = run_experiment(replace(spec, theta=optimized.scalars["theta_opt"]))
    assert fixed.scalars["theta_opt"] == optimized.scalars["theta_opt"]
    assert abs(fixed.scalars["F_s_final"] - optimized.scalars["F_s_final"]) < 1e-12
    # a correction away from the optimum reads out less
    off = run_experiment(replace(spec, theta=optimized.scalars["theta_opt"] + 1.0))
    assert off.scalars["F_s_final"] < optimized.scalars["F_s_final"] - 1e-3


def test_noisy_reports_the_trace_its_frame_lost():
    # n_fock = 20 carries 24 of its 40 dressed levels and loses a little
    # weight above them; n_fock = 12 carries all 24, so it loses roundoff.
    # At omega0 = 2 and 3 (T = 20) each leg loses a tenth of the trace
    # budget and then widens to all 40 levels; at omega0 = 3 the read leg
    # does so within its first 20 steps, before its first scheduled refresh
    rows = ((ModelParams(n_fock=20), 12.0, 1e-11, 1e-8),
            (ModelParams(n_fock=12), 12.0, -1e-12, 1e-12),
            (ModelParams(omega0=2.0, n_fock=20), 20.0, 1e-10, 1e-8),
            (ModelParams(omega0=3.0, n_fock=20), 20.0, 1e-10, 1e-8))
    for params, total_time, low, high in rows:
        bundle = run_experiment(_tiny_spec("noisy", params=params, total_time=total_time))
        assert low < bundle.scalars["trace_lost"] < high, params


def test_noisy_legs_are_not_held_at_once():
    # every step recorded at n_fock = 12, where the frame carries all 24
    # levels: each leg keeps only its 2 x 2 qubit blocks and its final
    # state, so the run stays well under one leg of full samples
    spec = replace(_tiny_spec("noisy"),
                   cfg=PropagatorConfig.for_total_time(12.0, steps=500, record_every=1))
    run_experiment(spec)  # warm the per-params caches
    tracemalloc.start()
    try:
        bundle = run_experiment(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = 2 * spec.params.n_fock
    leg_bytes = 501 * d * d * np.dtype(np.complex128).itemsize
    assert len(bundle.curves["noisy"]["t"]) == 2 * 501 - 1
    assert peak < 1.5 * leg_bytes, peak / leg_bytes


def test_noisy_records_only_the_qubit_block():
    # every step recorded at n_fock = 20: each leg keeps its 2 x 2 qubit
    # blocks and its final state, far less than one leg of full samples
    params = ModelParams(n_fock=20)
    spec = replace(_tiny_spec("noisy", params=params, total_time=20.0),
                   cfg=PropagatorConfig.for_total_time(20.0, steps=500, record_every=1))
    run_experiment(spec)  # warm the per-params caches
    tracemalloc.start()
    try:
        bundle = run_experiment(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    leg_bytes = 501 * 40 * 40 * np.dtype(np.complex128).itemsize
    assert len(bundle.curves["noisy"]["t"]) == 2 * 501 - 1
    assert peak < 0.25 * leg_bytes, peak / leg_bytes


def test_run_experiment_is_deterministic():
    a = run_experiment(_tiny_spec("storage"))
    b = run_experiment(_tiny_spec("storage"))
    for key in a.curves["storage"]:
        assert np.array_equal(a.curves["storage"][key], b.curves["storage"][key])
    assert a.scalars == b.scalars


def test_spec_hash_tracks_parameters():
    a = _tiny_spec("storage")
    b = _tiny_spec("storage", params=ModelParams(n_fock=14))
    assert a.spec_hash != b.spec_hash
    assert len(a.spec_hash) == 64


def test_spec_validation_collects_problems():
    params = ModelParams(n_fock=8, omega_eg=1.5)
    fields = dict(
        name="phase-map",
        params=params,
        schedule=storage_schedule(params, 12.0),
        cfg=PropagatorConfig.for_total_time(12.0, steps=500),
        alpha_f=1.0,
        beta_f=1.0,
    )
    # a scalar's own range holds at construction, whatever the experiment
    with pytest.raises(ValueError, match="theta_points"):
        ExperimentSpec(**fields, theta_points=8)
    problems = ExperimentSpec(**fields).validate()
    assert len(problems) >= 2
    joined = " ".join(problems)
    assert "alpha_f" in joined and "omega_eg" in joined


def test_spec_validation_skips_unread_scalars():
    # spectrum reads no qubit and roundtrip no k_levels, so neither fails on
    # a rule that ties the value to another
    assert _tiny_spec("spectrum", alpha_f=1.0, beta_f=1.0).validate() == []
    assert _tiny_spec("roundtrip", k_levels=100).validate() == []
    # a scalar's own range holds wherever it is read or not
    with pytest.raises(ValueError, match="theta_points"):
        _tiny_spec("roundtrip", theta_points=8)


@pytest.mark.parametrize("field, value", [
    ("theta_points", 32.5), ("omega_points", 30.5), ("k_levels", 4.5), ("refresh_every", 2.5),
    ("n_fock_alt", 14.5), ("theta", float("nan")), ("theta", float("inf")),
])
def test_spec_scalars_are_checked_for_type_at_construction(field, value):
    # a library caller's float count or non-finite phase fails at once, naming
    # its own field, not later inside a stage or under another input's name
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        _tiny_spec("noisy", **{field: value})


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment(_tiny_spec("teleport"))


def test_stage_failures_carry_stage_name():
    # a sweep stepped too coarsely fails inside the propagation stage and
    # surfaces as an ExperimentError naming it
    params = ModelParams(n_fock=8)
    spec = ExperimentSpec(
        name="storage",
        params=params,
        schedule=storage_schedule(params, 12.0),
        cfg=PropagatorConfig(dt=1.0),
    )
    with pytest.raises(ExperimentError, match="stage"):
        run_experiment(spec)


def test_convergence_experiment_structure():
    spec = _tiny_spec("convergence", n_fock_alt=12)
    bundle = run_experiment(spec)
    curve = bundle.curves["convergence"]
    assert list(curve["level"]) == [0, 1, 2, 3]
    assert bundle.scalars["max_abs_delta"] >= 0
    assert np.allclose(curve["delta"], curve["E_base"] - curve["E_alt"])
    # the dense diagonalization agrees with the parity chains the sweeps use
    chain = sector_spectra(spec.params, [spec.params.omega0], 4).energies[0]
    assert np.abs(curve["E_base"] - chain).max() < 1e-12
