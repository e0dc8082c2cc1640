"""Acceptance suite: every shipped claim at its stated tolerance.

Each test appends one pass/fail line to the acceptance log, which the
terminal reporter prints as a block after the run. Heavy protocol runs come
from the session fixtures in conftest.py so they are computed once.
"""
import numpy as np

from uscmem import (
    ExperimentSpec,
    ModelParams,
    PropagatorConfig,
    beam_splitter,
    cat_approximant,
    optimize_retrieval_phase_mixed,
    parity_op,
    physical_time,
    propagate,
    run_experiment,
    sector_spectra,
    storage_input,
    storage_schedule,
    two_mode_index,
)


def _check(log, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    log.append(line)
    assert ok, line


# --------------------------------------------------------------------------
# headline protocol numbers
# --------------------------------------------------------------------------

def test_equal_superposition_roundtrip(acceptance_log, roundtrip_105):
    f = roundtrip_105.fidelity
    _check(
        acceptance_log,
        "round-trip fidelity >= 0.99 at T=105, n_fock=30, dt=T/2000",
        f >= 0.99,
        f"F_s = {f:.6f}, theta_opt = {roundtrip_105.theta_opt:.4f}",
    )


def test_cat_approximants_track_doublet(acceptance_log, params30):
    worst_g = worst_e = 1.0
    couplings = np.linspace(0.8, 1.0, 21)
    for om, spec in zip(couplings, sector_spectra(params30, couplings, 2)):
        cat_g = cat_approximant(params30, float(om), "G").amplitudes
        cat_e = cat_approximant(params30, float(om), "E").amplitudes
        worst_g = min(worst_g, abs(np.vdot(spec.states[:, 0], cat_g)) ** 2)
        worst_e = min(worst_e, abs(np.vdot(spec.states[:, 1], cat_e)) ** 2)
    _check(
        acceptance_log,
        "cat approximant overlaps >= 0.97 for coupling in [0.8, 1.0]",
        worst_g >= 0.97 and worst_e >= 0.97,
        f"min F_G = {worst_g:.6f}, min F_E = {worst_e:.6f}",
    )


def test_phase_ridge_high_and_time_dependent(acceptance_log, landscape_105, landscape_120):
    ridge_a = landscape_105.fidelity.max(axis=1).min()
    ridge_b = landscape_120.fidelity.max(axis=1).min()
    diff = np.abs(
        (landscape_105.theta_opt - landscape_120.theta_opt + np.pi) % (2 * np.pi) - np.pi
    )
    ok = ridge_a >= 0.99 and ridge_b >= 0.99 and diff.max() > 0.1
    _check(
        acceptance_log,
        "phase-corrected ridge >= 0.99 at T=105 and T=120 with distinct "
        "theta_opt curves",
        ok,
        f"ridge mins = {ridge_a:.6f}, {ridge_b:.6f}; "
        f"max |d theta_opt| = {diff.max():.4f} rad",
    )


def test_noisy_roundtrip_band(acceptance_log, noisy_legs):
    params, _, _, leg_out = noisy_legs
    _, f = optimize_retrieval_phase_mixed(leg_out.final, params.dims)
    _check(
        acceptance_log,
        "open-system round trip at reference rates falls in 0.9939 +- 0.01",
        abs(f - 0.9939) <= 0.01,
        f"F_s = {f:.6f} (n_fock = 20, flat spectral density)",
    )


def test_entangled_register_survives(acceptance_log, entangled_105):
    f_store = entangled_105.scalars["storage_fidelity"]
    f_back = entangled_105.scalars["roundtrip_fidelity"]
    _check(
        acceptance_log,
        "two-cell register: storage and round trip >= 0.98 at n_fock=15",
        f_store >= 0.98 and f_back >= 0.98,
        f"storage = {f_store:.6f}, round trip = {f_back:.6f}",
    )


def test_protocol_duration_in_physical_units(acceptance_log):
    ns = physical_time(105.0, 5e9) * 1e9
    _check(
        acceptance_log,
        "T=105 at a 5 GHz resonator lasts 3.34 ns +- 0.01",
        abs(ns - 3.34) <= 0.01,
        f"duration = {ns:.4f} ns",
    )


# --------------------------------------------------------------------------
# property guarantees
# --------------------------------------------------------------------------

def test_property_norm_preservation(acceptance_log, roundtrip_105):
    drift = 0.0
    for traj in (roundtrip_105.storage, roundtrip_105.retrieval):
        norms = np.linalg.norm(traj.amplitudes, axis=1)
        drift = max(drift, float(np.abs(norms - 1.0).max()))
    # a short fresh run under a far stricter per-step budget must also pass
    params = ModelParams(n_fock=10)
    cfg = PropagatorConfig(dt=20.0 / 500, norm_tol=1e-12)
    propagate(params, storage_schedule(params, 20.0), storage_input(params), cfg)
    _check(
        acceptance_log,
        "norm drift < 1e-9 along every recorded sweep sample",
        drift < 1e-9,
        f"max |norm - 1| = {drift:.2e}",
    )


def test_property_parity_conservation(acceptance_log, roundtrip_105, params30):
    p = parity_op(params30.dims)
    drift = 0.0
    for traj in (roundtrip_105.storage, roundtrip_105.retrieval):
        vals = np.real(
            np.einsum("ij,jk,ik->i", traj.amplitudes.conj(), p, traj.amplitudes)
        )
        # the equal superposition balances the two parity sectors at zero
        drift = max(drift, float(np.abs(vals).max()))
    _check(
        acceptance_log,
        "parity expectation drift < 1e-7 across the full cycle",
        drift < 1e-7,
        f"max |<P>| = {drift:.2e}",
    )


def test_property_density_validity(acceptance_log, noisy_legs):
    _, _, leg_in, leg_out = noisy_legs
    trace_dev = herm_dev = 0.0
    lowest = 0.0
    for mt in (leg_in, leg_out):
        for i in range(0, mt.n_recorded, 20):
            rho = mt.rhos[i]
            trace_dev = max(trace_dev, abs(float(np.real(np.trace(rho))) - 1.0))
            herm_dev = max(herm_dev, float(np.abs(rho - rho.conj().T).max()))
            lowest = min(lowest, float(np.linalg.eigvalsh(rho)[0]))
    ok = trace_dev < 1e-8 and herm_dev < 1e-10 and lowest > -1e-6
    _check(
        acceptance_log,
        "open-system samples stay trace-one, Hermitian, positive",
        ok,
        f"trace dev {trace_dev:.2e}, herm dev {herm_dev:.2e}, "
        f"lowest eigenvalue {lowest:.2e}",
    )


def test_property_truncation_convergence(acceptance_log):
    params = ModelParams(n_fock=30)
    bundle = run_experiment(ExperimentSpec(
        "convergence", params, storage_schedule(params, 105.0),
        PropagatorConfig.for_total_time(105.0), n_fock_alt=40,
    ))
    delta = bundle.scalars["max_abs_delta"]
    _check(
        acceptance_log,
        "lowest four levels shift < 1e-8 from n_fock 30 to 40",
        delta < 1e-8,
        f"max |delta E| = {delta:.2e}",
    )


def test_property_integrator_order(acceptance_log):
    params = ModelParams(n_fock=8)
    sched = storage_schedule(params, 10.0)
    psi0 = storage_input(params)

    def final_at(steps):
        cfg = PropagatorConfig.for_total_time(10.0, steps=steps)
        return propagate(params, sched, psi0, cfg).final.amplitudes

    ref = final_at(8000)
    ratio = float(
        np.linalg.norm(final_at(500) - ref) / np.linalg.norm(final_at(1000) - ref)
    )
    _check(
        acceptance_log,
        "halving dt cuts the propagation error by about 4x",
        3.0 <= ratio <= 5.0,
        f"error ratio = {ratio:.3f}",
    )


def test_property_interference_dip(acceptance_log):
    n_fock = 4
    psi = np.zeros(n_fock * n_fock, dtype=complex)
    psi[two_mode_index(n_fock, 1, 1)] = 1.0
    out = beam_splitter(psi, 0.5)
    coincidence = abs(out[two_mode_index(n_fock, 1, 1)])
    _check(
        acceptance_log,
        "balanced splitter nulls the two-photon coincidence below 1e-10",
        coincidence < 1e-10,
        f"|amplitude| = {coincidence:.2e}",
    )
