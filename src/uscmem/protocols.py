"""Memory protocols: two-mode interference tools and named experiment
drivers.

The ``entangled`` experiment is a two-cell register that stores the shared
excitation (|g e> + |e g>) |0 0> / sqrt(2) by sweeping both cells through
the same schedule; no coupling acts between the cells. Parity separates the
two branches of one cell, so a single cell's round trip of
(|g,0> + |e,0>) / sqrt(2) determines every number the register reports.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from math import acos, sqrt

import numpy as np

from .dynamics import (
    PhaseLandscape,
    PropagatorConfig,
    RSQRT2,
    Trajectory,
    _roundtrip,
    phase_landscape,
    storage_input,
    storage_run,
)
from .hilbert import TruncationError, fock_annihilation, infer_two_mode_fock
from .lindblad import (
    NoiseRates,
    corrected_fidelity_mixed,
    evolve_master,
    fidelity_mixed,
    flat_rate,
    ohmic_rate,
    optimize_retrieval_phase_mixed,
    pure_density,
)
from .model import CouplingSchedule, ModelParams, build_rabi
from .spectral import build_gauge_chain, cat_approximant, sector_spectra


class ExperimentError(RuntimeError):
    """A named experiment failed; the message carries the failing stage."""


# --------------------------------------------------------------------------
# two-mode interference
# --------------------------------------------------------------------------

def beam_splitter(state: np.ndarray, transmissivity: float, phase: float = 0.0) -> np.ndarray:
    """Mix two Fock modes, exp[xi (e^{i phi} a^dag b - e^{-i phi} a b^dag)].

    cos^2(xi) equals the transmissivity. Total photon number is conserved,
    so the input must not populate total photon sectors that the truncation
    cannot hold after mixing.
    """
    amps = np.asarray(state, dtype=np.complex128)
    nf = infer_two_mode_fock(amps)
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {transmissivity}")
    n_a, n_b = np.divmod(np.arange(nf * nf), nf)
    over = np.abs(amps[n_a + n_b > nf - 1])
    if over.size and float(over.max()) > 1e-12:
        raise TruncationError(
            "input occupies total photon sectors above the truncation; raise n_fock"
        )
    xi = acos(sqrt(transmissivity))
    a = fock_annihilation(nf)
    eye = np.eye(nf, dtype=np.complex128)
    mode_a = np.kron(a, eye)
    mode_b = np.kron(eye, a)
    gen = xi * (
        np.exp(1j * phase) * mode_a.conj().T @ mode_b
        - np.exp(-1j * phase) * mode_a @ mode_b.conj().T
    )
    herm = 1j * gen
    evals, evecs = np.linalg.eigh(herm)
    return evecs @ (np.exp(-1j * evals) * (evecs.conj().T @ amps))


# --------------------------------------------------------------------------
# named experiments
# --------------------------------------------------------------------------

EXPERIMENTS = (
    "spectrum",
    "storage",
    "retrieval",
    "roundtrip",
    "phase-map",
    "noisy",
    "entangled",
    "convergence",
)

_RATE_MODELS = ("flat", "ohmic")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one reproducible run."""

    name: str
    params: ModelParams
    schedule: CouplingSchedule
    cfg: PropagatorConfig
    alpha_f: complex = RSQRT2
    beta_f: complex = RSQRT2
    theta: float | None = None          # None: optimize the read correction
    theta_points: int = 64
    noise: NoiseRates | None = None
    k_levels: int = 12
    refresh_every: int = 20
    rate_model: str = "flat"
    omega_points: int = 41
    n_fock_alt: int = 40

    def validate(self) -> list[str]:
        problems = []
        if self.name not in EXPERIMENTS:
            problems.append(f"unknown experiment {self.name!r}")
        weight = abs(self.alpha_f) ** 2 + abs(self.beta_f) ** 2
        if abs(weight - 1.0) > 1e-6:
            problems.append(f"|alpha_f|^2 + |beta_f|^2 = {weight:.8f} must be 1")
        if self.theta_points < 32:
            problems.append(f"theta_points = {self.theta_points} below minimum 32")
        if self.k_levels < 2:
            problems.append(f"k_levels = {self.k_levels} must be >= 2")
        if self.name == "noisy" and self.k_levels > 2 * self.params.n_fock:
            problems.append(f"k_levels = {self.k_levels} exceeds 2 * n_fock = "
                            f"{2 * self.params.n_fock}")
        if self.refresh_every < 1:
            problems.append(f"refresh_every = {self.refresh_every} must be >= 1")
        if self.rate_model not in _RATE_MODELS:
            problems.append(f"rate_model must be one of {_RATE_MODELS}")
        if self.omega_points < 2:
            problems.append(f"omega_points = {self.omega_points} must be >= 2")
        if self.n_fock_alt < 2:
            problems.append(f"n_fock_alt = {self.n_fock_alt} must be >= 2")
        return problems

    def resolved(self) -> dict:
        """Canonical plain-data view used for hashing and the manifest."""
        out = asdict(self)
        for key in ("alpha_f", "beta_f"):
            out[key] = [out[key].real, out[key].imag]
        return out

    @property
    def spec_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class ResultBundle:
    """Outputs of one experiment, all tagged by the spec hash."""

    name: str
    spec_hash: str
    curves: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    landscapes: dict[str, PhaseLandscape] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)


def _stage(stage_name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(f"stage {stage_name!r} failed: {exc}") from exc


def run_experiment(spec: ExperimentSpec) -> ResultBundle:
    """Run one named experiment deterministically."""
    problems = spec.validate()
    if problems:
        raise ValueError("invalid experiment spec: " + "; ".join(problems))
    handler = {
        "spectrum": _run_spectrum,
        "storage": _run_storage,
        "retrieval": _run_retrieval,
        "roundtrip": _run_roundtrip,
        "phase-map": _run_phase_map,
        "noisy": _run_noisy,
        "entangled": _run_entangled,
        "convergence": _run_convergence,
    }[spec.name]
    return handler(spec)


def _cat_overlaps(params: ModelParams, couplings, spectra) -> list[np.ndarray]:
    """|<cat_G|state 0>|^2 and |<cat_E|state 1>|^2 of each spectrum's doublet."""
    return [
        np.array([abs(np.vdot(cat_approximant(params, float(om), label).amplitudes,
                              sp.states[:, col])) ** 2
                  for om, sp in zip(couplings, spectra)])
        for col, label in enumerate("GE")
    ]


def _run_spectrum(spec: ExperimentSpec) -> ResultBundle:
    params = spec.params
    omegas = np.linspace(0.0, params.omega0, spec.omega_points)
    spectra = _stage("sector spectra", sector_spectra, params, omegas, 4)
    rows_e = np.array([sp.energies for sp in spectra], dtype=np.float64)
    rows_p = np.array([sp.parities for sp in spectra], dtype=np.float64)
    f_g, f_e = _cat_overlaps(params, omegas, spectra)
    curves = {
        "spectrum": {
            "omega": omegas,
            "E0": rows_e[:, 0], "E1": rows_e[:, 1],
            "E2": rows_e[:, 2], "E3": rows_e[:, 3],
            "parity0": rows_p[:, 0], "parity1": rows_p[:, 1],
            "parity2": rows_p[:, 2], "parity3": rows_p[:, 3],
        },
        "cat_overlap": {"omega": omegas, "F_G": f_g, "F_E": f_e},
    }
    scalars = {
        "gap_at_peak": float(rows_e[-1, 1] - rows_e[-1, 0]),
        "F_G_min": float(f_g.min()),
        "F_E_min": float(f_e.min()),
    }
    return ResultBundle(spec.name, spec.spec_hash, curves=curves, scalars=scalars)


def _storage_curve(
    spec: ExperimentSpec, traj: Trajectory, fs: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Write-leg curve and scalars: F_s plus the cat overlaps along the
    tracked doublet, and the storage fidelity at the end of the sweep."""
    params = spec.params
    chain = _stage("eigenstate tracking", build_gauge_chain, params, traj.couplings, 2)
    f_g, f_e = _cat_overlaps(params, traj.couplings, chain.spectra)
    final_spec = chain.spectra[-1]
    c_g = np.vdot(final_spec.states[:, 0], traj.amplitudes[-1])
    c_e = np.vdot(final_spec.states[:, 1], traj.amplitudes[-1])
    storage_fid = float((abs(spec.alpha_f) * abs(c_g) + abs(spec.beta_f) * abs(c_e)) ** 2)
    curve = {
        "t": traj.times,
        "omega": traj.couplings,
        "F_s": fs,
        "F_G": f_g,
        "F_E": f_e,
    }
    scalars = {"F_s_final": float(fs[-1]), "storage_fidelity": storage_fid}
    return curve, scalars


def _run_storage(spec: ExperimentSpec) -> ResultBundle:
    traj, fs = _stage("storage sweep", storage_run,
                      spec.params, spec.alpha_f, spec.beta_f, spec.schedule, spec.cfg)
    curve, scalars = _storage_curve(spec, traj, fs)
    return ResultBundle(spec.name, spec.spec_hash, curves={"storage": curve}, scalars=scalars)


def _run_roundtrip(spec: ExperimentSpec, with_storage: bool = True) -> ResultBundle:
    """Write along spec.schedule and read along its reverse. The retrieval
    experiment is the same run reporting only its read leg."""
    rt = _stage("roundtrip", _roundtrip, spec.params, spec.schedule, spec.cfg,
                spec.alpha_f, spec.beta_f, spec.theta)
    curves = {"retrieval": {
        "t": rt.total_time + rt.retrieval.times,
        "omega": rt.retrieval.couplings,
        "F_s": rt.retrieval_fs,
    }}
    scalars = {"F_s_final": rt.fidelity, "theta_opt": float(rt.theta_opt)}
    if with_storage:
        storage_curve, storage_scalars = _storage_curve(spec, rt.storage, rt.storage_fs)
        curves = {"storage": storage_curve, **curves}
        scalars.update(storage_fidelity=storage_scalars["storage_fidelity"],
                       F_s_storage=storage_scalars["F_s_final"])
    return ResultBundle(spec.name, spec.spec_hash, curves=curves, scalars=scalars)


def _run_retrieval(spec: ExperimentSpec) -> ResultBundle:
    return _run_roundtrip(spec, with_storage=False)


def _run_phase_map(spec: ExperimentSpec) -> ResultBundle:
    land = _stage("phase landscape", phase_landscape,
                  spec.params, spec.alpha_f, spec.beta_f,
                  spec.schedule, spec.cfg, spec.theta_points)
    ridge = land.fidelity.max(axis=1)
    scalars = {
        "ridge_min": float(ridge.min()),
        "theta_opt_final": float(land.theta_opt[-1]),
    }
    return ResultBundle(spec.name, spec.spec_hash,
                        landscapes={"landscape": land}, scalars=scalars)


def _run_noisy(spec: ExperimentSpec) -> ResultBundle:
    params = spec.params
    rates = spec.noise or NoiseRates.for_qubit_splitting(params.omega_eg)
    model = flat_rate if spec.rate_model == "flat" else ohmic_rate(params.omega_cav)
    psi_s = storage_input(params, spec.alpha_f, spec.beta_f)
    rho0 = pure_density(psi_s)
    mt_s = _stage("noisy storage", evolve_master,
                  params, spec.schedule, rho0, rates, spec.cfg,
                  spec.k_levels, spec.refresh_every, model)
    mt_r = _stage("noisy retrieval", evolve_master,
                  params, spec.schedule.reversed(), mt_s.final, rates, spec.cfg,
                  spec.k_levels, spec.refresh_every, model)
    total_time = spec.schedule.total_time
    fs_s = np.array([fidelity_mixed(r, psi_s) for r in mt_s.rhos])
    fs_r = np.array([fidelity_mixed(r, psi_s) for r in mt_r.rhos])
    curve = {
        "t": np.concatenate([mt_s.times, total_time + mt_r.times[1:]]),
        "omega": np.concatenate([mt_s.couplings, mt_r.couplings[1:]]),
        "F_s": np.concatenate([fs_s, fs_r[1:]]),
    }
    if spec.theta is None:
        theta, f_final = optimize_retrieval_phase_mixed(
            mt_r.final, params.dims, spec.alpha_f, spec.beta_f
        )
    else:
        theta = spec.theta
        f_final = corrected_fidelity_mixed(
            mt_r.final, params.dims, theta, spec.alpha_f, spec.beta_f
        )
    scalars = {"F_s_final": float(f_final), "theta_opt": float(theta)}
    return ResultBundle(spec.name, spec.spec_hash, curves={"noisy": curve}, scalars=scalars)


def _run_entangled(spec: ExperimentSpec) -> ResultBundle:
    params = spec.params
    rt = _stage("register round trip", _roundtrip, params, spec.schedule, spec.cfg,
                RSQRT2, RSQRT2, 0.0)
    # Exact, not approximate: U|g,0> stays in the P = -1 chain and U|e,0> in the
    # P = +1 chain, so the register state is sqrt(2) times the two sector parts
    # of this cell's state, and each register overlap is a product of two.
    g0, e0 = params.dims.index(0, 0), params.dims.index(1, 0)
    fbar_s, fbar_r = (4 * np.abs(traj.amplitudes[:, g0] * traj.amplitudes[:, e0]) ** 2
                      for traj in (rt.storage, rt.retrieval))
    # the two lowest levels where the write leg ends, one per sector
    doublet = _stage("register target", sector_spectra,
                     params, rt.storage.couplings[-1:], 2)[0].states
    f_store = 4 * np.prod(np.abs(doublet.T @ rt.storage.amplitudes[-1]) ** 2)
    curves = {
        "entangled_storage": {
            "t": rt.storage.times, "omega": rt.storage.couplings, "F_s": fbar_s,
        },
        "entangled_retrieval": {
            "t": rt.total_time + rt.retrieval.times, "omega": rt.retrieval.couplings,
            "F_s": fbar_r,
        },
    }
    scalars = {"storage_fidelity": float(f_store), "roundtrip_fidelity": float(fbar_r[-1])}
    return ResultBundle(spec.name, spec.spec_hash, curves=curves, scalars=scalars)


def _run_convergence(spec: ExperimentSpec) -> ResultBundle:
    params = spec.params
    alt = ModelParams(params.omega_cav, params.omega_eg, params.omega0, spec.n_fock_alt)
    # Dense rather than sector_spectra: perfbench's tracer test pins this
    # experiment at two build_rabi and two eigh calls.
    e_base = _stage("base diagonalization", np.linalg.eigh,
                    build_rabi(params, params.omega0))[0][:4]
    e_alt = _stage("refined diagonalization", np.linalg.eigh, build_rabi(alt, alt.omega0))[0][:4]
    delta = np.abs(e_base - e_alt)
    curves = {
        "convergence": {
            "level": np.arange(4, dtype=np.float64),
            "E_base": e_base,
            "E_alt": e_alt,
            "delta": delta,
        }
    }
    scalars = {"max_abs_delta": float(delta.max())}
    return ResultBundle(spec.name, spec.spec_hash, curves=curves, scalars=scalars)
