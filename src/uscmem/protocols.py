"""Memory protocols: a two-mode beam splitter and the named experiments.

``EXPERIMENTS`` is the one table of experiments: each row holds the
handler, the ``ExperimentSpec`` inputs beyond ``params`` it reads, and its
default Fock truncation. Validation, the spec hash and the CLI's choice of
which config keys to keep all read it.

The ``entangled`` experiment is a two-cell register that stores the shared
excitation (|g e> + |e g>) |0 0> / sqrt(2) by sweeping both cells through
the same schedule; no coupling acts between the cells. Parity separates the
two branches of one cell, so a single cell's round trip of
(|g,0> + |e,0>) / sqrt(2) determines every number the register reports.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from math import acos, sqrt
from numbers import Integral
from typing import Callable

import numpy as np

from .dynamics import (
    PhaseLandscape,
    PropagatorConfig,
    RSQRT2,
    Trajectory,
    branch_block,
    doublet_amplitudes,
    phase_landscape,
    propagate,
    readout,
    roundtrip,
    storage_input,
)
from .hilbert import TruncationError, fock_annihilation
from .lindblad import RATE_MODELS, NoiseRates, evolve_master, pure_density
from .model import CouplingSchedule, ModelParams, build_rabi
from .spectral import build_gauge_chain, cat_approximant, sector_spectra


class ExperimentError(RuntimeError):
    """A named experiment failed; the message carries the failing stage."""


# --------------------------------------------------------------------------
# two-mode interference
# --------------------------------------------------------------------------

def beam_splitter(state: np.ndarray, transmissivity: float, phase: float = 0.0) -> np.ndarray:
    """Mix two Fock modes, exp[xi (e^{i phi} a^dag b - e^{-i phi} a b^dag)].

    ``state[n_a, n_b]`` is the amplitude of |n_a, n_b>, a square array with
    one axis per mode, and the result has the same layout. cos^2(xi) equals
    the transmissivity. Total photon number is conserved, so the input must
    not populate total photon sectors that the truncation cannot hold after
    mixing.
    """
    amps = np.asarray(state, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
        raise ValueError(f"two-mode state must be a square array, got shape {amps.shape}")
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {transmissivity}")
    nf = amps.shape[0]
    n = np.arange(nf)
    over = np.abs(amps[n[:, None] + n > nf - 1])
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
    out = evecs @ (np.exp(-1j * evals) * (evecs.conj().T @ amps.ravel()))
    return out.reshape(nf, nf)


# --------------------------------------------------------------------------
# named experiments
# --------------------------------------------------------------------------

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

    def __post_init__(self) -> None:
        # each scalar's own range, whichever experiment reads it
        for name, low in (("theta_points", 32), ("k_levels", 2), ("refresh_every", 1),
                          ("omega_points", 2), ("n_fock_alt", 2)):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (self.theta is None or abs(self.theta) < np.inf):
            raise ValueError(f"theta must be None or finite, got {self.theta!r}")
        if self.rate_model not in RATE_MODELS:
            raise ValueError(f"rate_model = {self.rate_model!r} must be one of {RATE_MODELS}")

    @property
    def _reads(self) -> tuple[str, ...]:
        """The inputs beyond params the named experiment reads (none if unknown)."""
        row = EXPERIMENTS.get(self.name)
        return row.reads if row else ()

    def validate(self) -> list[str]:
        """The rules tying a read value to its experiment or to another value."""
        problems = []
        reads = self._reads
        if self.name not in EXPERIMENTS:
            problems.append(f"unknown experiment {self.name!r}")
        if "schedule" in reads and self.params.omega_eg >= self.params.omega_cav:
            problems.append(f"omega_eg = {self.params.omega_eg} must be below omega_cav = "
                            f"{self.params.omega_cav} for a sweep to write |e,0> into "
                            "the ground doublet")
        weight = abs(self.alpha_f) ** 2 + abs(self.beta_f) ** 2
        if "alpha_f" in reads and not (abs(weight - 1.0) <= 1e-6):
            problems.append(f"|alpha_f|^2 + |beta_f|^2 = {weight:.8f} must be 1")
        if "k_levels" in reads and self.k_levels > 2 * self.params.n_fock:
            problems.append(f"k_levels = {self.k_levels} exceeds 2 * n_fock = "
                            f"{2 * self.params.n_fock}")
        return problems

    def resolved(self) -> dict:
        """Canonical plain-data view used for hashing and the manifest.

        Scalar inputs the named experiment never reads are recorded at
        their defaults, so they cannot split the hash of two identical runs.
        """
        out = asdict(self)
        out["schedule"]["shape"] = "linear"  # the only ramp; keeps the spec hashes
        out["cfg"]["method"] = "midpoint-exponential"  # the only integrator; likewise
        reads = self._reads
        for f in fields(self):
            if f.default is not MISSING and f.name not in reads:
                out[f.name] = f.default
        for key in ("alpha_f", "beta_f"):
            out[key] = [out[key].real, out[key].imag]
        return out

    @property
    def spec_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class ResultBundle:
    """Outputs of one experiment; its spec carries the run's name and hash."""

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
    return EXPERIMENTS[spec.name].run(spec)


def _cat_overlaps(params: ModelParams, couplings: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """|<cat_G|G>|^2 and |<cat_E|E>|^2 at each coupling, for a chain pair
    (m, 2, n_fock), G on chain 0 and E on chain 1, as rows F_G and F_E of
    a (2, m) array. Both cats are one vector, read on either chain."""
    cat = cat_approximant(params, couplings)
    return np.abs(pair @ cat.conj()[..., None])[..., 0].T ** 2


def _run_spectrum(spec: ExperimentSpec) -> ResultBundle:
    params = spec.params
    omegas = np.linspace(0.0, params.omega0, spec.omega_points)
    spectrum = _stage("sector spectra", sector_spectra, params, omegas, 4)
    # levels 0 and 1, on chains 0 and 1 at every coupling
    f_g, f_e = _cat_overlaps(params, omegas, spectrum.states[:, :2])
    curves = {
        "spectrum": {
            "omega": omegas,
            **{f"E{i}": spectrum.energies[:, i] for i in range(4)},
            **{f"parity{i}": 2.0 * spectrum.sector[:, i] - 1 for i in range(4)},
        },
        "cat_overlap": {"omega": omegas, "F_G": f_g, "F_E": f_e},
    }
    scalars = {
        "gap_at_peak": float(spectrum.energies[-1, 1] - spectrum.energies[-1, 0]),
        "F_G_min": float(f_g.min()),
        "F_E_min": float(f_e.min()),
    }
    return ResultBundle(curves=curves, scalars=scalars)


def _storage_curve(
    spec: ExperimentSpec, traj: Trajectory, fs: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Write-leg curve and scalars: F_s plus the cat overlaps along the
    ground doublet, and the storage fidelity at the end of the sweep."""
    params = spec.params
    _, pairs = _stage("ground doublet", build_gauge_chain, params, traj.couplings)
    f_g, f_e = _cat_overlaps(params, traj.couplings, pairs)
    # the final state in the final doublet's basis, and its block there
    c = doublet_amplitudes(traj.amplitudes[-1], pairs[-1])
    _, storage_fid = readout(np.outer(c, c.conj()), spec.alpha_f, spec.beta_f, None)
    curve = {
        "t": traj.times,
        "omega": traj.couplings,
        "F_s": fs,
        "F_G": f_g,
        "F_E": f_e,
    }
    scalars = {"F_s_final": float(fs[-1]), "storage_fidelity": float(storage_fid)}
    return curve, scalars


def _run_storage(spec: ExperimentSpec) -> ResultBundle:
    psi0 = storage_input(spec.params, spec.alpha_f, spec.beta_f)
    traj = _stage("storage sweep", propagate, spec.params, spec.schedule, psi0, spec.cfg)
    _, fs = readout(branch_block(traj.amplitudes), spec.alpha_f, spec.beta_f, 0.0)
    curve, scalars = _storage_curve(spec, traj, fs)
    return ResultBundle(curves={"storage": curve}, scalars=scalars)


def _run_roundtrip(spec: ExperimentSpec, with_storage: bool = True) -> ResultBundle:
    """Write along spec.schedule and read along its reverse. The retrieval
    experiment is the same run reporting only its read leg."""
    rt = _stage("roundtrip", roundtrip, spec.params, spec.schedule, spec.cfg,
                spec.alpha_f, spec.beta_f, spec.theta)
    curves = {"retrieval": {
        "t": spec.schedule.total_time + rt.retrieval.times,
        "omega": rt.retrieval.couplings,
        "F_s": rt.retrieval_fs,
    }}
    scalars = {"F_s_final": rt.fidelity, "theta_opt": float(rt.theta_opt)}
    if with_storage:
        storage_curve, storage_scalars = _storage_curve(spec, rt.storage, rt.storage_fs)
        curves = {"storage": storage_curve, **curves}
        scalars.update(storage_fidelity=storage_scalars["storage_fidelity"],
                       F_s_storage=storage_scalars["F_s_final"])
    return ResultBundle(curves=curves, scalars=scalars)


def _run_phase_map(spec: ExperimentSpec) -> ResultBundle:
    land = _stage("phase landscape", phase_landscape,
                  spec.params, spec.alpha_f, spec.beta_f,
                  spec.schedule, spec.cfg, spec.theta_points)
    scalars = {
        "ridge_min": float(land.ridge.min()),
        "theta_opt_final": float(land.theta_opt[-1]),
    }
    return ResultBundle(landscapes={"landscape": land}, scalars=scalars)


def _run_noisy(spec: ExperimentSpec) -> ResultBundle:
    params = spec.params
    rates = spec.noise or NoiseRates.for_qubit_splitting(params.omega_eg)
    rho0 = pure_density(storage_input(params, spec.alpha_f, spec.beta_f))
    # each leg records only the |g,0>, |e,0> block that readout reads
    cells = params.chains.index[:, 0]
    mt_s = _stage("noisy storage", evolve_master,
                  params, spec.schedule, rho0, rates, spec.cfg,
                  spec.k_levels, spec.refresh_every, spec.rate_model, cells)
    mt_r = _stage("noisy retrieval", evolve_master,
                  params, spec.schedule.reversed(), mt_s.final, rates, spec.cfg,
                  spec.k_levels, spec.refresh_every, spec.rate_model, cells)
    total_time = spec.schedule.total_time
    _, fs_s = readout(mt_s.rhos, spec.alpha_f, spec.beta_f, 0.0)
    _, fs_r = readout(mt_r.rhos, spec.alpha_f, spec.beta_f, 0.0)
    curve = {
        "t": np.concatenate([mt_s.times, total_time + mt_r.times[1:]]),
        "omega": np.concatenate([mt_s.couplings, mt_r.couplings[1:]]),
        "F_s": np.concatenate([fs_s, fs_r[1:]]),
    }
    theta, f_final = readout(mt_r.rhos[-1], spec.alpha_f, spec.beta_f, spec.theta)
    # weight that left the carried dressed levels, over both legs
    trace_lost = 1.0 - float(np.real(np.trace(mt_r.final)))
    scalars = {"F_s_final": float(f_final), "theta_opt": float(theta),
               "trace_lost": trace_lost}
    return ResultBundle(curves={"noisy": curve}, scalars=scalars)


def _run_entangled(spec: ExperimentSpec) -> ResultBundle:
    params = spec.params
    rt = _stage("register round trip", roundtrip, params, spec.schedule, spec.cfg,
                RSQRT2, RSQRT2, 0.0)
    # Exact, not approximate: U|g,0> stays in the P = -1 chain and U|e,0> in the
    # P = +1 chain, so the register state is sqrt(2) times the two sector parts
    # of this cell's state, and each register overlap is a product of two.
    fbar_s, fbar_r = (4 * np.abs(traj.amplitudes[:, 0, 0] * traj.amplitudes[:, 1, 0]) ** 2
                      for traj in (rt.storage, rt.retrieval))
    # the ground doublet where the write leg ends
    _, pair = _stage("register target", build_gauge_chain, params, rt.storage.couplings[-1:])
    c = doublet_amplitudes(rt.storage.amplitudes[-1], pair[0])
    f_store = 4 * np.prod(np.abs(c) ** 2)
    curves = {
        "entangled_storage": {
            "t": rt.storage.times, "omega": rt.storage.couplings, "F_s": fbar_s,
        },
        "entangled_retrieval": {
            "t": spec.schedule.total_time + rt.retrieval.times, "omega": rt.retrieval.couplings,
            "F_s": fbar_r,
        },
    }
    scalars = {"storage_fidelity": float(f_store), "roundtrip_fidelity": float(fbar_r[-1])}
    return ResultBundle(curves=curves, scalars=scalars)


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
    return ResultBundle(curves=curves, scalars=scalars)


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table."""

    run: Callable[[ExperimentSpec], ResultBundle]
    # ExperimentSpec inputs beyond params the handler reads; resolved()
    # records every other scalar at its default
    reads: tuple[str, ...]
    n_fock: int  # default Fock truncation


_WRITE = ("schedule", "cfg", "alpha_f", "beta_f")  # a sweep that stores a given qubit

EXPERIMENTS = {
    "spectrum": Experiment(_run_spectrum, ("omega_points",), 30),
    "storage": Experiment(_run_storage, _WRITE, 30),
    "retrieval": Experiment(partial(_run_roundtrip, with_storage=False),
                            (*_WRITE, "theta"), 30),
    "roundtrip": Experiment(_run_roundtrip, (*_WRITE, "theta"), 30),
    "phase-map": Experiment(_run_phase_map, (*_WRITE, "theta_points"), 30),
    "noisy": Experiment(_run_noisy, (*_WRITE, "theta", "noise", "k_levels",
                                     "refresh_every", "rate_model"), 20),
    # always stores the shared excitation, so it reads no qubit
    "entangled": Experiment(_run_entangled, ("schedule", "cfg"), 15),
    "convergence": Experiment(_run_convergence, ("n_fock_alt",), 30),
}
