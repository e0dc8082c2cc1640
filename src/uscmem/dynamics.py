"""Closed-system sweep dynamics and the storage / retrieval protocol.

The integrator is a piecewise-exponential midpoint rule,

    psi(t + dt) = exp(-i H(t + dt/2) dt) psi(t),

with the exponential taken exactly via diagonalization of the midpoint
Hamiltonian. Each step is therefore unitary to machine precision and the
only discretization error is the freezing of H within a step, which is
second order in dt. The midpoint Hamiltonian is never assembled: parity
splits it into two real tridiagonal chains
(:class:`~uscmem.model.ParityChains`), and the midpoints of a run of
steps are diagonalized together, per parity sector, in one batched real
eigh. The cell is stepped sector by sector on its two chain slices, so
parity is conserved by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Callable

import numpy as np

from .hilbert import HilbertDims, State
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import (  # noqa: F401
    SECTOR_BATCH, CouplingSchedule, ModelParams, build_rabi, sector_eigh, storage_schedule,
)
from .spectral import build_gauge_chain

RSQRT2 = 2 ** -0.5

# A sweep discretized more coarsely than this cannot resolve the schedule.
_MIN_STEPS_PER_SWEEP = 500


class NormDriftError(RuntimeError):
    """Norm drifted beyond tolerance during propagation."""


@dataclass(frozen=True)
class PropagatorConfig:
    """Time-step configuration.

    dt is a request; the actual step divides the schedule duration exactly
    (the nearest integer step count is used). Norm is renormalized each step
    and any drift beyond norm_tol aborts the run.
    """

    dt: float
    record_every: int = 10
    norm_tol: float = 1e-9
    method: str = "midpoint-exponential"

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.norm_tol <= 0:
            raise ValueError("norm_tol must be > 0")
        if self.method != "midpoint-exponential":
            raise ValueError(f"unknown method {self.method!r}")

    @classmethod
    def for_total_time(
        cls, total_time: float, steps: int = 2000, record_every: int = 10
    ) -> "PropagatorConfig":
        return cls(dt=total_time / steps, record_every=record_every)


@dataclass(frozen=True)
class Trajectory:
    """Recorded sweep samples: times, couplings, and state amplitudes (rows)."""

    dims: HilbertDims
    times: np.ndarray
    couplings: np.ndarray
    amplitudes: np.ndarray

    @property
    def n_recorded(self) -> int:
        return len(self.times)

    @property
    def final(self) -> State:
        return State(self.dims, self.amplitudes[-1])


def _step_count(schedule: CouplingSchedule, cfg: PropagatorConfig) -> int:
    n = max(1, round(schedule.total_time / cfg.dt))
    if schedule.is_sweep and n < _MIN_STEPS_PER_SWEEP:
        raise ValueError(
            f"dt = {cfg.dt} gives {n} steps over T = {schedule.total_time}; "
            f"sweeps need at least {_MIN_STEPS_PER_SWEEP}"
        )
    return n


def _sweep(
    params: ModelParams, schedule: CouplingSchedule, cfg: PropagatorConfig,
    x0: np.ndarray, step: Callable, check: Callable | None = None,
    sample: Callable = np.copy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drive x across a schedule with the exact midpoint eigensystem.

    The midpoint Hamiltonians of each SECTOR_BATCH consecutive steps are
    diagonalized per parity sector in one batch (:func:`sector_eigh`).
    step(x, w, v, dt, i) then gives the state after step i + 1 from step
    i's chain eigensystems w (2, n_fock) and v (2, n_fock, n_fock). The
    state is sampled as sample(x), a copy by default, at step 0, every
    cfg.record_every steps and the last step;
    check(s, n), if given, runs on each sample s after step n. Returns the
    sample times, their couplings and the stacked samples.
    """
    n_steps = _step_count(schedule, cfg)
    dt = schedule.total_time / n_steps
    rec_idx = [0]
    samples = [sample(x0)]
    x = x0
    for start in range(0, n_steps, SECTOR_BATCH):
        steps = range(start, min(start + SECTOR_BATCH, n_steps))
        midpoints = np.array([schedule.coupling_at((i + 0.5) * dt) for i in steps])
        for i, w, v in zip(steps, *sector_eigh(params, midpoints)):
            x = step(x, w, v, dt, i)
            if (i + 1) % cfg.record_every == 0 or i + 1 == n_steps:
                s = sample(x)
                if check is not None:
                    check(s, i + 1)
                rec_idx.append(i + 1)
                samples.append(s)

    times = np.array(rec_idx, dtype=np.float64) * dt
    times[-1] = schedule.total_time
    couplings = np.array([schedule.coupling_at(t) for t in times])
    return times, couplings, np.array(samples)


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real matrix and a C-contiguous complex matrix, on z's
    real view, so m is never cast to complex."""
    return (m @ z.view(np.float64)).view(np.complex128)


def _real_matvec(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real matrices and contiguous complex vectors, batched over
    leading axes, on the vectors' real view, so m is never cast to complex."""
    return (m @ z.view(np.float64).reshape(*z.shape, 2)).view(np.complex128)[..., 0]


def propagate(
    params: ModelParams,
    schedule: CouplingSchedule,
    psi0: State,
    cfg: PropagatorConfig,
) -> Trajectory:
    """Integrate a cell state across a schedule."""
    dims = psi0.dims
    if dims.n_fock != params.n_fock:
        raise ValueError("state truncation does not match params.n_fock")
    index = params.chains.index

    def step(psi, w, v, dt, i):
        coeffs = _real_matvec(np.swapaxes(v, 1, 2), psi[index]) * np.exp(-1j * w * dt)
        psi = np.empty_like(psi)
        psi[index] = _real_matvec(v, coeffs)
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > cfg.norm_tol:
            raise NormDriftError(
                f"norm drifted to {nrm!r} at step {i + 1} (tol {cfg.norm_tol})"
            )
        psi /= nrm
        return psi

    return Trajectory(dims, *_sweep(params, schedule, cfg, psi0.amplitudes, step))


# --------------------------------------------------------------------------
# storage and retrieval
# --------------------------------------------------------------------------

def storage_input(
    params: ModelParams, alpha_f: complex = RSQRT2, beta_f: complex = RSQRT2
) -> State:
    """Qubit superposition to be written, alpha_f |g,0> + beta_f |e,0>."""
    weight = abs(alpha_f) ** 2 + abs(beta_f) ** 2
    if abs(weight - 1.0) > 1e-6:
        raise ValueError(f"|alpha_f|^2 + |beta_f|^2 = {weight} must be 1")
    dims = params.dims
    amps = np.zeros(dims.total_dim, dtype=np.complex128)
    amps[dims.index(0, 0)] = alpha_f
    amps[dims.index(1, 0)] = beta_f
    amps /= np.linalg.norm(amps)
    return State(dims, amps)


def storage_run(
    params: ModelParams,
    alpha_f: complex,
    beta_f: complex,
    schedule: CouplingSchedule,
    cfg: PropagatorConfig,
) -> tuple[Trajectory, np.ndarray]:
    """Write sweep. Returns the trajectory and F_s(t) = |<psi_s|psi(t)>|^2
    against the fixed input state."""
    psi_s = storage_input(params, alpha_f, beta_f)
    traj = propagate(params, schedule, psi_s, cfg)
    fs = np.abs(traj.amplitudes @ psi_s.amplitudes.conj()) ** 2
    return traj, fs


def branch_phase_correction(dims: HilbertDims, theta: float) -> np.ndarray:
    """Unitary applying exp(-i theta) on the excited-qubit branch of a cell."""
    d = np.ones(dims.total_dim, dtype=np.complex128)
    d[dims.n_fock:] = np.exp(-1j * theta)
    return np.diag(d)


def _branch_overlaps(
    amps: np.ndarray, dims: HilbertDims, alpha_f: complex, beta_f: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Ground and excited branch overlaps u, v of state rows with the input."""
    return (np.conj(alpha_f) * amps[..., dims.index(0, 0)],
            np.conj(beta_f) * amps[..., dims.index(1, 0)])


def _corrected_rows(
    amps: np.ndarray, dims: HilbertDims, theta: float, alpha_f: complex, beta_f: complex
) -> np.ndarray:
    """|u + exp(-i theta) v|^2 for every state row of amps."""
    u, v = _branch_overlaps(amps, dims, alpha_f, beta_f)
    return np.abs(u + np.exp(-1j * theta) * v) ** 2


def corrected_fidelity(
    state: State, theta: float, alpha_f: complex = RSQRT2, beta_f: complex = RSQRT2
) -> float:
    """|<psi_s| C(theta) |state>|^2 with the excited-branch phase correction."""
    return float(_corrected_rows(state.amplitudes, state.dims, theta, alpha_f, beta_f))


def optimize_retrieval_phase(
    state: State, alpha_f: complex = RSQRT2, beta_f: complex = RSQRT2
) -> tuple[float, float]:
    """Best single phase correction for a retrieved state.

    F(theta) = |u + exp(-i theta) v|^2 with u, v the ground / excited branch
    overlap amplitudes, so the maximum is closed form: theta aligns v with u.
    Returns (theta_opt in [0, 2 pi), F at the optimum).
    """
    u, v = _branch_overlaps(state.amplitudes, state.dims, alpha_f, beta_f)
    theta = float(np.angle(v) - np.angle(u)) % (2 * pi)
    fmax = float((abs(u) + abs(v)) ** 2)
    return theta, fmax


@dataclass(frozen=True)
class RoundTrip:
    """Storage plus optimally-rephased retrieval of one input state."""

    total_time: float
    theta_opt: float
    fidelity: float
    storage: Trajectory
    storage_fs: np.ndarray
    retrieval: Trajectory
    retrieval_fs: np.ndarray


def _roundtrip(
    params: ModelParams,
    schedule: CouplingSchedule,
    cfg: PropagatorConfig,
    alpha_f: complex,
    beta_f: complex,
    theta: float | None,
) -> RoundTrip:
    """Write along schedule, read along its reverse, then correct the phase.

    The read propagation itself does not depend on theta, so it runs once
    and the correction (closed-form optimum when theta is None) is fixed
    afterwards from the final state.
    """
    traj_s, fs_s = storage_run(params, alpha_f, beta_f, schedule, cfg)
    traj_r = propagate(params, schedule.reversed(), traj_s.final, cfg)
    if theta is None:
        theta, _ = optimize_retrieval_phase(traj_r.final, alpha_f, beta_f)
    fs_r = _corrected_rows(traj_r.amplitudes, traj_r.dims, theta, alpha_f, beta_f)
    return RoundTrip(
        total_time=schedule.total_time,
        theta_opt=theta,
        fidelity=float(fs_r[-1]),
        storage=traj_s,
        storage_fs=fs_s,
        retrieval=traj_r,
        retrieval_fs=fs_r,
    )


def roundtrip_run(
    params: ModelParams,
    total_time: float,
    cfg: PropagatorConfig | None = None,
    alpha_f: complex = RSQRT2,
    beta_f: complex = RSQRT2,
    theta: float | None = None,
) -> RoundTrip:
    """Full write-then-read cycle from zero coupling to omega0 and back;
    theta None means optimize the correction."""
    if cfg is None:
        cfg = PropagatorConfig.for_total_time(total_time)
    return _roundtrip(params, storage_schedule(params, total_time), cfg, alpha_f, beta_f, theta)


# --------------------------------------------------------------------------
# phase landscape
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseLandscape:
    """Fidelity against phase-parameterized doublet targets along a sweep.

    fidelity[i, j] is the overlap-squared of the evolved state at sweep
    sample i (coupling coupling_grid[i]) with the target built from the
    tracked instantaneous doublet using relative phase theta_grid[j];
    theta_opt[i] is the grid phase attaining the row maximum.
    """

    times: np.ndarray
    coupling_grid: np.ndarray
    theta_grid: np.ndarray
    fidelity: np.ndarray
    theta_opt: np.ndarray


def phase_landscape(
    params: ModelParams,
    alpha_f: complex,
    beta_f: complex,
    schedule: CouplingSchedule,
    cfg: PropagatorConfig,
    theta_points: int = 64,
) -> PhaseLandscape:
    """Map |<target(theta)|psi(t)>|^2 over the sweep and a theta grid.

    Targets are alpha_f |G(t)> + beta_f e^{i theta} |E(t)> with |G>, |E> the
    gauge-tracked instantaneous doublet. At t = 0 the target with theta = 0
    is exactly the input state, so the first row peaks at fidelity 1, and
    the drift of theta_opt along the sweep is the relative phase a read
    correction has to undo.
    """
    if theta_points < 32:
        raise ValueError(f"theta_points must be >= 32, got {theta_points}")
    traj, _ = storage_run(params, alpha_f, beta_f, schedule, cfg)
    chain = build_gauge_chain(params, traj.couplings, k=2)
    thetas = np.arange(theta_points) * (2 * pi / theta_points)

    n = traj.n_recorded
    fid = np.empty((n, theta_points))
    theta_opt = np.empty(n)
    phase = np.exp(-1j * thetas)
    for i, spec in enumerate(chain.spectra):
        psi = traj.amplitudes[i]
        c_g = np.vdot(spec.states[:, 0], psi)
        c_e = np.vdot(spec.states[:, 1], psi)
        amp = np.conj(alpha_f) * c_g + np.conj(beta_f) * c_e * phase
        fid[i] = np.abs(amp) ** 2
        theta_opt[i] = thetas[int(np.argmax(fid[i]))]
    return PhaseLandscape(traj.times, traj.couplings, thetas, fid, theta_opt)


# --------------------------------------------------------------------------
# protocol timing
# --------------------------------------------------------------------------

def optimal_evolution_time(
    params: ModelParams,
    t_grid: np.ndarray,
    steps: int = 2000,
    record_every: int = 10,
    alpha_f: complex = RSQRT2,
    beta_f: complex = RSQRT2,
) -> tuple[float, list[tuple[float, float, float]]]:
    """Round-trip fidelity over candidate sweep durations.

    Each duration gets its own dt = T / steps and an optimized read phase.
    Returns the best duration and the table of (T, fidelity, theta_opt).
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if np.any(t_grid <= 0):
        raise ValueError("sweep durations must be positive")
    table = []
    for total_time in t_grid:
        cfg = PropagatorConfig.for_total_time(float(total_time), steps, record_every)
        rt = roundtrip_run(params, float(total_time), cfg, alpha_f, beta_f)
        table.append((float(total_time), rt.fidelity, rt.theta_opt))
    best = max(table, key=lambda row: row[1])
    return best[0], table


def physical_time(t: float, f_cav_hz: float) -> float:
    """Convert protocol time units (1 / omega_cav) to seconds for a cavity
    running at the given ordinary frequency."""
    if f_cav_hz <= 0:
        raise ValueError("cavity frequency must be positive")
    return t / (2 * pi * f_cav_hz)
