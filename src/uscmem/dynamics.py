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
eigh. The cell is carried as its two chain slices and stepped sector by
sector, so parity is conserved by construction; the full cell vector is
built only for the recorded samples. A round trip diagonalizes only its
write leg: every step's factor is complex symmetric, so the read leg is
the transpose P_N^T of the write leg's propagator (:func:`roundtrip`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import pi
from typing import Callable

import numpy as np

from .hilbert import State
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import (  # noqa: F401
    SECTOR_BATCH, CouplingSchedule, ModelParams, build_rabi, sector_eigh,
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
    (the nearest integer step count is used). Each step is unitary up to
    roundoff and the state is never rescaled; a norm more than norm_tol
    from 1 aborts the run.
    """

    dt: float
    record_every: int = 10
    norm_tol: float = 1e-9
    method: str = "midpoint-exponential"

    def __post_init__(self) -> None:
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not 0 < self.norm_tol < np.inf:
            raise ValueError(f"norm_tol must be finite and > 0, got {self.norm_tol}")
        if self.method != "midpoint-exponential":
            raise ValueError(f"unknown method {self.method!r}")

    @classmethod
    def for_total_time(cls, total_time: float, steps: int = 2000,
                       record_every: int = 10) -> "PropagatorConfig":
        return cls(dt=total_time / steps, record_every=record_every)


@dataclass(frozen=True)
class Trajectory:
    """Recorded sweep samples: times, couplings, and state amplitudes (rows)."""

    times: np.ndarray
    couplings: np.ndarray
    amplitudes: np.ndarray

    @property
    def final(self) -> State:
        return State(self.amplitudes[-1])


def step_count(schedule: CouplingSchedule, cfg: PropagatorConfig) -> int:
    """Midpoint steps over schedule: round(T / dt), at least one, and a
    ValueError for a sweep of fewer than _MIN_STEPS_PER_SWEEP."""
    n = max(1, round(schedule.total_time / cfg.dt))
    if schedule.is_sweep and n < _MIN_STEPS_PER_SWEEP:
        raise ValueError(
            f"dt = {cfg.dt} gives {n} steps over T = {schedule.total_time}; "
            f"sweeps need at least {_MIN_STEPS_PER_SWEEP}"
        )
    return n


def _record_grid(schedule: CouplingSchedule, cfg: PropagatorConfig):
    """Step count, step length and the recorded steps (0, every record_every, the last)."""
    n_steps = step_count(schedule, cfg)
    rec_idx = np.append(np.arange(0, n_steps, cfg.record_every), n_steps)
    return n_steps, schedule.total_time / n_steps, rec_idx


def _sweep(
    params: ModelParams, schedule: CouplingSchedule, cfg: PropagatorConfig,
    x0: np.ndarray, step: Callable, record: Callable, grid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drive x across a schedule with the exact midpoint eigensystem.

    The midpoint Hamiltonians of each SECTOR_BATCH consecutive steps are
    diagonalized per parity sector in one batch (:func:`sector_eigh`).
    step(x, w, v, dt, i) then gives the state after step i + 1 from step
    i's chain eigensystems w (2, n_fock) and v (2, n_fock, n_fock).
    record(x, n) returns the sample of the state x after step n, and is
    called at each step of grid, which holds 0 and the last step and
    defaults to the record grid of cfg. The samples land in one
    preallocated array, shaped and typed after the first sample. Returns
    the sample times, their couplings and that array.
    """
    n_steps, dt, rec_idx = _record_grid(schedule, cfg)
    rec_idx = rec_idx if grid is None else grid
    midpoints = schedule.coupling_at((np.arange(n_steps) + 0.5) * dt)
    first = record(x0, 0)
    samples = np.empty((len(rec_idx), *first.shape), dtype=first.dtype)
    samples[0] = first
    n_rec = 1
    x = x0
    for start in range(0, n_steps, SECTOR_BATCH):
        batch = midpoints[start:start + SECTOR_BATCH]
        for i, w, v in zip(range(start, n_steps), *sector_eigh(params, batch)):
            x = step(x, w, v, dt, i)
            if i + 1 == rec_idx[n_rec]:
                samples[n_rec] = record(x, i + 1)
                n_rec += 1
    times = rec_idx * dt
    times[-1] = schedule.total_time
    return times, schedule.coupling_at(times), samples


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real matrices and C-contiguous complex matrices, batched
    over leading axes, on z's real view, so m is never cast to complex."""
    return (m @ z.view(np.float64)).view(np.complex128)


def _unitary_step(x, w, v, dt, i, norm_tol):
    """The midpoint step on chain columns x (2, n_fock, c), mapped to
    v (exp(-i w dt) * v^T x) and never rescaled. The last column is a state,
    and a norm more than norm_tol from 1 there raises NormDriftError."""
    x = _real_matmul(v, _real_matmul(np.swapaxes(v, 1, 2), x) * np.exp(-1j * w * dt)[..., None])
    nrm = np.linalg.norm(x[..., -1])
    if not (abs(nrm - 1.0) <= norm_tol):
        raise NormDriftError(f"norm drifted to {nrm!r} at step {i + 1} (tol {norm_tol})")
    return x


def propagate(
    params: ModelParams, schedule: CouplingSchedule, psi0: State, cfg: PropagatorConfig,
) -> Trajectory:
    """Integrate a cell state across a schedule, carried as one column
    (2, n_fock, 1) of chain slices through :func:`_unitary_step`."""
    if psi0.amplitudes.shape != (2 * params.n_fock,):
        raise ValueError("state truncation does not match params.n_fock")
    index = params.chains.index

    def record(x, n):
        psi = np.empty(2 * params.n_fock, dtype=np.complex128)
        psi[index] = x[..., 0]
        return psi

    step = partial(_unitary_step, norm_tol=cfg.norm_tol)
    x0 = psi0.amplitudes[index][..., None]
    return Trajectory(*_sweep(params, schedule, cfg, x0, step, record))


# --------------------------------------------------------------------------
# storage and retrieval
# --------------------------------------------------------------------------

def storage_input(
    params: ModelParams, alpha_f: complex = RSQRT2, beta_f: complex = RSQRT2
) -> State:
    """Qubit superposition to be written, alpha_f |g,0> + beta_f |e,0>."""
    weight = abs(alpha_f) ** 2 + abs(beta_f) ** 2
    if not (abs(weight - 1.0) <= 1e-6):
        raise ValueError(f"|alpha_f|^2 + |beta_f|^2 = {weight} must be 1")
    amps = np.zeros(2 * params.n_fock, dtype=np.complex128)
    amps[params.chains.index[:, 0]] = alpha_f, beta_f
    amps /= np.linalg.norm(amps)
    return State(amps)


def branch_block(amps: np.ndarray, params: ModelParams) -> np.ndarray:
    """|g,0>, |e,0> block (..., 2, 2) of the pure cell states in the rows of amps."""
    c = amps[..., params.chains.index[:, 0]]
    return c[..., :, None] * c[..., None, :].conj()


def readout(
    block: np.ndarray, alpha_f: complex, beta_f: complex, theta: float | None
) -> tuple[float, np.ndarray]:
    """Read-out fidelity F(theta) = <psi_s| C(theta) rho C(theta)^dag |psi_s>.

    psi_s = alpha_f |g,0> + beta_f |e,0>, normalized as in storage_input,
    and C(theta) puts exp(-i theta) on the excited branch, so F sees rho
    only through its |g,0>, |e,0> block:

        F = w + 2 Re(e^{i theta} z),  w = |alpha|^2 rho_gg + |beta|^2 rho_ee,
                                      z = conj(alpha) beta rho_ge.

    block is any stack (..., 2, 2) of such blocks, pure (branch_block) or
    mixed. theta None picks the closed-form optimum -arg z of the last
    block, in [0, 2 pi), and 0 when z = 0. Returns theta and F, one value
    per block, clipped into [0, 1] after a roundoff check.
    """
    amps = np.array([alpha_f, beta_f], dtype=np.complex128)
    alpha, beta = amps / np.linalg.norm(amps)
    w = abs(alpha) ** 2 * block[..., 0, 0].real + abs(beta) ** 2 * block[..., 1, 1].real
    z = np.conj(alpha) * beta * block[..., 0, 1]
    if theta is None:
        last = complex(np.ravel(z)[-1])
        theta = float(-np.angle(last)) % (2 * pi) if last != 0 else 0.0
    f = w + 2 * np.real(np.exp(1j * theta) * z)
    if not (-1e-10 <= f.min() and f.max() <= 1.0 + 1e-8):
        raise ValueError(f"fidelity outside [0, 1] beyond tolerance: [{f.min()!r}, {f.max()!r}]")
    return theta, np.clip(f, 0.0, 1.0)


@dataclass(frozen=True)
class RoundTrip:
    """Storage plus optimally-rephased retrieval of one input state."""

    theta_opt: float
    fidelity: float
    storage: Trajectory
    storage_fs: np.ndarray
    retrieval: Trajectory
    retrieval_fs: np.ndarray


def roundtrip(
    params: ModelParams, schedule: CouplingSchedule, cfg: PropagatorConfig,
    alpha_f: complex = RSQRT2, beta_f: complex = RSQRT2, theta: float | None = None,
    rows: slice | list = slice(None),
) -> RoundTrip:
    """Write along schedule, read along its reverse, then correct the phase.

    Each midpoint factor exp(-i H_i dt) is complex symmetric, as H_i is
    real symmetric, so the read leg is P_N^T, P_k the product of the write
    leg's first k factors, and m read steps give conj(P_{N-m}) phi with
    phi = P_N^T psi_T. One sweep carries [P_k | P_k psi_0] in chain form
    and records the chain sites rows of P_k at the mirrored steps N - m,
    so only the write leg is diagonalized. The read leg holds the
    amplitudes on those sites and NaN elsewhere; rows [0] gives the
    |g,0>, |e,0> amplitudes. Neither leg depends on theta, which is fixed
    afterwards (the closed-form optimum if None).
    """
    index, nf = params.chains.index, params.n_fock
    n_steps, _, rec_idx = _record_grid(schedule, cfg)
    # the write leg's record steps and their mirrors, where the read leg records
    grid = np.array(sorted({*rec_idx.tolist(), *(n_steps - rec_idx).tolist()}))
    psi0 = storage_input(params, alpha_f, beta_f).amplitudes[index]
    x0 = np.concatenate([np.broadcast_to(np.eye(nf), (2, nf, nf)), psi0[..., None]], axis=2)
    last = x0

    def record(x, n):
        nonlocal last
        last = x
        # the kept rows of P_n, then P_n psi_0 as one more row
        return np.concatenate([x[:, rows, :-1], x[:, None, :, -1]], axis=1)

    step = partial(_unitary_step, norm_tol=cfg.norm_tol)
    times, couplings, samples = _sweep(params, schedule, cfg, x0, step, record, grid)
    phi = np.swapaxes(last[..., :-1], 1, 2) @ last[..., -1:]
    nrm = np.linalg.norm(phi)
    if not (abs(nrm - 1.0) <= cfg.norm_tol):
        raise NormDriftError(f"read-leg norm {nrm!r} (tol {cfg.norm_tol})")

    at = np.searchsorted(grid, rec_idx)
    times = times[at]
    write = np.empty((len(rec_idx), 2 * nf), dtype=np.complex128)
    write[:, index] = samples[at, :, -1]
    read = np.full_like(write, np.nan)
    mirrored = samples[np.searchsorted(grid, n_steps - rec_idx), :, :-1]
    read[:, index[:, rows]] = (mirrored.conj() @ phi)[..., 0]
    _, fs_s = readout(branch_block(write, params), alpha_f, beta_f, 0.0)
    theta, fs_r = readout(branch_block(read, params), alpha_f, beta_f, theta)
    traj_r = Trajectory(times.copy(), schedule.reversed().coupling_at(times), read)
    return RoundTrip(theta, float(fs_r[-1]),
                     Trajectory(times, couplings[at], write), fs_s, traj_r, fs_r)


# --------------------------------------------------------------------------
# phase landscape
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseLandscape:
    """Fidelity against phase-parameterized doublet targets along a sweep.

    fidelity[i, j] is the overlap-squared of the evolved state at sweep
    sample i (coupling coupling_grid[i]) with the target built from the
    instantaneous ground doublet using relative phase theta_grid[j];
    theta_opt[i] is the grid phase attaining the row maximum.
    """

    times: np.ndarray
    coupling_grid: np.ndarray
    theta_grid: np.ndarray
    fidelity: np.ndarray
    theta_opt: np.ndarray


def phase_landscape(
    params: ModelParams, alpha_f: complex, beta_f: complex,
    schedule: CouplingSchedule, cfg: PropagatorConfig, theta_points: int = 64,
) -> PhaseLandscape:
    """Map |<target(theta)|psi(t)>|^2 over the sweep and a theta grid.

    Targets are alpha_f |G(t)> + beta_f e^{i theta} |E(t)> with |G>, |E> the
    instantaneous ground doublet of :func:`~uscmem.spectral.build_gauge_chain`.
    A sweep from omega_start = 0 starts on the bare doublet, where the
    target with theta = 0 is exactly the input state, so its first row
    peaks at fidelity 1. The drift of theta_opt along the sweep is the
    relative phase a read correction has to undo.
    """
    if theta_points < 32:
        raise ValueError(f"theta_points must be >= 32, got {theta_points}")
    traj = propagate(params, schedule, storage_input(params, alpha_f, beta_f), cfg)
    doublets = build_gauge_chain(params, traj.couplings).states
    thetas = np.arange(theta_points) * (2 * pi / theta_points)

    # the state in the doublet basis, (n, 2), and its block there
    c = _real_matmul(np.swapaxes(doublets, 1, 2), traj.amplitudes[..., None])[..., 0]
    block = c[:, :, None] * c[:, None, :].conj()
    fid = np.empty((len(traj.times), theta_points))
    for j, theta in enumerate(thetas):
        _, fid[:, j] = readout(block, alpha_f, beta_f, theta)
    theta_opt = thetas[np.argmax(fid, axis=1)]
    return PhaseLandscape(traj.times, traj.couplings, thetas, fid, theta_opt)


# --------------------------------------------------------------------------
# physical units
# --------------------------------------------------------------------------

def physical_time(t: float, f_cav_hz: float) -> float:
    """Convert protocol time units (1 / omega_cav) to seconds for a cavity
    running at the given ordinary frequency."""
    if not 0 < f_cav_hz < np.inf:
        raise ValueError(f"cavity frequency must be finite and positive, got {f_cav_hz}")
    return t / (2 * pi * f_cav_hz)
