"""Closed-system sweep dynamics and the storage / retrieval protocol.

The integrator is a piecewise-exponential midpoint rule,

    psi(t + dt) = exp(-i H(t + dt/2) dt) psi(t),

with the exponential taken to roundoff, so each step is unitary to machine
precision and the only discretization error, the freezing of H within a
step, is second order in dt. Parity splits H into two real tridiagonal
chains (:class:`~uscmem.model.ParityChains`), and the exponentials of the
midpoints come per chain from real matmuls alone, with no eigensolver: a
Chebyshev fit in the coupling (:func:`~uscmem.model._propagator_batches`)
through exact factors (:func:`~uscmem.model.sector_propagators`) at a few
nodes per run of steps. The cell is
carried as its two chain slices, so parity is conserved by construction.
Every closed sweep is one :func:`propagate` call: a round trip
(:func:`roundtrip`) is a write leg along the schedule and a read leg
along its reverse from the write leg's final chain pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import pi
from numbers import Integral
from typing import Callable

import numpy as np

from .hilbert import State
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import (  # noqa: F401
    PROPAGATOR_BATCH, CouplingSchedule, ModelParams, _propagator_batches, build_rabi,
    ground_batch_size,
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

    def __post_init__(self) -> None:
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not (isinstance(self.record_every, Integral) and self.record_every >= 1):
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        if not 0 < self.norm_tol < np.inf:
            raise ValueError(f"norm_tol must be finite and > 0, got {self.norm_tol}")

    @classmethod
    def for_total_time(cls, total_time: float, steps: int = 2000,
                       record_every: int = 10) -> "PropagatorConfig":
        if not 0 < total_time < np.inf:
            raise ValueError(f"total_time must be finite and > 0, got {total_time}")
        if not (isinstance(steps, Integral) and steps >= 1):
            raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
        return cls(dt=total_time / steps, record_every=record_every)


@dataclass(frozen=True)
class Trajectory:
    """Recorded sweep samples: times, couplings and samples, by default chain pairs (2, n_fock)."""

    times: np.ndarray
    couplings: np.ndarray
    amplitudes: np.ndarray


def step_count(schedule: CouplingSchedule, cfg: PropagatorConfig) -> int:
    """Midpoint steps over schedule: round(T / dt), at least one; a ValueError
    if T / dt overflows or a sweep has fewer than _MIN_STEPS_PER_SWEEP."""
    steps = schedule.total_time / cfg.dt
    if not np.isfinite(steps):
        raise ValueError(f"dt = {cfg.dt} gives T / dt = {steps} steps over "
                         f"T = {schedule.total_time}")
    n = max(1, round(steps))
    if schedule.is_sweep and n < _MIN_STEPS_PER_SWEEP:
        raise ValueError(
            f"dt = {cfg.dt} gives {n} steps over T = {schedule.total_time}; "
            f"sweeps need at least {_MIN_STEPS_PER_SWEEP}"
        )
    return n


def _record_grid(schedule: CouplingSchedule, cfg: PropagatorConfig):
    """A sweep's grid, decided here alone: the steps' midpoint couplings, the
    step length dt, the recorded steps (0, every record_every, the last),
    and their times, the last pinned to T, and couplings."""
    n_steps = step_count(schedule, cfg)
    dt = schedule.total_time / n_steps
    steps = np.append(np.arange(0, n_steps, cfg.record_every), n_steps)
    times = steps * dt
    times[-1] = schedule.total_time
    return (schedule.coupling_at((np.arange(n_steps) + 0.5) * dt), dt, steps,
            times, schedule.coupling_at(times))


def _sweep(
    params: ModelParams, midpoints: np.ndarray, dt: float, steps: np.ndarray,
    x0: np.ndarray, step: Callable, record: Callable,
) -> tuple[np.ndarray, np.ndarray]:
    """Drive x through the midpoint propagators at the couplings midpoints,
    fitted in the coupling once per run of steps and made a batch at a time
    (:func:`~uscmem.model._propagator_batches`).

    step(x, us, i) gives the state after the factors us (k, 2, n_fock,
    n_fock) of steps i, ..., i + k - 1, a run that ends at the next recorded
    step at the latest; a batch's factors are valid only until the next
    batch. record(x, n) returns the sample of the state after step n, at
    each of steps (0 and the last step included, as :func:`_record_grid`
    gives them), into one preallocated array shaped and typed after the
    first sample. Returns that array and the state after the last step.
    """
    first = record(x0, 0)
    samples = np.empty((len(steps), *first.shape), dtype=first.dtype)
    samples[0] = first
    n_rec = 1
    x, batches = x0, _propagator_batches(params, midpoints, dt)
    for start, us in zip(range(0, len(midpoints), PROPAGATOR_BATCH), batches):
        i, stop = start, start + len(us)
        while i < stop:
            j = min(stop, steps[n_rec])
            x = step(x, us[i - start:j - start], i)
            if j == steps[n_rec]:
                samples[n_rec] = record(x, j)
                n_rec += 1
            i = j
    return samples, x


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real matrices and C-contiguous complex matrices, batched
    over leading axes, on z's real view, so m is never cast to complex."""
    return (m @ z.view(np.float64)).view(np.complex128)


def _unitary_steps(x, us, i, norm_tol):
    """Midpoint steps i + 1, ... on a state's chain column x (2, n_fock, 1):
    x <- U x for each factor U of us in turn, never rescaled. sqrt(<x|x>)
    off 1 by more than norm_tol, or NaN, raises NormDriftError."""
    for n, u in enumerate(us, i + 1):
        x = u @ x
        nrm = np.vdot(x, x).real ** 0.5
        if not (abs(nrm - 1.0) <= norm_tol):
            raise NormDriftError(f"norm drifted to {nrm!r} at step {n} (tol {norm_tol})")
    return x


def propagate(
    params: ModelParams, schedule: CouplingSchedule, psi0: State | np.ndarray,
    cfg: PropagatorConfig, record: Callable | None = None,
) -> Trajectory:
    """Integrate a cell state across a schedule, carried as one column
    (2, n_fock, 1) of chain slices through :func:`_unitary_steps`.

    psi0 is a :class:`~uscmem.hilbert.State`, or the chain pair (2, n_fock)
    of one, such as the last sample of an earlier sweep, which is taken as
    it is: its norm meets cfg.norm_tol from the first step on, as every
    step's does. record(x, n) gives the sample of x after recorded step n,
    in step order (:func:`_sweep`); by default the state's chain pair
    (2, n_fock). The sample times and couplings are :func:`_record_grid`'s.
    """
    if isinstance(psi0, State):
        if psi0.amplitudes.shape != (2 * params.n_fock,):
            raise ValueError("state truncation does not match params.n_fock")
        psi0 = psi0.amplitudes[params.chains.index]
    elif np.shape(psi0) != (2, params.n_fock):
        raise ValueError(f"chain pair has shape {np.shape(psi0)}, expected (2, {params.n_fock})")
    midpoints, dt, steps, times, couplings = _record_grid(schedule, cfg)
    step = partial(_unitary_steps, norm_tol=cfg.norm_tol)
    x0 = np.asarray(psi0, dtype=np.complex128)[..., None]
    samples, _ = _sweep(params, midpoints, dt, steps, x0, step, record or (lambda x, n: x[..., 0]))
    return Trajectory(times, couplings, samples)


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


def branch_block(amps: np.ndarray) -> np.ndarray:
    """|g,0>, |e,0> block (..., 2, 2) of the pure states with chain pairs amps (..., 2, n_fock)."""
    c = amps[..., 0]
    return c[..., :, None] * c[..., None, :].conj()


def doublet_amplitudes(amps: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Amplitudes (..., 2) on G and E of C-contiguous chain pairs amps (..., 2, n_fock),
    pair (..., 2, n_fock) the doublet of :func:`~uscmem.spectral.build_gauge_chain`."""
    return _real_matmul(pair[..., None, :], amps[..., None])[..., 0, 0]


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
    block, in [0, 2 pi), and 0 when z = 0; an array broadcasts against the
    stack. Returns theta and F, clipped into [0, 1] after a roundoff check.
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
) -> RoundTrip:
    """Write along schedule, read along its reverse, then correct the phase.

    Both legs are :func:`propagate` sweeps on their own record grids, each
    recording chain pairs (samples, 2, n_fock): the write leg of
    storage_input(alpha_f, beta_f), and the read leg from the write leg's
    final chain pair. Neither leg depends on theta, which is fixed
    afterwards (the closed-form optimum if None).
    """
    write = propagate(params, schedule, storage_input(params, alpha_f, beta_f), cfg)
    read = propagate(params, schedule.reversed(), write.amplitudes[-1], cfg)
    _, fs_s = readout(branch_block(write.amplitudes), alpha_f, beta_f, 0.0)
    theta, fs_r = readout(branch_block(read.amplitudes), alpha_f, beta_f, theta)
    return RoundTrip(theta, float(fs_r[-1]), write, fs_s, read, fs_r)


# --------------------------------------------------------------------------
# phase landscape
# --------------------------------------------------------------------------

# Fidelities per PhaseLandscape.rows block; bounds readout's (rows, phases)
# temporaries: 32 rows at 256 phases.
LANDSCAPE_BLOCK = 8192


@dataclass(frozen=True)
class PhaseLandscape:
    """Fidelity against phase-parameterized doublet targets along a sweep,
    in closed form: the evolved state's amplitudes (n, 2) on the ground
    doublet G, E at each sample. :meth:`rows` builds any block of the
    (n, phases) table, which is never held whole; row i peaks at ridge[i],
    at grid phase theta_opt[i]. Shapes that disagree are refused here."""

    times: np.ndarray
    coupling_grid: np.ndarray
    theta_grid: np.ndarray
    amplitudes: np.ndarray
    alpha_f: complex
    beta_f: complex
    theta_opt: np.ndarray
    ridge: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.coupling_grid)
        for name, shape in (("coupling_grid", (n,)), ("times", (n,)), ("amplitudes", (n, 2)),
                            ("theta_opt", (n,)), ("ridge", (n,))):
            if (got := np.shape(getattr(self, name))) != shape:
                raise ValueError(f"landscape {name} has shape {got}, expected {shape}")
        if np.ndim(self.theta_grid) != 1 or len(self.theta_grid) == 0:
            raise ValueError(f"landscape theta_grid has shape {np.shape(self.theta_grid)}, "
                             "expected one or more phases")

    def rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Fidelity rows start:stop, (rows, phases), from one readout call."""
        c = self.amplitudes[start:stop, :, None]
        block = c * c.swapaxes(1, 2).conj()
        return readout(block[:, None], self.alpha_f, self.beta_f, self.theta_grid)[1]


def phase_landscape(
    params: ModelParams, alpha_f: complex, beta_f: complex,
    schedule: CouplingSchedule, cfg: PropagatorConfig, theta_points: int = 64,
) -> PhaseLandscape:
    """Map |<target(theta)|psi(t)>|^2 over the sweep and a theta grid.

    Targets are alpha_f |G(t)> + beta_f e^{i theta} |E(t)> with |G>, |E> the
    instantaneous ground doublet, built a chain_ground batch of record
    couplings at a time; the sweep records only the state's amplitudes on
    them. A sweep from omega_start = 0 starts on the bare doublet, where
    the target with theta = 0 is the input state, so its first row peaks
    at fidelity 1. The drift of theta_opt along the sweep is the relative
    phase a read correction has to undo.
    """
    if not (isinstance(theta_points, Integral) and theta_points >= 32):
        raise ValueError(f"theta_points must be an integer >= 32, got {theta_points!r}")
    couplings = _record_grid(schedule, cfg)[4]  # propagate's record couplings
    batch = ground_batch_size(params)
    pairs = (pair for start in range(0, len(couplings), batch)
             for pair in build_gauge_chain(params, couplings[start:start + batch])[1])
    traj = propagate(params, schedule, storage_input(params, alpha_f, beta_f), cfg,
                     lambda x, n: doublet_amplitudes(x[..., 0], next(pairs)))
    thetas = np.arange(theta_points) * (2 * pi / theta_points)
    theta_opt, ridge = np.empty(len(couplings)), np.empty(len(couplings))
    land = PhaseLandscape(traj.times, traj.couplings, thetas, traj.amplitudes,
                          alpha_f, beta_f, theta_opt, ridge)
    size = max(1, LANDSCAPE_BLOCK // theta_points)
    for start in range(0, len(couplings), size):  # fill theta_opt and ridge in
        rows = land.rows(start, start + size)
        theta_opt[start:start + size] = thetas[rows.argmax(axis=1)]
        ridge[start:start + size] = rows.max(axis=1)
    return land


# --------------------------------------------------------------------------
# physical units
# --------------------------------------------------------------------------

def physical_time(t: float, f_cav_hz: float) -> float:
    """Convert protocol time units (1 / omega_cav) to seconds for a cavity
    running at the given ordinary frequency."""
    if not 0 < f_cav_hz < np.inf:
        raise ValueError(f"cavity frequency must be finite and positive, got {f_cav_hz}")
    return t / (2 * pi * f_cav_hz)
