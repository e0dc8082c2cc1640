"""Zero-temperature dissipation in the dressed (eigenstate) basis.

In the ultrastrong regime the usual bare-operator Lindblad terms would
excite the system out of its own ground state, so decay has to be written
in the instantaneous eigenbasis: every ordered eigenpair (j, k) with
E_k > E_j contributes a jump |j><k| for each system coupling operator
s in {sigma_x, sigma_y, sigma_z, a + a^dag}, with rate

    gamma = Gamma_s |<j| s |k>|^2

(optionally reweighted by a spectral-density model). During a sweep the
dressed basis is refreshed quasi-statically every few steps by
:func:`~uscmem.model.sector_levels` from the step's sector eigensystems,
and the density matrix is carried in the frame of the last refresh: there
every jump is |j><k|, so the dissipator acts elementwise, and the frame
changes only when the basis is refreshed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi
from typing import Callable

import numpy as np

from .dynamics import PropagatorConfig, _real_matmul, _sweep
from .hilbert import HilbertDims, State, annihilation_op, pauli_op
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import CouplingSchedule, ModelParams, build_rabi, sector_levels  # noqa: F401

_RATE_FLOOR = 1e-14
_TRACE_TOL = 1e-8
_HERM_TOL = 1e-10
_EIG_FLOOR_HARD = -1e-6


class PositivityError(RuntimeError):
    """Density matrix developed a meaningful negative eigenvalue."""


# RateModel(base_rate, transition_energies) -> effective rates, elementwise
# over an ndarray of positive transition energies
RateModel = Callable[[float, np.ndarray], np.ndarray]


def flat_rate(base: float, delta_e: np.ndarray) -> float:
    """Frequency-independent bath coupling (the default)."""
    return base


def ohmic_rate(omega_ref: float = 1.0) -> RateModel:
    """Bath coupling growing linearly with transition frequency."""
    if omega_ref <= 0:
        raise ValueError("omega_ref must be positive")

    def model(base: float, delta_e: np.ndarray) -> np.ndarray:
        return base * delta_e / omega_ref

    return model


@dataclass(frozen=True)
class NoiseRates:
    """Base decay rates per coupling channel (angular frequency units)."""

    gamma_x: float
    gamma_y: float
    gamma_z: float
    gamma_r: float

    def __post_init__(self) -> None:
        for name in ("gamma_x", "gamma_y", "gamma_z", "gamma_r"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def for_qubit_splitting(cls, omega_eg: float) -> "NoiseRates":
        """Reference noise point: qubit channels at 1e-3 of the splitting,
        resonator channel at 1e-4 of it."""
        return cls(
            gamma_x=1e-3 * omega_eg,
            gamma_y=1e-3 * omega_eg,
            gamma_z=1e-3 * omega_eg,
            gamma_r=1e-4 * omega_eg,
        )

    @property
    def all_zero(self) -> bool:
        return self.gamma_x == self.gamma_y == self.gamma_z == self.gamma_r == 0.0


#---------------------------------------------------------------------------
# dressed jump operators
#---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _channel_ops(dims: HilbertDims) -> tuple[np.ndarray, ...]:
    """Read-only sigma_x, sigma_y, sigma_z and a + a^dag, built once per dims."""
    a = annihilation_op(dims)
    ops = (pauli_op("x", dims), pauli_op("y", dims), pauli_op("z", dims), a + a.conj().T)
    for op in ops:
        op.flags.writeable = False
    return ops


def _rate_table(
    energies: np.ndarray,
    vectors: np.ndarray,
    rates: NoiseRates,
    dims: HilbertDims,
    k_levels: int,
    rate_model: RateModel | None,
) -> np.ndarray:
    """Downward transition rates among the lowest levels of an eigensystem.

    Returns gain (k_levels, k_levels), gain[j, k] the rate of the jump
    |j><k|, with the channels merged in the order x, y, z, r.
    """
    if k_levels < 2 or k_levels > dims.total_dim:
        raise ValueError(f"k_levels must be in [2, {dims.total_dim}], got {k_levels}")
    model = rate_model or flat_rate
    low = vectors[:, :k_levels]
    e = energies[:k_levels]
    delta = e[None, :] - e[:, None]
    down = delta > 0.0
    base = [rates.gamma_x, rates.gamma_y, rates.gamma_z, rates.gamma_r]
    gain = np.zeros((k_levels, k_levels))
    for op, gamma in zip(_channel_ops(dims), base):
        if gamma == 0.0:
            continue
        elem = low.conj().T @ op @ low
        rate = model(gamma, delta[down]) * np.abs(elem[down]) ** 2
        gain[down] += np.where(rate >= _RATE_FLOOR, rate, 0.0)
    return gain


#---------------------------------------------------------------------------
# density matrices
#---------------------------------------------------------------------------

def pure_density(state: State) -> np.ndarray:
    return np.outer(state.amplitudes, state.amplitudes.conj())


def validate_density(rho: np.ndarray, where: str = "rho") -> None:
    if float(np.abs(rho - rho.conj().T).max()) > _HERM_TOL:
        raise ValueError(f"{where} is not Hermitian within {_HERM_TOL}")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValueError(f"{where} trace {tr!r} deviates from 1 beyond {_TRACE_TOL}")
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if lowest < _EIG_FLOOR_HARD:
        raise PositivityError(f"{where} eigenvalue {lowest:.3e} below {_EIG_FLOOR_HARD}")


def fidelity_mixed(rho: np.ndarray, state: State) -> float:
    """<psi| rho |psi>, clipped into [0, 1] against roundoff."""
    psi = state.amplitudes
    val = float(np.real(np.vdot(psi, rho @ psi)))
    if val < -1e-10 or val > 1.0 + 1e-8:
        raise ValueError(f"fidelity {val!r} outside [0, 1] beyond tolerance")
    return min(max(val, 0.0), 1.0)


@dataclass(frozen=True)
class MasterTrajectory:
    """Recorded open-system sweep: times, couplings, density matrices."""

    dims: HilbertDims
    times: np.ndarray
    couplings: np.ndarray
    rhos: np.ndarray

    @property
    def n_recorded(self) -> int:
        return len(self.times)

    @property
    def final(self) -> np.ndarray:
        return self.rhos[-1]


#---------------------------------------------------------------------------
# master equation integration
#---------------------------------------------------------------------------

def evolve_master(
    params: ModelParams,
    schedule: CouplingSchedule,
    rho0: np.ndarray,
    rates: NoiseRates,
    cfg: PropagatorConfig,
    k_levels: int = 12,
    refresh_every: int = 20,
    rate_model: RateModel | None = None,
) -> MasterTrajectory:
    """Sweep a cell under the dressed-basis master equation.

    Each step applies the exact midpoint unitary followed by a first-order
    dissipator update. The jump table is rebuilt from the step's sector
    eigensystems every refresh_every steps (quasi-static approximation).

    The state is carried in the frame of the last refresh, rho_f = B^T rho B
    with B the real dressed basis of :func:`~uscmem.model.sector_levels`
    (the identity before the first refresh, and throughout when every rate
    is zero). There every jump is |j><k|, so the dissipator acts
    elementwise. A refresh rotates rho_f once by R = B_new^T B_old; each
    step applies U_f = M exp(-i w dt) M^T with M = B^T V, V the step's
    eigenvectors, so one dense sandwich U_f rho_f U_f^dag remains per step.
    Recorded samples are the lab-frame B rho_f B^T, and trace, Hermiticity
    and positivity are checked on each of them.
    """
    dims = params.dims
    d = dims.total_dim
    if rho0.shape != (d, d):
        raise ValueError("rho0 shape does not match the model space")
    if refresh_every < 1:
        raise ValueError("refresh_every must be >= 1")
    validate_density(rho0, "rho0")

    index = params.chains.index
    frame = np.eye(d)     # dressed basis B of the last refresh, levels as columns
    sites = frame[index]  # (2, n_fock, d): the rows of B at each chain's sites
    gain = None           # gain[j, k] = rate of |k> feeding |j>
    decay = None          # decay[j, k] = -(Gamma_j + Gamma_k) / 2

    def step(rho_f, w, v, dt, i):
        nonlocal frame, sites, gain, decay
        if not rates.all_zero and i % refresh_every == 0:
            (evals,), _, (basis,) = sector_levels(params, w[None], v[None], d)
            r = basis.T @ frame
            rho_f = r @ rho_f @ r.T
            frame, sites = basis, basis[index]
            gain = np.zeros((d, d))
            gain[:k_levels, :k_levels] = _rate_table(
                evals, basis, rates, dims, k_levels, rate_model)
            out_rate = gain.sum(axis=0)
            decay = -0.5 * (out_rate[:, None] + out_rate[None, :])
        # M^T = V^T B per sector: row (s, r) is level r of sector s in the frame
        mt = (np.swapaxes(v, 1, 2) @ sites).reshape(d, d)
        u = _real_matmul(mt.T, np.exp(-1j * w * dt).reshape(d, 1) * mt)
        rho_f = u @ rho_f @ u.conj().T
        if rates.all_zero:
            return rho_f
        drho = decay * rho_f
        np.fill_diagonal(drho, np.diagonal(drho) + gain @ np.real(np.diagonal(rho_f)))
        return rho_f + dt * drho

    def check(rho, n):
        validate_density(rho, f"rho at step {n}")

    def lab(rho_f):
        return frame @ rho_f @ frame.T

    rho = np.array(rho0, dtype=np.complex128)
    return MasterTrajectory(dims, *_sweep(params, schedule, cfg, rho, step, check, lab))


def _branch_terms(
    rho: np.ndarray, dims: HilbertDims, alpha_f: complex, beta_f: complex
) -> tuple[float, complex]:
    """Branch populations w and coherence z of a retrieved density matrix,
    weighted by the input amplitudes: F(theta) = w + 2 Re(e^{i theta} z)."""
    i_g = dims.index(0, 0)
    i_e = dims.index(1, 0)
    w = (abs(alpha_f) ** 2 * float(np.real(rho[i_g, i_g]))
         + abs(beta_f) ** 2 * float(np.real(rho[i_e, i_e])))
    z = complex(np.conj(alpha_f) * beta_f * rho[i_g, i_e])
    return w, z


def corrected_fidelity_mixed(
    rho: np.ndarray,
    dims: HilbertDims,
    theta: float,
    alpha_f: complex = 2 ** -0.5,
    beta_f: complex = 2 ** -0.5,
) -> float:
    """<psi_s| C(theta) rho C(theta)^dag |psi_s> for a fixed correction."""
    w, z = _branch_terms(rho, dims, alpha_f, beta_f)
    return w + 2 * float(np.real(np.exp(1j * theta) * z))


def optimize_retrieval_phase_mixed(
    rho: np.ndarray,
    dims: HilbertDims,
    alpha_f: complex = 2 ** -0.5,
    beta_f: complex = 2 ** -0.5,
) -> tuple[float, float]:
    """Closed-form best excited-branch phase for a retrieved density matrix.

    F(theta) = w + 2 Re(e^{i theta} z) with w the branch populations and z
    the relevant coherence, so theta_opt = -arg(z).
    """
    w, z = _branch_terms(rho, dims, alpha_f, beta_f)
    theta = (-float(np.angle(z))) % (2 * pi) if z != 0 else 0.0
    return theta, w + 2 * abs(z)
