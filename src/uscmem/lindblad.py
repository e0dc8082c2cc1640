"""Zero-temperature dissipation in the dressed (eigenstate) basis.

In the ultrastrong regime the usual bare-operator Lindblad terms would
excite the system out of its own ground state, so decay has to be written
in the instantaneous eigenbasis: every ordered eigenpair (j, k) with
E_k > E_j contributes a jump |j><k| for each system coupling operator
s in {sigma_x, sigma_y, sigma_z, a + a^dag}, with rate

    gamma = Gamma_s |<j| s |k>|^2

(optionally reweighted by a spectral-density model). During a sweep the
dressed basis is refreshed quasi-statically every few steps by
:func:`~uscmem.model.sector_levels` from the step's sector eigensystems.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi
from typing import Callable

import numpy as np

from .dynamics import PropagatorConfig, _sector_unitary, _sweep
from .hilbert import HilbertDims, State, annihilation_op, pauli_op
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import CouplingSchedule, ModelParams, build_rabi, sector_levels  # noqa: F401

_RATE_FLOOR = 1e-14
_TRACE_TOL = 1e-8
_HERM_TOL = 1e-10
_EIG_FLOOR_HARD = -1e-6


class PositivityError(RuntimeError):
    """Density matrix developed a meaningful negative eigenvalue."""


# RateModel(base_rate, transition_energy) -> effective rate
RateModel = Callable[[float, float], float]


def flat_rate(base: float, delta_e: float) -> float:
    """Frequency-independent bath coupling (the default)."""
    return base


def ohmic_rate(omega_ref: float = 1.0) -> RateModel:
    """Bath coupling growing linearly with transition frequency."""
    if omega_ref <= 0:
        raise ValueError("omega_ref must be positive")

    def model(base: float, delta_e: float) -> float:
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
) -> list[tuple[int, int, float]]:
    """Downward transition rates among the lowest levels of an eigensystem.

    Returns [(j, k, rate), ...] with channels sharing the same (j, k)
    already merged.
    """
    if k_levels < 2 or k_levels > dims.total_dim:
        raise ValueError(f"k_levels must be in [2, {dims.total_dim}], got {k_levels}")
    model = rate_model or flat_rate
    low = vectors[:, :k_levels]
    base = [rates.gamma_x, rates.gamma_y, rates.gamma_z, rates.gamma_r]
    merged: dict[tuple[int, int], float] = {}
    for op, gamma in zip(_channel_ops(dims), base):
        if gamma == 0.0:
            continue
        elem = low.conj().T @ op @ low
        for k in range(k_levels):
            for j in range(k_levels):
                delta = energies[k] - energies[j]
                if delta <= 0.0:
                    continue
                rate = model(gamma, float(delta)) * float(abs(elem[j, k]) ** 2)
                if rate >= _RATE_FLOOR:
                    merged[(j, k)] = merged.get((j, k), 0.0) + rate
    return [(j, k, r) for (j, k), r in sorted(merged.items())]


def dressed_dissipators(
    h: np.ndarray,
    rates: NoiseRates,
    dims: HilbertDims,
    k_levels: int = 12,
    rate_model: RateModel | None = None,
) -> list[tuple[np.ndarray, float]]:
    """Jump operators |j><k| (dense, full space) with their merged rates.

    Only downward transitions among the lowest k_levels dressed states are
    kept; rates below 1e-14 are dropped.
    """
    energies, vectors = np.linalg.eigh(h)
    out = []
    for j, k, rate in _rate_table(energies, vectors, rates, dims, k_levels, rate_model):
        op = np.outer(vectors[:, j], vectors[:, k].conj())
        out.append((op, rate))
    return out


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
    Trace, Hermiticity, and positivity are checked at every recorded sample.
    """
    dims = params.dims
    if rho0.shape != (dims.total_dim, dims.total_dim):
        raise ValueError("rho0 shape does not match the model space")
    if refresh_every < 1:
        raise ValueError("refresh_every must be >= 1")
    validate_density(rho0, "rho0")

    basis = None          # dressed eigenvectors of the last refresh
    out_rate = None       # total decay rate per dressed level
    gain = None           # gain[j, k] = rate of |k> feeding |j>

    def step(rho, w, v, dt, i):
        nonlocal basis, out_rate, gain
        u = _sector_unitary(params, w, v, dt)
        rho = u @ rho @ u.conj().T
        if rates.all_zero:
            return rho
        if i % refresh_every == 0:
            (evals,), _, (basis,) = sector_levels(params, w[None], v[None], dims.total_dim)
            table = _rate_table(evals, basis, rates, dims, k_levels, rate_model)
            gain = np.zeros((dims.total_dim, dims.total_dim))
            for j, k, rate in table:
                gain[j, k] = rate
            out_rate = gain.sum(axis=0)
        # work in the dressed basis where every jump is |j><k|
        rho_d = basis.conj().T @ rho @ basis
        decay = -0.5 * (out_rate[:, None] + out_rate[None, :]) * rho_d
        feed = gain @ np.real(np.diag(rho_d))
        np.fill_diagonal(decay, np.diagonal(decay) + feed)
        return rho + dt * (basis @ decay @ basis.conj().T)

    def check(rho, n):
        validate_density(rho, f"rho at step {n}")

    rho = np.array(rho0, dtype=np.complex128)
    return MasterTrajectory(dims, *_sweep(params, schedule, cfg, rho, step, check))


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
