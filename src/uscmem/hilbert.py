"""Truncated qubit-resonator Hilbert space: dimensions, states, the bare
ladder operator and coherent states.

The space is one qubit-resonator cell. Basis ordering is qubit-major:
index i = q * n_fock + n with q = 0 for |g>, q = 1 for |e>. Sweeps never
assemble an operator on the cell here: the Hamiltonian and the noise
channels of :mod:`uscmem.lindblad` act on its parity chains
(:class:`~uscmem.model.ParityChains`). What remains are the Fock-factor
ladder operator, which the register's beam splitter uses, and coherent
states with truncation guards for the cat approximants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-9


class TruncationError(ValueError):
    """Raised when a state cannot be represented in the truncated Fock space."""


@dataclass(frozen=True)
class HilbertDims:
    """Shape of the truncated Hilbert space: n_fock Fock levels
    (0 .. n_fock - 1) times the two qubit levels."""

    n_fock: int

    def __post_init__(self) -> None:
        if self.n_fock < 2:
            raise ValueError(f"n_fock must be >= 2, got {self.n_fock}")

    @property
    def total_dim(self) -> int:
        return 2 * self.n_fock

    def index(self, qubit: int, n: int) -> int:
        """Basis index of |qubit, n>."""
        if qubit not in (0, 1):
            raise ValueError(f"qubit must be 0 (g) or 1 (e), got {qubit}")
        if not 0 <= n < self.n_fock:
            raise ValueError(f"Fock level {n} outside [0, {self.n_fock})")
        return qubit * self.n_fock + n


@dataclass(frozen=True)
class State:
    """Normalized pure state on a qubit-resonator space.

    The amplitude array is coerced to complex128 and its norm must be within
    1e-9 of one.
    """

    dims: HilbertDims
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.dims.total_dim,):
            raise ValueError(
                f"amplitude shape {amps.shape} does not match dim {self.dims.total_dim}"
            )
        object.__setattr__(self, "amplitudes", amps)
        nrm = float(np.linalg.norm(amps))
        if not (abs(nrm - 1.0) <= _NORM_TOL):
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {_NORM_TOL}")


# --------------------------------------------------------------------------
# operators
# --------------------------------------------------------------------------

def fock_annihilation(n_fock: int) -> np.ndarray:
    """Annihilation operator on the bare Fock factor, <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, n_fock, dtype=np.float64)), 1).astype(np.complex128)


# --------------------------------------------------------------------------
# coherent states
# --------------------------------------------------------------------------

def _coherent_terms(alpha: complex, n_fock: int) -> np.ndarray:
    """<n|alpha> for n < n_fock. The magnitudes are one cumulative sum of
    logs, -|alpha|^2 / 2 + n log|alpha| - sum_{k <= n} log(k) / 2, so no
    partial product under- or overflows; the phase is (alpha / |alpha|)^n."""
    n = np.arange(n_fock)
    logs = np.full(n_fock, -abs(alpha) ** 2 / 2)
    logs[1:] = (np.log(abs(alpha)) if alpha else -np.inf) - 0.5 * np.log(n[1:])
    phase = np.complex128(alpha / abs(alpha) if alpha else 1)
    return np.exp(np.cumsum(logs)) * phase ** n


def coherent_truncation_weight(alpha: complex, n_fock: int) -> float:
    """Probability weight of a coherent state beyond the kept Fock levels."""
    kept = float(np.sum(np.abs(_coherent_terms(alpha, n_fock)) ** 2))
    return max(0.0, 1.0 - kept)


def coherent_state(alpha: complex, n_fock: int) -> np.ndarray:
    """Fock-factor amplitudes of |alpha>, renormalized after truncation.

    Demands |alpha|^2 <= n_fock / 4 so that the truncated tail is negligible,
    and additionally rejects the state if the discarded weight reaches 1e-8.
    """
    if n_fock < 2:
        raise ValueError(f"n_fock must be >= 2, got {n_fock}")
    if abs(alpha) ** 2 > n_fock / 4:
        raise TruncationError(
            f"|alpha|^2 = {abs(alpha)**2:.4f} exceeds n_fock/4 = {n_fock / 4:.4f}"
        )
    tail = coherent_truncation_weight(alpha, n_fock)
    if tail >= 1e-8:
        raise TruncationError(f"discarded coherent weight {tail:.3e} >= 1e-8")
    amps = _coherent_terms(alpha, n_fock)
    return amps / np.linalg.norm(amps)
