"""Truncated qubit-resonator cell: states, the bare ladder operator and
coherent states.

A cell of n_fock Fock levels has 2 * n_fock basis states, laid out by
:class:`~uscmem.model.ParityChains`; the Hamiltonian and the noise
channels of :mod:`uscmem.lindblad` act on those chains. What remains here
are the Fock-factor ladder operator, from which the chains take their hop
matrix a + a^dag and which the standalone two-mode interference check
:func:`~uscmem.protocols.beam_splitter` uses, and coherent states with
truncation guards for the cat approximants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-9


class TruncationError(ValueError):
    """Raised when a state cannot be represented in the truncated Fock space."""


@dataclass(frozen=True)
class State:
    """Normalized pure state of a cell: a 1-d amplitude vector, coerced to
    complex128, whose norm must be within 1e-9 of one."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be a 1-d vector, got shape {amps.shape}")
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


def coherent_state(alpha: complex, n_fock: int) -> np.ndarray:
    """Fock-factor amplitudes of |alpha>, renormalized after truncation.

    Demands |alpha|^2 <= n_fock / 4 so that the truncated tail is negligible,
    and additionally rejects the state if the discarded weight reaches 1e-8.
    """
    if n_fock < 2:
        raise ValueError(f"n_fock must be >= 2, got {n_fock}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if abs(alpha) ** 2 > n_fock / 4:
        raise TruncationError(
            f"|alpha|^2 = {abs(alpha)**2:.4f} exceeds n_fock/4 = {n_fock / 4:.4f}"
        )
    amps = _coherent_terms(alpha, n_fock)
    tail = 1.0 - np.sum(np.abs(amps) ** 2)
    if tail >= 1e-8:
        raise TruncationError(f"discarded coherent weight {tail:.3e} >= 1e-8")
    return amps / np.linalg.norm(amps)
