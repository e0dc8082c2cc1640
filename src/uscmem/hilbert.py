"""Truncated qubit-resonator Hilbert space: dimensions, operators, states.

Single-cell basis ordering is qubit-major: index i = q * n_fock + n with
q = 0 for |g>, q = 1 for |e>. Two-cell states live on the tensor product
with cell 1 as the slowest-varying factor. All operators are dense complex
numpy arrays; the target problem sizes (dim <= a few thousand) never need
sparse storage.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, lgamma

import numpy as np

# Hard cap on tensor-product results. Anything bigger than this is a sign
# that a desk-scale run was misconfigured, not a real use case.
MAX_TENSOR_DIM = 8192

_NORM_TOL = 1e-9


class TruncationError(ValueError):
    """Raised when a state cannot be represented in the truncated Fock space."""


@dataclass(frozen=True)
class HilbertDims:
    """Shape of the truncated Hilbert space.

    n_fock
        Number of Fock levels kept per resonator (0 .. n_fock - 1).
    n_cells
        Number of qubit-resonator cells (1 or 2).
    """

    n_fock: int
    n_cells: int = 1

    def __post_init__(self) -> None:
        if self.n_fock < 2:
            raise ValueError(f"n_fock must be >= 2, got {self.n_fock}")
        if self.n_cells not in (1, 2):
            raise ValueError(f"n_cells must be 1 or 2, got {self.n_cells}")

    @property
    def cell_dim(self) -> int:
        return 2 * self.n_fock

    @property
    def total_dim(self) -> int:
        return self.cell_dim ** self.n_cells

    def index(self, qubit: int, n: int) -> int:
        """Basis index of |qubit, n> in a single cell."""
        if qubit not in (0, 1):
            raise ValueError(f"qubit must be 0 (g) or 1 (e), got {qubit}")
        if not 0 <= n < self.n_fock:
            raise ValueError(f"Fock level {n} outside [0, {self.n_fock})")
        return qubit * self.n_fock + n


@dataclass(frozen=True)
class State:
    """Normalized pure state on a qubit-resonator space.

    The amplitude array is coerced to complex128 and its norm must be within
    1e-9 of one; use :func:`normalized` when the input norm is only
    approximate.
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
        if abs(nrm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {_NORM_TOL}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "State") -> complex:
        """<self|other>."""
        if other.dims != self.dims:
            raise ValueError("overlap requires matching dims")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def normalized(dims: HilbertDims, amplitudes: np.ndarray) -> State:
    """Build a State after dividing out the norm of ``amplitudes``."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return State(dims, amps / nrm)


def basis_state(dims: HilbertDims, qubit: int, n: int) -> State:
    """|qubit, n> for a single cell."""
    if dims.n_cells != 1:
        raise ValueError("basis_state is defined for single-cell dims")
    amps = np.zeros(dims.total_dim, dtype=np.complex128)
    amps[dims.index(qubit, n)] = 1.0
    return State(dims, amps)


def product_state(dims: HilbertDims, qubit_amps: np.ndarray, fock_amps: np.ndarray) -> State:
    """Single-cell product state (qubit factor) x (Fock factor)."""
    if dims.n_cells != 1:
        raise ValueError("product_state is defined for single-cell dims")
    q = np.asarray(qubit_amps, dtype=np.complex128)
    f = np.asarray(fock_amps, dtype=np.complex128)
    if q.shape != (2,) or f.shape != (dims.n_fock,):
        raise ValueError("factor shapes must be (2,) and (n_fock,)")
    return normalized(dims, np.kron(q, f))


def join_cells(cell1: State, cell2: State) -> State:
    """Two-cell product state with cell 1 as the slow tensor factor."""
    if cell1.dims != cell2.dims or cell1.dims.n_cells != 1:
        raise ValueError("join_cells expects two single-cell states with equal dims")
    dims2 = HilbertDims(cell1.dims.n_fock, n_cells=2)
    return State(dims2, np.kron(cell1.amplitudes, cell2.amplitudes))


# --------------------------------------------------------------------------
# operators
# --------------------------------------------------------------------------

def fock_annihilation(n_fock: int) -> np.ndarray:
    """Annihilation operator on the bare Fock factor, <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, n_fock, dtype=np.float64)), 1).astype(np.complex128)


def annihilation_op(dims: HilbertDims) -> np.ndarray:
    """Cell annihilation operator, identity on the qubit factor."""
    if dims.n_cells != 1:
        raise ValueError("annihilation_op acts on a single cell")
    return np.kron(np.eye(2, dtype=np.complex128), fock_annihilation(dims.n_fock))


def creation_op(dims: HilbertDims) -> np.ndarray:
    return annihilation_op(dims).conj().T


def number_op(dims: HilbertDims) -> np.ndarray:
    """Photon number operator a^dag a, identity on the qubit factor."""
    if dims.n_cells != 1:
        raise ValueError("number_op acts on a single cell")
    n = np.diag(np.arange(dims.n_fock, dtype=np.float64)).astype(np.complex128)
    return np.kron(np.eye(2, dtype=np.complex128), n)


_PAULI = {
    # Basis order (|g>, |e>); sigma_z |e> = +|e>, sigma_z |g> = -|g>.
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),
    "z": np.array([[-1, 0], [0, 1]], dtype=np.complex128),
}


def pauli_op(axis: str, dims: HilbertDims) -> np.ndarray:
    """Qubit Pauli operator on a cell, identity on the Fock factor."""
    if dims.n_cells != 1:
        raise ValueError("pauli_op acts on a single cell")
    try:
        sigma = _PAULI[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return np.kron(sigma, np.eye(dims.n_fock, dtype=np.complex128))


def identity_op(dims: HilbertDims) -> np.ndarray:
    return np.eye(dims.total_dim, dtype=np.complex128)


def tensor(a: np.ndarray, b: np.ndarray, max_dim: int = MAX_TENSOR_DIM) -> np.ndarray:
    """Kronecker product with a dimension guard.

    The guard catches accidentally huge requests early; raise ``max_dim`` if a
    larger product is genuinely wanted.
    """
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > max_dim:
        raise ValueError(f"tensor result dim {out_dim} exceeds cap {max_dim}")
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


# --------------------------------------------------------------------------
# coherent states
# --------------------------------------------------------------------------

def coherent_truncation_weight(alpha: complex, n_fock: int) -> float:
    """Probability weight of a coherent state beyond the kept Fock levels."""
    if alpha == 0:
        return 0.0
    n = np.arange(n_fock)
    log_p = -abs(alpha) ** 2 + n * np.log(abs(alpha) ** 2) - _log_factorial(n_fock)
    kept = float(np.exp(log_p).sum())
    return max(0.0, 1.0 - kept)


@lru_cache(maxsize=None)
def _log_factorial(n_fock: int) -> np.ndarray:
    """Read-only log(n!) for n = 0 .. n_fock - 1, computed once per n_fock."""
    out = np.array([lgamma(k + 1) for k in range(n_fock)])
    out.flags.writeable = False
    return out


def coherent_state(alpha: complex, dims: HilbertDims | int) -> np.ndarray:
    """Fock-factor amplitudes of |alpha>, renormalized after truncation.

    Demands |alpha|^2 <= n_fock / 4 so that the truncated tail is negligible,
    and additionally rejects the state if the discarded weight reaches 1e-8.
    """
    n_fock = dims.n_fock if isinstance(dims, HilbertDims) else int(dims)
    if n_fock < 2:
        raise ValueError(f"n_fock must be >= 2, got {n_fock}")
    if abs(alpha) ** 2 > n_fock / 4:
        raise TruncationError(
            f"|alpha|^2 = {abs(alpha)**2:.4f} exceeds n_fock/4 = {n_fock / 4:.4f}"
        )
    tail = coherent_truncation_weight(alpha, n_fock)
    if tail >= 1e-8:
        raise TruncationError(f"discarded coherent weight {tail:.3e} >= 1e-8")
    n = np.arange(n_fock)
    if alpha == 0:
        amps = np.zeros(n_fock, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    # log-domain magnitudes avoid overflow in alpha**n / sqrt(n!)
    log_mag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * _log_factorial(n_fock)
    phase = np.exp(1j * n * np.angle(alpha))
    amps = np.exp(log_mag) * phase
    return amps / np.linalg.norm(amps)


def two_mode_vacuum(n_fock: int) -> np.ndarray:
    """|0, 0> on a two-mode Fock space (used by the interference tools)."""
    amps = np.zeros(n_fock * n_fock, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def two_mode_index(n_fock: int, n_a: int, n_b: int) -> int:
    """Flat index of |n_a, n_b> with mode a as the slow factor."""
    if not (0 <= n_a < n_fock and 0 <= n_b < n_fock):
        raise ValueError("Fock levels outside truncation")
    return n_a * n_fock + n_b


def infer_two_mode_fock(state: np.ndarray) -> int:
    """Recover n_fock from a flattened two-mode state length."""
    n = isqrt(len(state))
    if n * n != len(state):
        raise ValueError(f"length {len(state)} is not a perfect square")
    return n
