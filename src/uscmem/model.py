"""Quantum Rabi model and time-dependent coupling schedules.

Units: hbar = 1 and energies in multiples of the cavity frequency, which
defaults to 1. The Hamiltonian of one cell is

    H(Omega) = (omega_eg / 2) sigma_z + omega_cav a^dag a
               + Omega sigma_x (a + a^dag)

on a cell's 2 * n_fock basis states, laid out by :class:`ParityChains`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import fock_annihilation


@dataclass(frozen=True)
class ModelParams:
    """Static cell parameters.

    omega0 is the peak coupling amplitude reached at the far end of a
    storage sweep; protocols sweep the instantaneous coupling between 0 and
    omega0.
    """

    omega_cav: float = 1.0
    omega_eg: float = 0.1
    omega0: float = 1.0
    n_fock: int = 30

    def __post_init__(self) -> None:
        # written so that nan and inf fail each guard
        if not 0 < self.omega_cav < np.inf:
            raise ValueError(f"omega_cav must be finite and > 0, got {self.omega_cav}")
        if not 0 <= self.omega_eg < np.inf:
            raise ValueError(f"omega_eg must be finite and >= 0, got {self.omega_eg}")
        if not 0 <= self.omega0 < np.inf:
            raise ValueError(f"omega0 must be finite and >= 0, got {self.omega0}")
        if self.n_fock < 2:
            raise ValueError(f"n_fock must be >= 2, got {self.n_fock}")

    @cached_property
    def chains(self) -> "ParityChains":
        """The two parity chains of H(Omega), computed once per instance; read-only."""
        n = np.arange(self.n_fock)
        qubit = np.array([n % 2, 1 - n % 2])
        diag = np.where(qubit, 0.5, -0.5) * self.omega_eg + self.omega_cav * n
        a = fock_annihilation(self.n_fock).real
        chains = ParityChains(
            index=qubit * self.n_fock + n,
            bare=np.stack([np.diag(d) for d in diag]),
            hop=a + a.T,
        )
        for arr in (chains.index, chains.bare, chains.hop):
            arr.flags.writeable = False
        return chains


@dataclass(frozen=True)
class ParityChains:
    """H(Omega) split by the parity P = sigma_z exp(i pi a^dag a), and the
    layout of the cell basis.

    P commutes with H(Omega), which is therefore two real tridiagonal
    chains with no element between them, H_s(Omega) = bare[s] + Omega * hop.
    Row s of index and bare is chain (sector) s in site order, in the
    qubit's order: chain 0 is P = -1, |g,0>, |e,1>, |g,2>, ..., and carries
    G and the alpha branch of a stored qubit; chain 1 is P = +1, |e,0>,
    |g,1>, |e,2>, ..., and carries E and beta. So index[:, 0] is
    (|g,0>, |e,0>).

    index
        (2, n_fock) cell-basis indices of the chain sites, and the one
        record of the cell layout: |q, n> sits at q * n_fock + n, with
        q = 0 for |g> and 1 for |e>.
    bare
        (2, n_fock, n_fock) the chains at Omega = 0: the sites' bare energies.
    hop
        (n_fock, n_fock) a + a^dag on the Fock sites of either chain.
    """

    index: np.ndarray
    bare: np.ndarray
    hop: np.ndarray


@dataclass(frozen=True)
class CouplingSchedule:
    """Linear ramp of the coupling over [0, total_time]."""

    omega_start: float
    omega_end: float
    total_time: float

    def __post_init__(self) -> None:
        if not 0 < self.total_time < np.inf:
            raise ValueError(f"total_time must be finite and > 0, got {self.total_time}")
        if not np.isfinite([self.omega_start, self.omega_end]).all():
            raise ValueError(f"couplings must be finite, got {self.omega_start}, {self.omega_end}")

    @property
    def is_sweep(self) -> bool:
        return self.omega_start != self.omega_end

    def coupling_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Coupling at time t, elementwise for an array of times."""
        if not (0.0 <= np.min(t) and np.max(t) <= self.total_time):
            raise ValueError(f"t = {t} outside [0, {self.total_time}]")
        frac = t / self.total_time
        return self.omega_start + (self.omega_end - self.omega_start) * frac

    def reversed(self) -> "CouplingSchedule":
        return CouplingSchedule(self.omega_end, self.omega_start, self.total_time)


def storage_schedule(
    params: ModelParams, total_time: float, omega_start: float = 0.0
) -> CouplingSchedule:
    """Write sweep: ramp the coupling from omega_start up to omega0."""
    return CouplingSchedule(omega_start, params.omega0, total_time)


def build_rabi(params: ModelParams, coupling: float) -> np.ndarray:
    """Dense cell Hamiltonian at a fixed coupling, scattered from the parity
    chains, so it is the same matrix the sweeps diagonalize per sector."""
    chains = params.chains
    h = np.zeros((2 * params.n_fock,) * 2, dtype=np.complex128)
    h[chains.index[:, :, None], chains.index[:, None, :]] = chains.bare + coupling * chains.hop
    return h


# Couplings per sector_eigh call; larger batches save little time.
SECTOR_BATCH = 32


def sector_eigh(params: ModelParams, couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems of both parity chains at each coupling, in one batched
    real eigh.

    Returns w (m, 2, n_fock), ascending within each sector, and v
    (m, 2, n_fock, n_fock) with the eigenvectors as columns in chain-site
    order (:class:`ParityChains`). Callers pass at most SECTOR_BATCH
    couplings: the batch holds two n_fock x n_fock matrices per coupling.
    """
    couplings = np.asarray(couplings, dtype=np.float64)
    if not np.isfinite(couplings).all():
        raise ValueError(f"couplings must be finite, got {couplings}")
    chains = params.chains
    return np.linalg.eigh(chains.bare + couplings[:, None, None, None] * chains.hop)


def sector_levels(
    params: ModelParams, w: np.ndarray, v: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k lowest levels over both parity chains, from the eigenpairs
    w (m, 2, depth), v (m, 2, n_fock, depth) of :func:`sector_eigh`.

    Returns energies (m, k) ascending, with the P = -1 level first on an
    exact tie by convention (for omega_eg > 0 it is the lower level of
    the ground doublet), each level's sector (m, k), 0 for P = -1 and 1
    for P = +1, and full-basis real states (m, 2 * n_fock, k).
    """
    m, _, depth = w.shape
    nf = params.n_fock
    # chain 0 (P = -1) comes first, so a stable sort puts it first on ties
    flat_w = w.reshape(m, 2 * depth)
    order = np.argsort(flat_w, axis=1, kind="stable")[:, :k]
    energies = np.take_along_axis(flat_w, order, axis=1)
    sector, rank = np.divmod(order, depth)
    states = np.zeros((m, 2 * nf, k))
    rows = np.arange(m)[:, None, None]
    cols = np.arange(k)[None, :, None]
    states[rows, params.chains.index[sector], cols] = v[rows, sector[..., None],
                                                      np.arange(nf), rank[..., None]]
    return energies, sector, states
