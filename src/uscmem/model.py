"""Quantum Rabi model and time-dependent coupling schedules.

Units: hbar = 1 and energies in multiples of the cavity frequency, which
defaults to 1. The Hamiltonian of one cell is

    H(Omega) = (omega_eg / 2) sigma_z + omega_cav a^dag a
               + Omega sigma_x (a + a^dag)

on the truncated space described by :class:`~uscmem.hilbert.HilbertDims`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import cos, sin

import numpy as np

from .hilbert import HilbertDims


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
        if self.omega_cav <= 0:
            raise ValueError(f"omega_cav must be > 0, got {self.omega_cav}")
        if self.omega_eg < 0:
            raise ValueError(f"omega_eg must be >= 0, got {self.omega_eg}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")
        if self.n_fock < 2:
            raise ValueError(f"n_fock must be >= 2, got {self.n_fock}")

    @property
    def dims(self) -> HilbertDims:
        return HilbertDims(self.n_fock)

    @cached_property
    def chains(self) -> "ParityChains":
        """The two parity chains of H(Omega), computed once per instance."""
        n = np.arange(self.n_fock)
        qubit = np.array([1 - n % 2, n % 2])
        index = qubit * self.n_fock + n
        chains = ParityChains(
            index=index,
            diag=np.where(qubit, 0.5, -0.5) * self.omega_eg + self.omega_cav * n,
            hop=np.sqrt(np.arange(1, self.n_fock, dtype=np.float64)),
        )
        for arr in (chains.index, chains.diag, chains.hop):
            arr.flags.writeable = False
        return chains


@dataclass(frozen=True)
class ParityChains:
    """H(Omega) split by the parity P = sigma_z exp(i pi a^dag a).

    P commutes with H(Omega), which is therefore two real tridiagonal
    chains with no element between them. Row s of each array describes
    sector s in chain order: sector 0 is P = +1, |e,0>, |g,1>, |e,2>, ...;
    sector 1 is P = -1, |g,0>, |e,1>, |g,2>, ....

    index
        (2, n_fock) basis indices of the chain sites.
    diag
        (2, n_fock) bare energies of the sites, which Omega leaves alone.
    hop
        (n_fock - 1,) couplings sqrt(n + 1) between sites n and n + 1 of
        either chain; H(Omega) has Omega * hop beside its diagonal.
    """

    index: np.ndarray
    diag: np.ndarray
    hop: np.ndarray


@dataclass(frozen=True)
class CouplingSchedule:
    """Linear ramp of the coupling over [0, total_time]."""

    omega_start: float
    omega_end: float
    total_time: float
    shape: str = "linear"

    def __post_init__(self) -> None:
        if self.total_time <= 0:
            raise ValueError(f"total_time must be > 0, got {self.total_time}")
        if self.shape != "linear":
            raise ValueError(f"unsupported schedule shape {self.shape!r}")

    @classmethod
    def from_flux(
        cls, f: float, delta_f: float, omega0: float, total_time: float
    ) -> "CouplingSchedule":
        """Schedule from a flux bias working point.

        A small linear flux excursion delta_f around the bias f modulates the
        coupling as Omega(t) = (cos f - delta_f sin f * t / T) * omega0, which
        is again a linear ramp in time.
        """
        return cls(
            omega_start=omega0 * cos(f),
            omega_end=omega0 * (cos(f) - delta_f * sin(f)),
            total_time=total_time,
        )

    @property
    def is_sweep(self) -> bool:
        return self.omega_start != self.omega_end

    def coupling_at(self, t: float) -> float:
        if not 0.0 <= t <= self.total_time:
            raise ValueError(f"t = {t} outside [0, {self.total_time}]")
        frac = t / self.total_time
        return self.omega_start + (self.omega_end - self.omega_start) * frac

    def reversed(self) -> "CouplingSchedule":
        return CouplingSchedule(self.omega_end, self.omega_start, self.total_time, self.shape)


def storage_schedule(params: ModelParams, total_time: float) -> CouplingSchedule:
    """Write sweep: ramp the coupling from 0 up to omega0."""
    return CouplingSchedule(0.0, params.omega0, total_time)


def retrieval_schedule(params: ModelParams, total_time: float) -> CouplingSchedule:
    """Read sweep: ramp the coupling from omega0 back to 0."""
    return CouplingSchedule(params.omega0, 0.0, total_time)


def build_rabi(params: ModelParams, coupling: float) -> np.ndarray:
    """Dense cell Hamiltonian at a fixed coupling, scattered from the parity
    chains, so it is the same matrix the sweeps diagonalize per sector."""
    chains = params.chains
    index = chains.index
    h = np.zeros((params.dims.total_dim,) * 2, dtype=np.complex128)
    h[index, index] = chains.diag
    hop = coupling * chains.hop
    h[index[:, 1:], index[:, :-1]] = hop
    h[index[:, :-1], index[:, 1:]] = hop
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
    chains = params.chains
    site = np.arange(params.n_fock)
    blocks = np.zeros((len(couplings), 2, params.n_fock, params.n_fock))
    blocks[:, :, site, site] = chains.diag
    hop = np.asarray(couplings)[:, None, None] * chains.hop
    blocks[:, :, site[1:], site[:-1]] = hop
    blocks[:, :, site[:-1], site[1:]] = hop
    return np.linalg.eigh(blocks)


def sector_levels(
    params: ModelParams, w: np.ndarray, v: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k lowest levels over both parity chains, from the eigenpairs
    w (m, 2, depth), v (m, 2, n_fock, depth) of :func:`sector_eigh`.

    Returns energies (m, k) ascending, with the P = -1 level first on an
    exact tie by convention (for omega_eg > 0 it is the lower level of
    the ground doublet), chain labels (m, k), sector * n_fock + rank, and
    full-basis real states (m, dim, k).
    """
    m, _, depth = w.shape
    nf = params.n_fock
    # sector 1 (P = -1) listed first, so a stable sort puts it first on ties
    flat_w = w[:, ::-1].reshape(m, 2 * depth)
    label = (np.array([[nf], [0]]) + np.arange(depth)).reshape(-1)
    order = np.argsort(flat_w, axis=1, kind="stable")[:, :k]
    energies = np.take_along_axis(flat_w, order, axis=1)
    labels = label[order]
    sector, rank = np.divmod(labels, nf)
    states = np.zeros((m, params.dims.total_dim, k))
    rows = np.arange(m)[:, None, None]
    cols = np.arange(k)[None, :, None]
    states[rows, params.chains.index[sector], cols] = v[rows, sector[..., None],
                                                      np.arange(nf), rank[..., None]]
    return energies, labels, states


def parity_op(dims: HilbertDims) -> np.ndarray:
    """Z2 symmetry operator sigma_z exp(i pi a^dag a) of one cell.

    Commutes with the Rabi Hamiltonian at every coupling, so its eigenvalue
    (+1 or -1) labels each eigenstate and is conserved during sweeps.
    """
    photon_parity = np.diag((-1.0 + 0j) ** np.arange(dims.n_fock))
    return np.kron(np.array([[-1, 0], [0, 1]], dtype=np.complex128), photon_parity)

