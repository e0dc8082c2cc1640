"""Instantaneous spectra, the ground doublet, and its cat approximants.

A :class:`Spectrum` holds the lowest levels at every coupling of one call
as stacked arrays. :func:`sector_spectra` and :func:`build_gauge_chain`
take them from the two real parity chains of H(Omega)
(:class:`~uscmem.model.ParityChains`). Each eigenvector lies in one
sector, so its parity label holds by construction, also inside an
exactly degenerate doublet.

The qubit is stored in the ground doublet: G is the ground state of the
P = -1 chain and E that of the P = +1 chain. Its order and signs are
fixed at each coupling on its own (:func:`build_gauge_chain`), so
protocol targets need no tracking along a sweep. The cat approximants
lie on the same two chains, with the sector as an array axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import coherent_state
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import (  # noqa: F401
    SECTOR_BATCH, ModelParams, build_rabi, sector_eigh, sector_levels,
)

_ORTHO_TOL = 1e-10
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Lowest-k eigenpairs of a cell Hamiltonian at m couplings, with parity
    labels.

    ``couplings`` (m,) are the sampled couplings, ``energies`` (m, k) the
    levels, ``states`` (m, 2 * n_fock, k) real orthonormal eigenvectors as
    columns and ``parities`` (m, k) their +-1 symmetry labels. Levels are
    in ascending energy order, except in the ground doublet of
    :func:`build_gauge_chain`, which is in sector order: G, then E.
    """

    couplings: np.ndarray
    energies: np.ndarray
    states: np.ndarray
    parities: np.ndarray


def _chain_levels(
    params: ModelParams, couplings: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """The depth lowest eigenpairs of each parity chain at each coupling,
    w (m, 2, depth) and v (m, 2, n_fock, depth) as in
    :func:`~uscmem.model.sector_eigh`, SECTOR_BATCH couplings per batched
    eigh, with the residual and orthonormality of every kept eigenpair
    checked batch by batch."""
    w = np.empty((len(couplings), 2, depth))
    v = np.empty((len(couplings), 2, params.n_fock, depth))
    for start in range(0, len(couplings), SECTOR_BATCH):
        batch = slice(start, start + SECTOR_BATCH)
        cw, cv = sector_eigh(params, couplings[batch])
        w[batch], v[batch] = cw[..., :depth], cv[..., :depth]
        del cw, cv  # free the full batch before the check allocates
        _check_sectors(params, couplings[batch], w[batch], v[batch])
    return w, v


def _check_sectors(
    params: ModelParams, couplings: np.ndarray, w: np.ndarray, v: np.ndarray
) -> None:
    """Residual and orthonormality of chain eigenpairs, over a batch of couplings."""
    h = params.chains.bare + couplings[:, None, None, None] * params.chains.hop
    residual = np.abs(h @ v - v * w[:, :, None, :]).max(axis=(1, 2, 3))
    scale = np.maximum(1.0, np.abs(h, out=h).max(axis=(1, 2, 3)))
    if np.any(residual > _RESIDUAL_TOL * scale):
        raise RuntimeError("eigenpair residual above tolerance")
    gram = np.swapaxes(v, -1, -2) @ v
    if float(np.abs(gram - np.eye(v.shape[-1])).max()) > _ORTHO_TOL:
        raise RuntimeError("eigenvector block lost orthonormality")


def sector_spectra(params: ModelParams, couplings: np.ndarray, k: int) -> Spectrum:
    """Lowest-k spectrum of the cell at each coupling, from its parity chains:
    real states, ascending energies, and parity labels by construction."""
    if not 1 <= k <= 2 * params.n_fock:
        raise ValueError(f"k must be in [1, {2 * params.n_fock}], got {k}")
    couplings = np.asarray(couplings, dtype=np.float64)
    # no sector contributes more than k levels
    w, v = _chain_levels(params, couplings, min(k, params.n_fock))
    energies, sector, states = sector_levels(params, w, v, k)
    return Spectrum(couplings, energies, states, 2.0 * sector - 1)


def _checked_couplings(couplings) -> np.ndarray:
    """couplings as a float array, which must be nonempty, 1-d and >= 0."""
    couplings = np.asarray(couplings, dtype=np.float64)
    if couplings.ndim != 1 or len(couplings) == 0:
        raise ValueError("couplings must be a nonempty 1-d array")
    if np.any(couplings < 0):
        raise ValueError("couplings must be >= 0")
    return couplings


def build_gauge_chain(params: ModelParams, couplings: np.ndarray) -> Spectrum:
    """The ground doublet at each coupling: G, the lowest level of the
    P = -1 chain, then E, the lowest of the P = +1 chain.

    The pair is placed by sector, not by energy, so a near-degenerate
    doublet keeps its order. Each state is signed so that
    sum_n (-1)^n v_n > 0 along its chain. At a coupling >= 0, flipping
    every other site's sign turns a chain into one with non-positive hops,
    so by Perron-Frobenius its ground state alternates in sign and
    |sum_n (-1)^n v_n| = sum_n |v_n| >= 1: the gauge holds at every
    coupling on its own, and any grid, however coarse, gives the same
    states there.
    """
    couplings = _checked_couplings(couplings)
    w, v = _chain_levels(params, couplings, 1)
    energies, ground = w[..., 0], v[..., 0]
    alternating = (-1.0) ** np.arange(params.n_fock)
    ground *= np.where(ground @ alternating < 0, -1.0, 1.0)[..., None]
    states = np.zeros((len(couplings), 2 * params.n_fock, 2))
    states[:, params.chains.index, np.arange(2)[:, None]] = ground
    return Spectrum(couplings, energies, states, np.tile([-1.0, 1.0], (len(couplings), 1)))


# --------------------------------------------------------------------------
# cat-state approximants of the ground doublet
# --------------------------------------------------------------------------

def cat_approximant(params: ModelParams, couplings: np.ndarray) -> np.ndarray:
    """Closed-form approximation of the lowest doublet deep in the
    ultrastrong regime, at each coupling.

    With alpha = coupling / omega_cav and |+-> the sigma_x eigenstates,

        G = (|-alpha>|+> - |alpha>|->) / sqrt(2)
        E = (|-alpha>|+> + |alpha>|->) / sqrt(2)

    Since <n|alpha> = (-1)^n <n|-alpha>, either cat is |-alpha> laid on
    one parity chain: site n carries <n|-alpha>, G on the P = -1 chain
    and E on the P = +1 chain. Returns the complex (m, 2, 2 * n_fock)
    stack of the pair, each row a cell vector: G, then E. The pair is
    exactly orthogonal for every alpha and approaches the bare states
    |g, 0> and |e, 0> as the coupling vanishes. It is an accurate model of
    the true eigenstates once coupling / omega_cav is around 0.8 or larger.
    couplings must be a nonempty 1-d array of values >= 0, as for
    :func:`build_gauge_chain`.
    """
    couplings = _checked_couplings(couplings)
    cats = np.zeros((len(couplings), 2, 2 * params.n_fock), dtype=np.complex128)
    for cat, coupling in zip(cats, couplings):
        cat[np.arange(2)[:, None], params.chains.index] = coherent_state(
            -coupling / params.omega_cav, params.n_fock)
    return cats
