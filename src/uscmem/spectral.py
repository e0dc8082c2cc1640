"""Instantaneous spectra, the ground doublet, and its cat approximants.

A :class:`Spectrum` holds the lowest levels at every coupling of one call
as stacked arrays. :func:`sector_spectra` and :func:`build_gauge_chain`
take them from the two real parity chains of H(Omega)
(:class:`~uscmem.model.ParityChains`). Each eigenvector lies in one
sector, so its parity label holds by construction, also inside an
exactly degenerate doublet. :func:`sector_spectra` diagonalizes the
chains in batches (:func:`~uscmem.model.sector_eigh`); the ground doublet
needs only each chain's lowest level, which
:func:`~uscmem.model.chain_ground` takes by a Sturm-count shift and
inverse iteration, with no eigh. Every eigenpair that either function
returns passes the same residual and orthonormality check.

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
    SECTOR_BATCH, ModelParams, build_rabi, chain_ground, sector_eigh, sector_levels,
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
    checked batch by batch. Serves :func:`sector_spectra`; the ground
    doublet alone comes from :func:`~uscmem.model.chain_ground`."""
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
    """Residual and orthonormality of chain eigenpairs w (m, 2, depth),
    v (m, 2, n_fock, depth) over a batch of couplings. H_s v is the
    three-diagonal product, bare[s] v plus the two shifted
    coupling * sqrt(k) terms, and the residual bound scales with the
    largest |element| of the two chains at each coupling."""
    diag = np.diagonal(params.chains.bare, axis1=1, axis2=2)[..., None]  # (2, n_fock, 1)
    root = np.diagonal(params.chains.hop, 1)[:, None]  # sqrt(k), (n_fock - 1, 1)
    coupling = couplings[:, None, None, None]
    r = diag - w[:, :, None, :]
    r *= v
    # one temporary for both hop terms, so the check holds at most two
    # arrays the size of v besides v
    term = root * v[:, :, :-1]
    term *= coupling
    r[:, :, 1:] += term
    np.multiply(root, v[:, :, 1:], out=term)
    term *= coupling
    r[:, :, :-1] += term
    del term
    residual = np.abs(r, out=r).max(axis=(1, 2, 3))
    scale = np.maximum(1.0, np.maximum(np.abs(diag).max(), np.abs(couplings) * root.max()))
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
    """couplings as a float array, which must be nonempty, 1-d, finite and >= 0."""
    couplings = np.asarray(couplings, dtype=np.float64)
    if couplings.ndim != 1 or len(couplings) == 0:
        raise ValueError("couplings must be a nonempty 1-d array")
    if not np.isfinite(couplings).all():
        raise ValueError(f"couplings must be finite, got {couplings}")
    if np.any(couplings < 0):
        raise ValueError("couplings must be >= 0")
    return couplings


def build_gauge_chain(params: ModelParams, couplings: np.ndarray) -> Spectrum:
    """The ground doublet at each coupling: G, the lowest level of the
    P = -1 chain, then E, the lowest of the P = +1 chain.

    The pair is placed by sector, not by energy, so a near-degenerate
    doublet keeps its order. Each pair comes from
    :func:`~uscmem.model.chain_ground`, with no eigh, and its residual and
    norm are checked at every coupling. Each state has
    sum_n (-1)^n v_n > 0 along its chain by construction: at a coupling
    >= 0, flipping every other site's sign turns a chain into one with
    non-positive hops, and inverse iteration below its lowest level keeps
    a positive start positive. That is the Perron-Frobenius ground state,
    with |sum_n (-1)^n v_n| = sum_n |v_n| >= 1. The gauge thus holds at
    every coupling on its own, and any grid, however coarse, gives the
    same states there, bit for bit.
    """
    couplings = _checked_couplings(couplings)
    energies, ground = chain_ground(params, couplings)
    _check_sectors(params, couplings, energies[..., None], ground[..., None])
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
