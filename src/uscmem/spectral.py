"""Instantaneous spectra, the ground doublet, and its cat approximants.

All come from the two real parity chains of H(Omega)
(:class:`~uscmem.model.ParityChains`), so each eigenvector lies in one
sector, also inside an exactly degenerate doublet. :func:`sector_spectra`
diagonalizes the chains in batches (:func:`~uscmem.model.sector_eigh`)
and returns the lowest levels as one :class:`Spectrum`, each level's
state a vector on its own chain.
The qubit is stored in the ground doublet, G the ground state of the
P = -1 chain and E that of the P = +1 chain, which
:func:`build_gauge_chain` keeps in chain form: it takes each chain's
lowest level with no eigh (:func:`~uscmem.model.chain_ground`) and fixes
its order and signs at each coupling on its own, so protocol targets
need no tracking along a sweep. Both functions' eigenpairs pass the same
residual and orthonormality check. The two cat approximants are one
coherent vector, read on chain 0 for G and on chain 1 for E.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .hilbert import coherent_state
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import (  # noqa: F401
    SECTOR_BATCH, ModelParams, _couplings_1d, build_rabi, chain_ground, sector_eigh,
)

_ORTHO_TOL = 1e-10
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Lowest-k levels of a cell at m couplings, each on its own parity
    chain, as :func:`sector_spectra` returns them.

    ``couplings`` (m,) are the sampled couplings, ``energies`` (m, k) the
    levels in ascending energy order, ``sector`` (m, k) each level's chain,
    0 for P = -1 and 1 for P = +1, and ``states`` (m, k, n_fock) its real
    unit eigenvector in chain-site order (:class:`~uscmem.model.ParityChains`).
    """

    couplings: np.ndarray
    energies: np.ndarray
    sector: np.ndarray
    states: np.ndarray


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
    real chain states and sector labels by construction, and ascending
    energies, the P = -1 level first on an exact tie. Each chain's lowest
    levels come from one batched :func:`~uscmem.model.sector_eigh` per
    SECTOR_BATCH couplings, and the residual and orthonormality of every
    kept eigenpair are checked batch by batch."""
    if not (isinstance(k, Integral) and 1 <= k <= 2 * params.n_fock):
        raise ValueError(f"k must be an integer in [1, {2 * params.n_fock}], got {k!r}")
    couplings = _couplings_1d(couplings)
    m, depth = len(couplings), min(k, params.n_fock)  # no sector contributes more than k levels
    w, v = np.empty((m, 2, depth)), np.empty((m, 2, params.n_fock, depth))
    for start in range(0, m, SECTOR_BATCH):
        batch = slice(start, start + SECTOR_BATCH)
        cw, cv = sector_eigh(params, couplings[batch])
        w[batch], v[batch] = cw[..., :depth], cv[..., :depth]
        del cw, cv  # free the full batch before the check allocates
        _check_sectors(params, couplings[batch], w[batch], v[batch])
    # chain 0 (P = -1) comes first, so a stable sort puts it first on ties
    flat_w = w.reshape(m, 2 * depth)
    order = np.argsort(flat_w, axis=1, kind="stable")[:, :k]
    sector, rank = np.divmod(order, depth)
    return Spectrum(couplings, np.take_along_axis(flat_w, order, axis=1), sector,
                    v[np.arange(m)[:, None], sector, :, rank])


def _checked_couplings(couplings) -> np.ndarray:
    """couplings as a float array, which must be nonempty, 1-d, finite and >= 0."""
    couplings = _couplings_1d(couplings)
    if len(couplings) == 0:
        raise ValueError("couplings must be a nonempty 1-d array")
    if np.any(couplings < 0):
        raise ValueError("couplings must be >= 0")
    return couplings


def build_gauge_chain(params: ModelParams, couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ground doublet at each coupling: G, the lowest level of the
    P = -1 chain, then E, the lowest of the P = +1 chain.

    Returns energies (m, 2) and states (m, 2, n_fock) in chain-site order,
    as :func:`~uscmem.model.chain_ground` gives them with no eigh, after
    checking the residual and norm of every pair. The pair is placed by
    sector, not by energy, so a near-degenerate doublet keeps its order.
    Each state has sum_n (-1)^n v_n > 0 along its chain by construction:
    at a coupling >= 0, flipping every other site's sign turns a chain
    into one with non-positive hops, and inverse iteration below its
    lowest level keeps a positive start positive. That is the
    Perron-Frobenius ground state, with |sum_n (-1)^n v_n| = sum_n |v_n|
    >= 1. The gauge thus holds at every coupling on its own, and any grid,
    however coarse, gives the same states there, bit for bit.
    """
    couplings = _checked_couplings(couplings)
    energies, ground = chain_ground(params, couplings)
    _check_sectors(params, couplings, energies[..., None], ground[..., None])
    return energies, ground


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
    and E on the P = +1 chain. Returns that one vector, complex
    (m, n_fock). The pair is exactly orthogonal for every alpha and
    approaches the bare states |g, 0> and |e, 0> as the coupling
    vanishes. It is an accurate model of the true eigenstates once
    coupling / omega_cav is around 0.8 or larger.
    couplings must be a nonempty 1-d array of values >= 0, as for
    :func:`build_gauge_chain`.
    """
    couplings = _checked_couplings(couplings)
    return np.array([coherent_state(-coupling / params.omega_cav, params.n_fock)
                     for coupling in couplings])
