"""Instantaneous spectra, eigenstate gauge tracking, and cat approximants.

Protocol targets are built from eigenstates tracked along a sweep, so
their labels and phases have to be pinned down.

A :class:`Spectrum` holds the lowest levels at every coupling of one call
as stacked arrays. :func:`sector_spectra` and :func:`build_gauge_chain`
take them from the two real parity chains of H(Omega)
(:class:`~uscmem.model.ParityChains`). Each eigenvector lies in one
sector, so its parity label holds by construction, also inside an
exactly degenerate doublet. A real tridiagonal chain has no level
crossings, so a tracked state keeps its sector and its rank within the
sector along a sweep. Only the sign of a real eigenvector is arbitrary:
the seed makes the largest amplitude positive, and every later sample
keeps the overlap with the previous one positive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import State, coherent_state, normalized
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import (  # noqa: F401
    SECTOR_BATCH, ModelParams, build_rabi, sector_eigh, sector_levels,
)

_ORTHO_TOL = 1e-10
_RESIDUAL_TOL = 1e-9


class GaugeAlignmentError(RuntimeError):
    """Eigenstate tracking along a sweep was ambiguous."""


@dataclass(frozen=True)
class Spectrum:
    """Lowest-k eigenpairs of a cell Hamiltonian at m couplings, with parity
    labels.

    ``couplings`` (m,) are the sampled couplings, ``energies`` (m, k) the
    levels, ``states`` (m, dim, k) real orthonormal eigenvectors as
    columns and ``parities`` (m, k) their +-1 symmetry labels. Levels are
    in ascending energy order except where a gauge chain keeps the order
    of its first sample.
    """

    couplings: np.ndarray
    energies: np.ndarray
    states: np.ndarray
    parities: np.ndarray


def _lowest_levels(
    params: ModelParams, couplings: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k lowest levels at each coupling by :func:`~uscmem.model.sector_levels`,
    SECTOR_BATCH couplings per batched eigh, with the residual and
    orthonormality of every kept chain eigenpair checked batch by batch."""
    if not 1 <= k <= params.dims.total_dim:
        raise ValueError(f"k must be in [1, {params.dims.total_dim}], got {k}")
    nf = params.n_fock
    depth = min(k, nf)  # no sector contributes more than k levels
    w = np.empty((len(couplings), 2, depth))
    v = np.empty((len(couplings), 2, nf, depth))
    for start in range(0, len(couplings), SECTOR_BATCH):
        batch = slice(start, start + SECTOR_BATCH)
        cw, cv = sector_eigh(params, couplings[batch])
        w[batch], v[batch] = cw[..., :depth], cv[..., :depth]
        del cw, cv  # free the full batch before the check allocates
        _check_sectors(params, couplings[batch], w[batch], v[batch])
    return sector_levels(params, w, v, k)


def _check_sectors(
    params: ModelParams, couplings: np.ndarray, w: np.ndarray, v: np.ndarray
) -> None:
    """Residual and orthonormality of chain eigenpairs, over a batch of couplings."""
    chains = params.chains
    hop = couplings[:, None, None, None] * chains.hop[:, None]
    hv = chains.diag[..., None] * v
    hv[:, :, 1:] += hop * v[:, :, :-1]
    hv[:, :, :-1] += hop * v[:, :, 1:]
    scale = np.maximum(1.0, np.maximum(np.abs(chains.diag).max(),
                                       np.abs(couplings) * chains.hop.max()))
    residual = np.abs(hv - v * w[:, :, None, :]).max(axis=(1, 2, 3))
    if np.any(residual > _RESIDUAL_TOL * scale):
        raise RuntimeError("eigenpair residual above tolerance")
    gram = np.swapaxes(v, -1, -2) @ v
    if float(np.abs(gram - np.eye(v.shape[-1])).max()) > _ORTHO_TOL:
        raise RuntimeError("eigenvector block lost orthonormality")


def sector_spectra(params: ModelParams, couplings: np.ndarray, k: int) -> Spectrum:
    """Lowest-k spectrum of the cell at each coupling, from its parity chains:
    real states, ascending energies, and parity labels by construction."""
    couplings = np.asarray(couplings, dtype=np.float64)
    energies, labels, states = _lowest_levels(params, couplings, k)
    return Spectrum(couplings, energies, states, np.where(labels < params.n_fock, 1.0, -1.0))


def build_gauge_chain(params: ModelParams, couplings: np.ndarray, k: int = 2) -> Spectrum:
    """Tracked spectrum over the couplings, seeded at the first sample.

    Each state is tracked by its chain label, its sector and its rank
    within the sector: a real tridiagonal chain has no level crossings, so
    the label is the continuous branch. The k lowest levels keep the order
    of the first sample. The overlap with the previous sample only fixes
    the sign, and a best overlap below 1/sqrt(2), or a level from outside
    the k crossing in, means the sweep was sampled too coarsely and raises
    :class:`GaugeAlignmentError`.
    """
    couplings = np.asarray(couplings, dtype=np.float64)
    if couplings.ndim != 1 or len(couplings) == 0:
        raise ValueError("couplings must be a nonempty 1-d array")
    energies, labels, states = _lowest_levels(params, couplings, k)
    match = labels[:, None, :] == labels[0][None, :, None]
    lost = ~match.any(axis=2)
    if lost.any():
        j, i = np.argwhere(lost)[0]
        raise GaugeAlignmentError(
            f"tracking state {i}: it left the lowest {k} levels at coupling "
            f"{couplings[j]:.6f}; sweep step too coarse"
        )
    order = match.argmax(axis=2)
    energies = np.take_along_axis(energies, order, axis=1)
    labels = np.take_along_axis(labels, order, axis=1)
    states = np.take_along_axis(states, order[:, None, :], axis=2)

    # seed: largest amplitude positive; then <prev|cur> > 0 along the sweep
    lead = np.abs(states[0]).argmax(axis=0)
    sign = np.sign(states[0, lead, np.arange(k)])
    overlap = np.einsum("jdk,jdk->jk", states[:-1], states[1:])
    weak = np.abs(overlap) < 2 ** -0.5
    if weak.any():
        j, i = np.argwhere(weak)[0]
        raise GaugeAlignmentError(
            f"tracking state {i}: best overlap {abs(overlap[j, i]):.6f} too small "
            f"at coupling {couplings[j + 1]:.6f}; sweep step too coarse"
        )
    signs = sign * np.cumprod(np.vstack([np.ones(k), np.sign(overlap)]), axis=0)
    states *= signs[:, None, :]
    return Spectrum(couplings, energies, states, np.where(labels < params.n_fock, 1.0, -1.0))


# --------------------------------------------------------------------------
# cat-state approximants of the ground doublet
# --------------------------------------------------------------------------

def cat_approximant(params: ModelParams, coupling: float, which: str) -> State:
    """Closed-form approximation of the lowest doublet deep in the
    ultrastrong regime.

    With alpha = coupling / omega_cav and |+->  the sigma_x eigenstates,

        which = "G":  (|-alpha>|+> - |alpha>|->) / sqrt(2)
        which = "E":  (|-alpha>|+> + |alpha>|->) / sqrt(2)

    The pair is exactly orthogonal for every alpha and approaches the bare
    states |g, 0> and |e, 0> as the coupling vanishes. It is an accurate
    model of the true eigenstates once coupling / omega_cav is around 0.8
    or larger.
    """
    if coupling < 0:
        raise ValueError(f"coupling must be >= 0, got {coupling}")
    if which not in ("G", "E"):
        raise ValueError(f"which must be 'G' or 'E', got {which!r}")
    dims = params.dims
    alpha = coupling / params.omega_cav
    sqrt2 = np.sqrt(2.0)
    # sigma_x eigenstates (|e> +- |g>)/sqrt2 in (g, e) component order
    plus = np.array([1.0, 1.0], dtype=np.complex128) / sqrt2
    minus = np.array([-1.0, 1.0], dtype=np.complex128) / sqrt2
    sign = -1.0 if which == "G" else 1.0
    amps = (
        np.kron(plus, coherent_state(-alpha, dims.n_fock))
        + sign * np.kron(minus, coherent_state(alpha, dims.n_fock))
    ) / sqrt2
    return normalized(dims, amps)
