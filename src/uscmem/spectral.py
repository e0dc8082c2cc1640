"""Instantaneous spectra, eigenstate gauge tracking, and cat approximants.

Protocol targets are built from eigenstates tracked along a sweep, so
their labels and phases have to be pinned down.

Spectra along a sweep (:func:`sector_spectra`, :func:`build_gauge_chain`)
come from the two real parity chains of H(Omega)
(:class:`~uscmem.model.ParityChains`). Each eigenvector lies in one
sector, so its parity label holds by construction. A real tridiagonal
chain has no level crossings, so a tracked state keeps its sector and its
rank within the sector along a sweep. Only the sign of a real eigenvector
is arbitrary: the seed makes the largest amplitude positive, and every
later sample keeps the overlap with the previous one positive.

The dense path, :func:`eigendecompose` of any Hermitian matrix, pins down
more, because a dense solver returns an arbitrary complex phase and,
inside a degenerate doublet, an arbitrary basis:

* parity mixing inside (near-)degenerate clusters is removed by
  diagonalizing the symmetry operator within each cluster,
* a seed gauge makes the largest amplitude of each state real positive,
* successive spectra along a sweep are aligned by maximum overlap with the
  previous snapshot (parallel transport), never by blind energy order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertDims, State, coherent_state, normalized, number_op
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import (  # noqa: F401
    SECTOR_BATCH, ModelParams, build_rabi, parity_op, sector_eigh, sector_levels,
)

_HERM_TOL = 1e-10
_ORTHO_TOL = 1e-10
_RESIDUAL_TOL = 1e-9
_PARITY_PURITY = 0.999
_DEGENERACY_TOL = 1e-8


class GaugeAlignmentError(RuntimeError):
    """Eigenstate tracking between two spectra was ambiguous."""


@dataclass(frozen=True)
class Spectrum:
    """Lowest-k eigenpairs of a cell Hamiltonian with parity labels.

    ``states`` holds orthonormal eigenvectors as columns, real when they
    come from the parity chains, in ascending energy order except where
    gauge alignment has reordered a degenerate cluster or a gauge chain
    keeps the order of its first sample. ``parities`` are the +-1 symmetry
    labels.
    """

    dims: HilbertDims
    energies: np.ndarray
    states: np.ndarray
    parities: np.ndarray

    @property
    def k(self) -> int:
        return len(self.energies)

    def state(self, i: int) -> State:
        return State(self.dims, self.states[:, i])


@dataclass(frozen=True)
class GaugeChain:
    """Gauge-consistent spectra tracked along a coupling sweep."""

    couplings: np.ndarray
    spectra: tuple[Spectrum, ...]

    def __post_init__(self) -> None:
        if len(self.couplings) != len(self.spectra):
            raise ValueError("one spectrum per coupling sample required")


def eigendecompose(h: np.ndarray, k: int, dims: HilbertDims) -> Spectrum:
    """Lowest-k eigenpairs of a Hermitian cell Hamiltonian.

    Raises if the input is detectably non-Hermitian, if the requested count
    exceeds the space, or if any kept state fails to be a clean parity
    eigenstate after degenerate clusters are purified.
    """
    dim = dims.total_dim
    if h.shape != (dim, dim):
        raise ValueError(f"operator shape {h.shape} does not match dim {dim}")
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    scale = max(1.0, float(np.abs(h).max()))
    if float(np.abs(h - h.conj().T).max()) > _HERM_TOL * scale:
        raise ValueError("eigendecompose requires a Hermitian operator")

    energies, vectors = np.linalg.eigh(h)
    energies = energies[:k].copy()
    vectors = vectors[:, :k].copy()

    p = parity_op(dims)
    _purify_clusters(energies, vectors, p)

    parities = np.empty(k)
    for i in range(k):
        expect = float(np.real(np.vdot(vectors[:, i], p @ vectors[:, i])))
        if abs(expect) < _PARITY_PURITY:
            raise RuntimeError(
                f"state {i} is not a parity eigenstate (<P> = {expect:.6f}); "
                "degenerate-cluster purification failed"
            )
        parities[i] = 1.0 if expect > 0 else -1.0

    spec = Spectrum(dims, energies, vectors, parities)
    _check_spectrum(h, spec, scale)
    return spec


def _purify_clusters(energies: np.ndarray, vectors: np.ndarray, p: np.ndarray) -> None:
    """Rotate each near-degenerate eigenvalue cluster onto parity eigenstates.

    Within an exactly degenerate doublet the solver returns an arbitrary
    mixture of the two symmetry sectors; diagonalizing P restricted to the
    cluster restores sharp labels without changing the spanned subspace.
    """
    k = len(energies)
    start = 0
    while start < k:
        stop = start + 1
        while stop < k and energies[stop] - energies[stop - 1] <= _DEGENERACY_TOL:
            stop += 1
        if stop - start > 1:
            block = vectors[:, start:stop]
            p_block = block.conj().T @ p @ block
            _, rot = np.linalg.eigh(p_block)
            vectors[:, start:stop] = block @ rot
        start = stop


def _check_spectrum(h: np.ndarray, spec: Spectrum, scale: float) -> None:
    gram = spec.states.conj().T @ spec.states
    if float(np.abs(gram - np.eye(spec.k)).max()) > _ORTHO_TOL:
        raise RuntimeError("eigenvector block lost orthonormality")
    residual = h @ spec.states - spec.states * spec.energies
    if float(np.abs(residual).max()) > _RESIDUAL_TOL * scale:
        raise RuntimeError("eigenpair residual above tolerance")


def seed_gauge(spec: Spectrum) -> Spectrum:
    """Fix each state's phase so its largest-magnitude amplitude is real positive."""
    states = spec.states.copy()
    for i in range(spec.k):
        idx = int(np.argmax(np.abs(states[:, i])))
        phase = np.angle(states[idx, i])
        states[:, i] = states[:, i] * np.exp(-1j * phase)
    return Spectrum(spec.dims, spec.energies.copy(), states, spec.parities.copy())


def align_gauge(previous: Spectrum, current: Spectrum, ambiguity_tol: float = 1e-3) -> Spectrum:
    """Parallel-transport ``current`` onto the gauge of ``previous``.

    States are matched by maximum overlap magnitude and rephased so every
    diagonal overlap <prev_i|cur_i> is real and positive. Ambiguous matches
    (two candidate overlaps within ``ambiguity_tol``, or no candidate above
    1/sqrt(2)) mean the sweep was sampled too coarsely to track states and
    raise :class:`GaugeAlignmentError`.
    """
    if previous.dims != current.dims or previous.k != current.k:
        raise ValueError("align_gauge requires spectra of equal shape")
    k = previous.k
    m = previous.states.conj().T @ current.states
    mag = np.abs(m)

    order = np.empty(k, dtype=int)
    for i in range(k):
        ranked = np.argsort(mag[i])[::-1]
        best, runner = ranked[0], ranked[1] if k > 1 else None
        if runner is not None and mag[i, best] - mag[i, runner] < ambiguity_tol:
            raise GaugeAlignmentError(
                f"tracking state {i}: competing overlaps "
                f"{mag[i, best]:.6f} and {mag[i, runner]:.6f} are indistinguishable"
            )
        if mag[i, best] < 2 ** -0.5:
            raise GaugeAlignmentError(
                f"tracking state {i}: best overlap {mag[i, best]:.6f} too small; "
                "sweep step too coarse"
            )
        order[i] = best
    if len(set(order.tolist())) != k:
        raise GaugeAlignmentError("state assignment is not a permutation")

    states = current.states[:, order].copy()
    energies = current.energies[order].copy()
    parities = current.parities[order].copy()
    for i in range(k):
        phase = np.angle(m[i, order[i]])
        states[:, i] = states[:, i] * np.exp(-1j * phase)
    return Spectrum(current.dims, energies, states, parities)


def _lowest_levels(
    params: ModelParams, couplings: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k lowest levels at each coupling by :func:`~uscmem.model.sector_levels`,
    SECTOR_BATCH couplings per batched eigh, with the residual and
    orthonormality of every kept chain eigenpair checked."""
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
    _check_sectors(params, couplings, w, v)
    return sector_levels(params, w, v, k)


def _check_sectors(
    params: ModelParams, couplings: np.ndarray, w: np.ndarray, v: np.ndarray
) -> None:
    """Residual and orthonormality of chain eigenpairs, all couplings at once."""
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


def _spectra(params: ModelParams, energies, labels, states) -> tuple[Spectrum, ...]:
    parities = np.where(labels < params.n_fock, 1.0, -1.0)
    return tuple(Spectrum(params.dims, e, s, p) for e, s, p in zip(energies, states, parities))


def sector_spectra(params: ModelParams, couplings: np.ndarray, k: int) -> tuple[Spectrum, ...]:
    """Lowest-k spectrum of the cell at each coupling, from its parity chains.

    The counterpart of :func:`eigendecompose` on ``build_rabi``: real states,
    ascending energies, and parity labels by construction.
    """
    couplings = np.asarray(couplings, dtype=np.float64)
    return _spectra(params, *_lowest_levels(params, couplings, k))


def build_gauge_chain(params: ModelParams, couplings: np.ndarray, k: int = 2) -> GaugeChain:
    """Tracked spectra at each coupling, seeded at the first sample.

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
    return GaugeChain(couplings, _spectra(params, energies, labels, states))


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


def mean_photon(state: State) -> float:
    """<a^dag a> of a cell state."""
    n = number_op(state.dims)
    return float(np.real(np.vdot(state.amplitudes, n @ state.amplitudes)))
