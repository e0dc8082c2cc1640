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
from math import ceil, factorial, log, log2, pi
from numbers import Integral

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
        if not (isinstance(self.n_fock, Integral) and self.n_fock >= 2):
            raise ValueError(f"n_fock must be an integer >= 2, got {self.n_fock!r}")

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
        if not (0 <= self.omega_start < np.inf and 0 <= self.omega_end < np.inf):
            raise ValueError(f"couplings must be finite and >= 0, got "
                             f"{self.omega_start}, {self.omega_end}")

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
    chains, so it is the same matrix the sweeps exponentiate per sector."""
    chains = params.chains
    h = np.zeros((2 * params.n_fock,) * 2, dtype=np.complex128)
    h[chains.index[:, :, None], chains.index[:, None, :]] = chains.bare + coupling * chains.hop
    return h


# Couplings per sector_eigh call; larger batches save little time.
SECTOR_BATCH = 32


def _couplings_1d(couplings) -> np.ndarray:
    """couplings as a float array, which must be 1-d and finite."""
    couplings = np.asarray(couplings, dtype=np.float64)
    if couplings.ndim != 1:
        raise ValueError(f"couplings must be a 1-d array, got shape {couplings.shape}")
    if not np.isfinite(couplings).all():
        raise ValueError(f"couplings must be finite, got {couplings}")
    return couplings


def sector_eigh(params: ModelParams, couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems of both parity chains at each coupling, in one batched
    real eigh.

    Returns w (m, 2, n_fock), ascending within each sector, and v
    (m, 2, n_fock, n_fock) with the eigenvectors as columns in chain-site
    order (:class:`ParityChains`). Callers pass at most SECTOR_BATCH
    couplings: the batch holds two n_fock x n_fock matrices per coupling.
    """
    couplings = _couplings_1d(couplings)
    chains = params.chains
    return np.linalg.eigh(chains.bare + couplings[:, None, None, None] * chains.hop)


PROPAGATOR_BATCH = 8  # steps per batch that _propagator_batches yields

# cos x and sin x / x to x^14, as two blocks of four powers of x^2 each;
# past x^15 the series of exp(-ix) sums to < 2^-53 at |x| <= _THETA
_TAYLOR = np.array([[(-1) ** j / factorial(2 * j + odd) for j in range(8)]
                    for odd in (0, 1)]).reshape(4, 4)
_THETA = (2.0 ** -54 * factorial(16)) ** (1 / 16)


def sector_propagators(params: ModelParams, couplings: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H_s(c) dt) of both parity chains at each coupling c, complex
    (m, 2, n_fock, n_fock) in chain-site order, from real matmuls alone.

    A = (H_s - mu) dt, mu the middle of the chain's Gershgorin interval,
    is halved the batch's fewest s times to norm <= _THETA; the Taylor
    series (Paterson-Stockmeyer in B = A^2) give C = cos and S = sin of
    A / 2^s, and s squarings C' = (C - S)(C + S), S' = 2 C S give cos A
    and sin A (Moler & Van Loan, SIAM Rev. 45, 3 (2003)). The result,
    e^{-i mu dt} (cos A - i sin A), is unitary and complex symmetric up to
    roundoff. The sweeps take the nodes of their fit in the coupling from
    it (:func:`_propagator_batches`).
    """
    couplings = _couplings_1d(couplings)
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    chains, k, n = params.chains, len(couplings), params.n_fock
    diag = np.diagonal(chains.bare, axis1=1, axis2=2)  # (2, n)
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        radius = np.abs(couplings)[:, None, None] * chains.hop.sum(axis=1)  # (k, 1, n)
        low, high = (diag - radius).min(axis=-1), (diag + radius).max(axis=-1)  # (k, 2)
        reach = float(dt) * (high - low).max(axis=-1) / 2  # (k,)
    if not (reach < np.inf).all():
        raise ValueError(f"couplings {couplings[~(reach < np.inf)]} give a Gershgorin "
                         f"half-width times dt = {dt} that is not finite")
    mu = (low + high) / 2
    squarings = ceil(log2(max(reach.max(initial=0.0) / _THETA, 1.0)))
    work = np.empty((8, k, 2, n, n))  # A, B, B^2, B^3, Taylor blocks
    a, powers, blocks = work[0], work[1:4], work[4:]
    np.add(np.multiply(couplings[:, None, None, None], chains.hop, out=a), chains.bare, out=a)
    a.reshape(k, 2, n * n)[..., ::n + 1] -= mu[..., None]
    a *= dt / 2.0 ** squarings
    np.matmul(a, a, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    # c_0 + c_1 B + c_2 B^2 + c_3 B^3 per block: cos low, cos high, sin low, sin high
    np.matmul(_TAYLOR[:, 1:], powers.reshape(3, -1), out=blocks.reshape(4, -1))
    blocks.reshape(4, k, 2, n * n)[..., ::n + 1] += _TAYLOR[:, :1, None, None]
    b4, spare = np.matmul(powers[1], powers[1], out=powers[0]), powers[1]
    cos = np.add(blocks[0], np.matmul(b4, blocks[1], out=spare), out=blocks[0])
    np.add(blocks[2], np.matmul(b4, blocks[3], out=spare), out=spare)
    sin = np.matmul(a, spare, out=blocks[1])
    minus, plus, spare = a, powers[1], powers[2]  # A, B^2 and B^3 are spent
    for _ in range(squarings):
        np.subtract(cos, sin, out=minus)
        np.add(cos, sin, out=plus)
        sin, spare = np.matmul(cos, sin, out=spare), sin
        sin *= 2
        np.matmul(minus, plus, out=cos)
    u = np.empty((k, 2, n, n), dtype=np.complex128)
    u.real, u.imag = cos, np.negative(sin, out=sin)
    return np.multiply(u, np.exp(-1j * dt * mu)[..., None, None], out=u)


# With beta = dt * the largest row sum of |hop| >= dt ||hop||, a factor
# exp(-i H_s(c) dt) is bounded on the Bernstein ellipse E_rho of a coupling
# span [mid - h, mid + h] by K = exp(beta h (rho - 1/rho) / 2), so its
# interpolant through M first-kind Chebyshev nodes is within
# 4 K rho^(1 - M) / (rho - 1) of it (Trefethen, Approximation Theory and
# Approximation Practice, SIAM 2013, Thm 8.2). _FIT_REACH[M - 1] is the
# largest beta h that one rho of the grid puts that bound at 2^-53,
# for M = 1, ..., PROPAGATOR_BATCH.
_LOG_RHO = np.linspace(0.0, 45.0, 1025)[1:]
_FIT_REACH = ((np.arange(PROPAGATOR_BATCH)[:, None] * _LOG_RHO + np.log(np.expm1(_LOG_RHO))
               - log(2.0 ** 55)) / np.sinh(_LOG_RHO)).max(axis=1)


def _fit_runs(couplings: np.ndarray, beta: float):
    """Yield (start, stop, lo, hi) per run of steps: from start, the most whole
    PROPAGATOR_BATCH batches (one at least) whose couplings span [lo, hi]
    with beta (hi - lo) / 2 <= _FIT_REACH[-1]."""
    starts = range(0, len(couplings), PROPAGATOR_BATCH)
    lows = np.minimum.reduceat(couplings, starts).tolist()
    highs = np.maximum.reduceat(couplings, starts).tolist()
    first, lo, hi = 0, lows[0], highs[0]
    for b in range(1, len(starts)):
        low, high = min(lo, lows[b]), max(hi, highs[b])
        if beta * (high / 2 - low / 2) > _FIT_REACH[-1]:
            yield first, starts[b], lo, hi
            first, low, high = starts[b], lows[b], highs[b]
        lo, hi = low, high
    yield first, len(couplings), lo, hi


def _propagator_batches(params: ModelParams, couplings: np.ndarray, dt: float):
    """Yield the factors exp(-i H_s(c) dt) of couplings[k:k + PROPAGATOR_BATCH],
    k = 0, PROPAGATOR_BATCH, ..., each (k, 2, n_fock, n_fock) as from
    :func:`sector_propagators` and valid until the next is drawn.

    Each factor is entire in c, so a run of steps (:func:`_fit_runs`) whose
    coupling span [mid - h, mid + h] has beta h <= _FIT_REACH[M - 1] takes
    exact factors at M first-kind Chebyshev nodes mid + h cos((j + 1/2) pi / M)
    alone, M the fewest that do. Each batch is then their interpolant in
    Lagrange form: the barycentric weights (k, M) (Berrut & Trefethen, SIAM
    Rev. 46, 501 (2004)) times the node factors' real view, in one real
    matmul. A run with no fewer nodes than steps takes its own couplings as
    the nodes, and a zero-span run the one node mid; a step at a node gets
    that node's factor exactly, so those runs get exact factors. The node
    factors and the output live in two buffers allocated once per sweep, and
    the nodes come half a batch per :func:`sector_propagators` call, so with
    that call's work slots the sweep holds less than one Taylor batch of
    PROPAGATOR_BATCH did."""
    couplings = _couplings_1d(couplings)
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not len(couplings):
        return
    n, size = params.n_fock, PROPAGATOR_BATCH
    beta = float(dt) * float(np.abs(params.chains.hop).sum(axis=1).max())
    nodes = np.empty((size, 2, n, n), dtype=np.complex128)
    out = np.empty_like(nodes)
    for first, stop, lo, hi in _fit_runs(couplings, beta):
        c, h = couplings[first:stop], hi / 2 - lo / 2
        m = min(int(np.searchsorted(_FIT_REACH, beta * h)) + 1, len(c))
        theta = (np.arange(m) + 0.5) * (pi / m)
        x = c if m == len(c) else lo + h + h * np.cos(theta)
        for j in range(0, m, size // 2):
            part = x[j:j + size // 2]
            nodes[j:j + len(part)] = sector_propagators(params, part, dt)
        d = c[:, None] - x
        hit = d == 0
        on = hit.any(axis=1)
        w = np.divide(np.sin(theta) * (-1.0) ** np.arange(m), d,
                      out=np.zeros_like(d), where=~on[:, None])
        w /= np.where(on, 1.0, w.sum(axis=1))[:, None]
        w[on, hit[on].argmax(axis=1)] = 1.0
        v = nodes[:m].reshape(m, -1).view(np.float64)
        for i in range(0, len(c), size):
            k = min(size, len(c) - i)
            np.matmul(w[i:i + k], v, out=out[:k].reshape(k, -1).view(np.float64))
            yield out[:k]


def ground_batch_size(params: ModelParams) -> int:
    """Couplings per :func:`chain_ground` batch: its temporaries fit one sector_eigh batch."""
    return SECTOR_BATCH * params.n_fock // 4


def chain_ground(params: ModelParams, couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lowest eigenpair of both parity chains at each coupling, without
    a dense eigensolver.

    Returns energies (m, 2) and states (m, 2, n_fock): the ground state of
    chain s in chain-site order (:class:`ParityChains`), normalized and
    signed so that sum_n (-1)^n v_n > 0 at every coupling >= 0.

    Flipping the sign of every other site turns chain s into H~ with
    diagonal bare[s] and hops -Omega sqrt(k), <= 0 at a coupling >= 0.
    Then, per chain and coupling (Parlett, The Symmetric Eigenvalue
    Problem, 1998):

    - shift: Newton's method on det(H~ - sigma), started below the larger
      of the Gershgorin bound and -Omega^2 / omega_cav - omega_eg / 2.
      From below the lowest root of a real-rooted polynomial it never
      steps past that root, and every trial shift is kept only if its
      Sturm count, the LDL^T pivots of H~ - sigma, says so (every pivot
      > 0). It stops once the step is at roundoff.
    - vector: inverse iteration at the last shift kept, from the unit
      vector at the chain's lowest bare site, until the iterate stops
      moving. Below the lowest level H~ - sigma is an M-matrix, so
      (H~ - sigma)^-1 and every iterate are entrywise >= 0: the gauge holds
      by construction, and at a coupling of 0 the state stays that unit
      vector, the first lowest site on a tie.
    - energy: the Rayleigh quotient.

    The ops run on whole (couplings, chains) arrays, and only the n_fock-site
    recurrences loop. Each pair depends on its own coupling alone, so any
    grid gives the same pair there, bit for bit.
    """
    couplings = _couplings_1d(couplings)
    energies = np.empty((len(couplings), 2))
    states = np.empty((len(couplings), 2, params.n_fock))
    size = ground_batch_size(params)
    for start in range(0, len(couplings), size):
        batch = slice(start, start + size)
        energies[batch], states[batch] = _ground_batch(params, couplings[batch])
    return energies, states


_EPS = np.finfo(np.float64).eps
# an iterate still moving after this many inverse steps has a second level
# within the shift's roundoff; it then lies in that pair's span
_INVERSE_STEPS = 32


def _ground_batch(params: ModelParams, couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`chain_ground` on one batch of couplings."""
    n = params.n_fock
    diag = np.diagonal(params.chains.bare, axis1=1, axis2=2)  # (2, n)
    hop = -couplings[:, None, None] * np.diagonal(params.chains.hop, 1)  # (m, 1, n - 1)
    floor = -np.square(couplings)[:, None] / params.omega_cav - params.omega_eg / 2
    pivots = _pivots_below_ground(diag, hop, floor)

    # vector: H~ - shift = L D L^T, L unit lower bidiagonal with entries
    # hop / D <= 0, so each substitution step below adds terms >= 0 and the
    # iterate stays >= 0 in floating point too
    lower = hop / pivots[..., :-1]
    x = np.zeros((len(couplings), 2, n))
    x[:, [0, 1], diag.argmin(axis=-1)] = 1.0
    y, work = np.empty_like(x), np.empty_like(x)
    moving = np.ones((len(couplings), 2), dtype=bool)
    for _ in range(_INVERSE_STEPS):
        np.copyto(y, x)
        for i in range(1, n):
            y[..., i] -= lower[..., i - 1] * y[..., i - 1]
        y /= pivots
        for i in range(n - 2, -1, -1):
            y[..., i] -= lower[..., i] * y[..., i + 1]
        y /= np.sqrt(np.square(y, out=work).sum(axis=-1))[..., None]
        change = np.abs(np.subtract(y, x, out=work), out=work).max(axis=-1)
        np.copyto(x, y, where=moving[..., None])
        moving &= change > 8 * _EPS
        if not moving.any():
            break

    # energy: x^T H~ x = sum_i a_i x_i^2 + 2 sum_i b_i x_i x_{i+1}
    energies = np.multiply(np.square(x, out=work), diag, out=work).sum(axis=-1)
    bonds = np.multiply(x[..., :-1], x[..., 1:], out=work[..., :-1])
    bonds *= hop
    energies += 2 * bonds.sum(axis=-1)
    x[..., 1::2] *= -1.0  # back to the chain's own sites
    return energies, x


def _pivots_below_ground(diag: np.ndarray, hop: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """The LDL^T pivots, (m, 2, n), of H~ - shift at a shift just below the
    lowest level of each chain: Newton's method on det(H~ - shift) from
    below the larger of the Gershgorin bound and floor, each trial shift
    kept only while every pivot stays > 0, until the step is at roundoff.
    H >= floor = -Omega^2 / omega_cav - omega_eg / 2 (complete the square
    in a), and a truncated chain is a compression of H."""
    n = diag.shape[-1]
    hop2 = hop * hop
    bound = np.zeros(hop.shape[:-1] + (n,))
    bound[..., 1:] += np.abs(hop)
    bound[..., :-1] += np.abs(hop)
    scale = np.abs(diag).max(axis=-1) + bound.max(axis=-1)  # (m, 2), >= |H~|
    tol = 2 * _EPS * scale
    # below both bounds, less a margin for roundoff, every pivot is > 0
    shift = np.maximum((diag - bound).min(axis=-1), floor) - n * _EPS * scale
    pivots, step = _sturm(diag, hop2, shift)
    moving = step > tol
    while moving.any():
        trial = shift + step
        trial_pivots, step = _sturm(diag, hop2, trial)
        below = moving & (trial_pivots > 0).all(axis=-1)
        shift = np.where(below, trial, shift)
        np.copyto(pivots, trial_pivots, where=below[..., None])
        moving = below & (step > tol)
    return pivots


def _sturm(diag: np.ndarray, hop2: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LDL^T pivots of H~ - shift, (m, 2, n), and the Newton step
    1 / sum_k 1 / (lambda_k - shift) toward the lowest level, (m, 2).

    The number of negative pivots is the number of levels below the shift
    (Sylvester's law of inertia), so every pivot > 0 puts the shift below
    the lowest level. A pivot <= 0 can make the later ones inf or nan, and
    the step is then meaningless."""
    pivots = diag - shift[..., None]  # a_i - shift, then d_i site by site
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # d_i = a_i - shift - b_{i-1}^2 / d_{i-1}, and t_i = q_i / d_i with
        # q_i = -d d_i / d shift = 1 + (b_{i-1}^2 / d_{i-1}) t_{i-1}
        t = 1.0 / pivots[..., 0]
        total = t.copy()
        for i in range(1, diag.shape[-1]):
            ratio = hop2[..., i - 1] / pivots[..., i - 1]
            pivots[..., i] -= ratio
            t = (ratio * t + 1.0) / pivots[..., i]
            total += t
        # sum_i t_i = -det' / det = sum_k 1 / (lambda_k - shift)
        return pivots, 1.0 / total
