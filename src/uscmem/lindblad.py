"""Zero-temperature dissipation in the dressed (eigenstate) basis.

In the ultrastrong regime the usual bare-operator Lindblad terms would
excite the system out of its own ground state, so decay has to be written
in the instantaneous eigenbasis: every ordered eigenpair (j, k) with
E_k > E_j contributes a jump |j><k| for each system coupling operator
s in {sigma_x, sigma_y, sigma_z, a + a^dag}, with rate

    gamma = Gamma_s |<j| s |k>|^2

under the ``flat`` bath model, and that rate times (E_k - E_j) / omega_cav
under the ``ohmic`` one (:data:`RATE_MODELS`). The noise channels act on
the parity chains (:class:`~uscmem.model.ParityChains`): sigma_x, sigma_y
and a + a^dag carry one chain into the other and sigma_z keeps each one,
so every element <j| s |k> is a product of two chain eigenvectors and no
operator on the full cell is ever built. During a sweep the dressed basis
is refreshed quasi-statically every few steps, from the sector
eigensystems at the refresh midpoints alone, and the density matrix is
carried in the frame of the last refresh (:func:`evolve_master`): there
every jump is |j><k|, so the dissipator acts elementwise. The frame keeps
the k_levels + 12 lowest levels and widens to all of them once a leg has
lost a tenth of the 1e-8 trace budget: ``noisy`` loses about 3e-11 per
leg at its defaults, and 2.1e-9 over both legs at omega0 = 2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PropagatorConfig, _real_matmul, _record_grid, _sweep
from .hilbert import State
# build_rabi is unused here; perfbench's tracer test checks this alias.
from .model import (  # noqa: F401
    SECTOR_BATCH, CouplingSchedule, ModelParams, build_rabi, sector_eigh, sector_levels,
)

_RATE_FLOOR = 1e-14
_TRACE_TOL = 1e-8
_HERM_TOL = 1e-10
_EIG_FLOOR_HARD = -1e-6
# levels carried above the k_levels of the jump table
_FRAME_MARGIN = 12


class PositivityError(RuntimeError):
    """Density matrix developed a meaningful negative eigenvalue."""


# bath spectral densities: "flat" keeps each base rate, "ohmic" scales it by
# the transition energy over omega_cav
RATE_MODELS = ("flat", "ohmic")


@dataclass(frozen=True)
class NoiseRates:
    """Base decay rates per coupling channel (angular frequency units)."""

    gamma_x: float
    gamma_y: float
    gamma_z: float
    gamma_r: float

    def __post_init__(self) -> None:
        for name in ("gamma_x", "gamma_y", "gamma_z", "gamma_r"):
            if not 0 <= (value := getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @classmethod
    def for_qubit_splitting(cls, omega_eg: float) -> "NoiseRates":
        """Reference noise point: qubit channels at 1e-3 of the splitting,
        resonator channel at 1e-4 of it."""
        return cls(gamma_x=1e-3 * omega_eg, gamma_y=1e-3 * omega_eg,
                   gamma_z=1e-3 * omega_eg, gamma_r=1e-4 * omega_eg)


#---------------------------------------------------------------------------
# dressed jump rates
#---------------------------------------------------------------------------

def _rate_table(
    energies: np.ndarray, sector: np.ndarray, basis: np.ndarray,
    rates: NoiseRates, params: ModelParams, rate_model: str,
) -> np.ndarray:
    """Downward transition rates among the lowest levels of a step.

    energies, sector (..., k) and the first k columns of basis are levels of
    :func:`~uscmem.model.sector_levels`, with any leading batch axes. Each
    level is a vector u on its chain's sites, and every channel element is
    a product of two of them: sigma_x pairs site n of one chain with site n
    of the other, sigma_y and sigma_z weight that pairing by the site's
    sigma_z sign s (across and within the chains), and a + a^dag moves u
    along the hops to the other chain. Returns gain (..., k, k), gain[j, k]
    the rate of the jump |j><k|, with the channels merged in the order x, y, z, r.
    """
    index, k = params.chains.index, sector.shape[-1]
    u = np.take_along_axis(np.swapaxes(basis[..., :k], -1, -2), index[sector], axis=-1)
    su = (2 * (index // params.n_fock) - 1)[sector] * u
    hu = u @ params.chains.hop
    cross = sector[..., :, None] != sector[..., None, :]
    signed = u @ np.swapaxes(su, -1, -2)
    elems = (cross * (u @ np.swapaxes(u, -1, -2)), cross * signed, ~cross * signed,
             cross * (u @ np.swapaxes(hu, -1, -2)))
    delta = energies[..., None, :] - energies[..., :, None]
    down = delta > 0.0
    base = [rates.gamma_x, rates.gamma_y, rates.gamma_z, rates.gamma_r]
    gain = np.zeros(delta.shape)
    for elem, gamma in zip(elems, base):
        scale = gamma * delta[down] / params.omega_cav if rate_model == "ohmic" else gamma
        rate = scale * elem[down] ** 2
        gain[down] += np.where(rate >= _RATE_FLOOR, rate, 0.0)
    return gain


#---------------------------------------------------------------------------
# density matrices
#---------------------------------------------------------------------------

def pure_density(state: State) -> np.ndarray:
    return np.outer(state.amplitudes, state.amplitudes.conj())


def validate_density(rho: np.ndarray, where: str = "rho") -> None:
    if not (float(np.abs(rho - rho.conj().T).max()) <= _HERM_TOL):
        raise ValueError(f"{where} is not Hermitian within {_HERM_TOL}")
    tr = float(np.real(np.trace(rho)))
    if not (abs(tr - 1.0) <= _TRACE_TOL):
        raise ValueError(f"{where} trace {tr!r} deviates from 1 beyond {_TRACE_TOL}")
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if not (_EIG_FLOOR_HARD <= lowest):
        raise PositivityError(f"{where} eigenvalue {lowest:.3e} below {_EIG_FLOOR_HARD}")


@dataclass(frozen=True)
class MasterTrajectory:
    """Recorded open-system sweep: times, couplings, the recorded block of
    each sample's lab-frame density matrix, and the full lab-frame density
    matrix after the last step."""

    times: np.ndarray
    couplings: np.ndarray
    rhos: np.ndarray
    final: np.ndarray


#---------------------------------------------------------------------------
# master equation integration
#---------------------------------------------------------------------------

def evolve_master(
    params: ModelParams, schedule: CouplingSchedule, rho0: np.ndarray, rates: NoiseRates,
    cfg: PropagatorConfig, k_levels: int = 12, refresh_every: int = 20,
    rate_model: str = "flat", cells: slice | np.ndarray = slice(None),
) -> MasterTrajectory:
    """Sweep a cell under the dressed-basis master equation.

    Each step applies the sweep's midpoint propagator followed by a
    first-order dissipator update. Every refresh_every steps the jump table
    is rebuilt from the sector eigensystems at that step's midpoint
    (quasi-static approximation), with the bath model rate_model, one of
    :data:`RATE_MODELS`: SECTOR_BATCH refreshes take one sector_eigh, one
    sector_levels and one _rate_table call, with dt folded into the tables.

    The state is carried on the K lowest levels of the last refresh,
    rho_f = B^T rho B with B the real d x K dressed basis of
    :func:`~uscmem.model.sector_levels` (the full identity before the
    first refresh). There every jump is |j><k|, so the dissipator acts
    elementwise. A refresh rotates rho_f once by R = B_new^T B_old; each
    step applies the K x K block U_f = B^T U B of the midpoint propagator
    U, made with U_f^dag for the steps up to the next refresh, in one K x K
    sandwich U_f rho_f U_f^dag, then the dissipator in place. U_f is a
    contraction, so weight that reaches the levels above K is lost from the
    trace and truncation breaks nothing else. K starts at min(d, k_levels + 12).
    Once a step's trace, the sum of the populations the dissipator reads,
    falls below trace(rho0) by a tenth of the 1e-8 budget, the next step
    redoes the last scheduled refresh on all d levels, on the same
    schedule. The trace check of :func:`validate_density` on each
    recorded rho_f, rho0 included, bounds the loss; a failed check raises.
    Each recorded sample is the block B[cells] rho_f B[cells]^T of the
    lab-frame B rho_f B^T on the cell-basis indices cells, every cell by
    default; params.chains.index[:, 0] keeps the |g,0>, |e,0> block that
    :func:`~uscmem.dynamics.readout` reads. The trajectory's final is the
    full lab-frame matrix after the last step, whatever cells is.
    """
    d = 2 * params.n_fock
    if rho0.shape != (d, d):
        raise ValueError("rho0 shape does not match the model space")
    if refresh_every < 1:
        raise ValueError("refresh_every must be >= 1")
    if rate_model not in RATE_MODELS:
        raise ValueError(f"rate_model must be one of {RATE_MODELS}, got {rate_model!r}")
    if not 2 <= k_levels <= d:
        raise ValueError(f"k_levels must be in [2, {d}], got {k_levels}")

    index = params.chains.index
    width = min(d, k_levels + _FRAME_MARGIN)
    # a step that leaves less trace than this widens the frame
    floor = float(np.real(np.trace(rho0))) - _TRACE_TOL / 10
    midpoints, dt, _ = _record_grid(schedule, cfg)
    at = midpoints[::refresh_every]  # the refresh midpoints, SECTOR_BATCH per sector_eigh call
    eigs = (sector_eigh(params, at[k:k + SECTOR_BATCH]) for k in range(0, len(at), SECTOR_BATCH))
    frame = np.eye(d)     # dressed basis B of the last refresh, levels as columns
    sites = frame[index]  # (2, n_fock, K): the rows of B at each chain's sites
    gain = decay = None   # the last refresh's dt gain and 1 + dt decay (K, K)
    wv = tables = None    # (w, v) of a batch and its refreshes' (B, dt gain, 1 + dt decay)
    last = None           # rho_f at the last recorded step

    def step(rho_f, us, start):
        nonlocal width, frame, sites, gain, decay, wv, tables
        blocks = None  # the next steps' U_f and U_f^dag in the current frame
        for j, i in enumerate(range(start, start + len(us))):
            if (scheduled := i % refresh_every == 0) or frame.shape[1] < width:
                r = i // refresh_every % SECTOR_BATCH  # the last scheduled refresh, in its batch
                if scheduled and r == 0:  # a new batch; the spent one goes first
                    wv = tables = None
                    wv = next(eigs)
                if tables is None or tables[0].shape[-1] < width:  # (re)build at this width
                    levels, sector, basis = sector_levels(params, *wv, width)
                    gain = np.zeros((len(basis), width, width))  # [j, k]: |k> feeding |j>
                    gain[:, :k_levels, :k_levels] = _rate_table(
                        levels[:, :k_levels], sector[:, :k_levels], basis, rates, params,
                        rate_model)
                    out_rate = gain.sum(axis=1)
                    decay = np.add(out_rate[:, :, None], out_rate[:, None, :])  # G_j + G_k
                    np.add(np.multiply(decay, -0.5 * dt, out=decay), 1.0, out=decay)
                    tables = (basis, np.multiply(gain, dt, out=gain), decay)
                basis, gain, decay = (t[r].copy() for t in tables)  # copies let a spent batch go
                rho_f = _to_basis(rho_f, frame, basis)
                frame, sites = basis, basis[index]
                blocks = None
            if blocks is None:  # U_f = B^T U B up to the next refresh
                seg = us[j:j + refresh_every - i % refresh_every]
                fs = _real_matmul(sites.reshape(d, -1).T, (seg @ sites).reshape(len(seg), d, -1))
                blocks = zip(fs, fs.conj().swapaxes(1, 2))
            u, u_dag = next(blocks)
            rho_f = u @ rho_f @ u_dag  # a new array, so the writes below reach no record
            pop = rho_f.reshape(-1)[::len(rho_f) + 1].real  # a view of the populations
            if pop.sum() < floor:
                width = d  # the next step widens the frame in the last refresh's basis
            feed = gain @ pop
            rho_f *= decay
            pop += feed
        return rho_f

    def record(rho_f, n):
        nonlocal last
        # B has orthonormal columns, so B rho_f B^T has rho_f's trace and
        # Hermiticity, and its lowest eigenvalue is min(that of rho_f, 0)
        validate_density(rho_f, f"rho at step {n}" if n else "rho0")
        last = rho_f
        rows = frame[cells]
        return rows @ rho_f @ rows.T

    rho = np.array(rho0, dtype=np.complex128)
    times, couplings, rhos = _sweep(params, schedule, cfg, rho, step, record)
    return MasterTrajectory(times, couplings, rhos, frame @ last @ frame.T)


def _to_basis(rho_f: np.ndarray, frame: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """rho_f moved from the dressed basis frame into basis: R rho_f R^T, R = basis^T frame."""
    r = basis.T @ frame
    return r @ rho_f @ r.T
