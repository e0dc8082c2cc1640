"""Dense references the tests check the package against.

The package never builds these: its sweeps and its noise channels work on
the two parity chains (:class:`uscmem.model.ParityChains`), and its
read-out takes the two branch amplitudes of a state. Here each object is assembled the textbook
way, as a full state vector or a full 2 n_fock x 2 n_fock matrix, so a
test can compare a chain-level result with its dense counterpart.
"""
import numpy as np

from uscmem import ModelParams, State, coherent_state, fock_annihilation
from uscmem.hilbert import _coherent_terms
from uscmem.model import PROPAGATOR_BATCH

RSQRT2 = 2 ** -0.5


def normalized(amplitudes: np.ndarray) -> State:
    """Build a State after dividing out the norm of ``amplitudes``."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return State(amps / nrm)


def coherent_truncation_weight(alpha: complex, n_fock: int) -> float:
    """Probability weight of a coherent state beyond the kept Fock levels."""
    kept = float(np.sum(np.abs(_coherent_terms(alpha, n_fock)) ** 2))
    return max(0.0, 1.0 - kept)


def site(n_fock: int, qubit: int, n: int) -> int:
    """Index of |qubit, n> in the qubit-major layout of np.kron(qubit, fock)."""
    return qubit * n_fock + n


def basis_state(n_fock: int, qubit: int, n: int) -> State:
    """Basis state |qubit, n>, as the product of two unit vectors."""
    return product_state(np.eye(2)[qubit], np.eye(n_fock)[n])


def product_state(qubit_amps: np.ndarray, fock_amps: np.ndarray) -> State:
    """Product state (qubit factor) x (Fock factor)."""
    q = np.asarray(qubit_amps, dtype=np.complex128)
    f = np.asarray(fock_amps, dtype=np.complex128)
    if q.shape != (2,) or f.ndim != 1:
        raise ValueError("factor shapes must be (2,) and (n_fock,)")
    return normalized(np.kron(q, f))


def annihilation_op(n_fock: int) -> np.ndarray:
    """Cell annihilation operator, identity on the qubit factor."""
    return np.kron(np.eye(2, dtype=np.complex128), fock_annihilation(n_fock))


_PAULI = {
    # Basis order (|g>, |e>); sigma_z |e> = +|e>, sigma_z |g> = -|g>.
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),
    "z": np.array([[-1, 0], [0, 1]], dtype=np.complex128),
}


def pauli_op(axis: str, n_fock: int) -> np.ndarray:
    """Qubit Pauli operator on a cell, identity on the Fock factor."""
    try:
        sigma = _PAULI[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return np.kron(sigma, np.eye(n_fock, dtype=np.complex128))


def number_op(n_fock: int) -> np.ndarray:
    """Photon number operator a^dag a, identity on the qubit factor."""
    n = np.diag(np.arange(n_fock, dtype=np.float64)).astype(np.complex128)
    return np.kron(np.eye(2, dtype=np.complex128), n)


def parity_op(n_fock: int) -> np.ndarray:
    """Z2 symmetry operator sigma_z exp(i pi a^dag a) of one cell.

    Commutes with the Rabi Hamiltonian at every coupling, so its eigenvalue
    (+1 or -1) labels each eigenstate and is conserved during sweeps.
    """
    photon_parity = np.diag((-1.0 + 0j) ** np.arange(n_fock))
    return np.kron(np.array([[-1, 0], [0, 1]], dtype=np.complex128), photon_parity)


def branch_phase_correction(n_fock: int, theta: float) -> np.ndarray:
    """Unitary C(theta) applying exp(-i theta) on the excited-qubit branch."""
    d = np.ones(2 * n_fock, dtype=np.complex128)
    d[n_fock:] = np.exp(-1j * theta)
    return np.diag(d)


def corrected_fidelity(
    state: State, theta: float, alpha_f: complex = RSQRT2, beta_f: complex = RSQRT2
) -> float:
    """|<psi_s| C(theta) |state>|^2 with psi_s = alpha_f |g,0> + beta_f |e,0>,
    as a dense matrix-vector product."""
    n_fock = len(state.amplitudes) // 2
    psi_s = (alpha_f * basis_state(n_fock, 0, 0).amplitudes
             + beta_f * basis_state(n_fock, 1, 0).amplitudes)
    c = branch_phase_correction(n_fock, theta)
    return abs(np.vdot(psi_s, c @ state.amplitudes)) ** 2


def density_block(rho: np.ndarray, n_fock: int) -> np.ndarray:
    """|g,0>, |e,0> block of a density matrix, the part a read-out sees."""
    idx = np.array([site(n_fock, 0, 0), site(n_fock, 1, 0)])
    return rho[..., idx[:, None], idx]


def state_fidelity(rho: np.ndarray, state: State) -> float:
    """<state| rho |state> as a dense matrix-vector product."""
    return float(np.real(np.vdot(state.amplitudes, rho @ state.amplitudes)))


def mean_photon(state: State) -> float:
    """<a^dag a> of a cell state."""
    n = number_op(len(state.amplitudes) // 2)
    return float(np.real(np.vdot(state.amplitudes, n @ state.amplitudes)))


def pair_on_cells(params: ModelParams, pair: np.ndarray) -> np.ndarray:
    """A chain pair (..., 2, n_fock), row s on chain s as build_gauge_chain
    returns the doublet, laid on the cells: (..., 2, 2 n_fock), row s the
    chain-s vector at that chain's sites and zero off them. A (..., 1,
    n_fock) pair, such as cat_approximant(...)[:, None], is one vector laid
    on both chains: the G cat, then the E cat."""
    pair = np.asarray(pair)
    rows = np.zeros(pair.shape[:-2] + (2, 2 * params.n_fock), dtype=pair.dtype)
    rows[..., np.arange(2)[:, None], params.chains.index] = pair
    return rows


def samples_on_cells(params: ModelParams, amps: np.ndarray) -> np.ndarray:
    """Chain pairs (..., 2, n_fock), as a sweep records its samples, laid on
    the cells: (..., 2 n_fock), each pair's cell vector."""
    amps = np.asarray(amps)
    cells = np.empty(amps.shape[:-2] + (2 * params.n_fock,), dtype=amps.dtype)
    cells[..., params.chains.index] = amps
    return cells


def levels_on_cells(params: ModelParams, sector: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Levels as a Spectrum holds them, sectors (..., k) and chain vectors
    (..., k, n_fock), laid on the cells: (..., 2 n_fock, k), level i as
    column i, its chain vector at its chain's sites and zero off them."""
    cells = np.zeros(states.shape[:-1] + (2 * params.n_fock,))
    np.put_along_axis(cells, params.chains.index[sector], states, axis=-1)
    return np.swapaxes(cells, -1, -2)


def kron_cat(params: ModelParams, coupling: float, which: str) -> State:
    """Textbook cat (|-alpha>|+> -+ |alpha>|->) / sqrt(2), "G" with the minus
    sign, as two qubit x Fock products; alpha = coupling / omega_cav and
    |+-> = (|e> +- |g>) / sqrt(2)."""
    alpha = coupling / params.omega_cav
    sqrt2 = np.sqrt(2.0)
    plus = np.array([1.0, 1.0]) / sqrt2
    minus = np.array([-1.0, 1.0]) / sqrt2
    sign = -1.0 if which == "G" else 1.0
    amps = (np.kron(plus, coherent_state(-alpha, params.n_fock))
            + sign * np.kron(minus, coherent_state(alpha, params.n_fock))) / sqrt2
    return normalized(amps)


def eigh_propagator_batches(params: ModelParams, couplings: np.ndarray, dt: float):
    """The midpoint factors exp(-i H_s(c) dt) from one eigh exponential per
    step, V exp(-i w dt) V^T per chain, in the batches a sweep draws (a
    stand-in for uscmem.model._propagator_batches)."""
    chains = params.chains
    for start in range(0, len(couplings), PROPAGATOR_BATCH):
        c = np.asarray(couplings[start:start + PROPAGATOR_BATCH])
        w, v = np.linalg.eigh(chains.bare + c[:, None, None, None] * chains.hop)
        yield (v * np.exp(-1j * w * dt)[..., None, :]) @ np.swapaxes(v, -1, -2)
