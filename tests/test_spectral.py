"""Eigensystem extraction, the ground doublet, and cat-state approximants."""
import numpy as np
import pytest

from uscmem import (
    ModelParams,
    Spectrum,
    build_gauge_chain,
    build_rabi,
    cat_approximant,
    sector_spectra,
    coherent_state,
)
from uscmem import spectral
from uscmem.model import SECTOR_BATCH, chain_ground, sector_eigh

from reference import (
    basis_state, kron_cat, levels_on_cells, mean_photon, pair_on_cells, parity_op,
    product_state,
)

# independently derived reference values at full coupling, n_fock = 30
GROUND_PHOTON = 0.972198
CAT_G_OVERLAP = 0.999606
CAT_E_OVERLAP = 0.999593


def _levels(params: ModelParams, coupling: float, k: int = 4):
    """Energies (k,), states (dim, k) and parities (k,) at one coupling."""
    sp = sector_spectra(params, [coupling], k)
    return sp.energies[0], levels_on_cells(params, sp.sector, sp.states)[0], 2.0 * sp.sector[0] - 1


def _check_against_dense(params: ModelParams, sp: Spectrum, zeros_off_sector: bool = True) -> None:
    """The dense reference, build_rabi plus eigh, at every coupling of sp:
    the same lowest energies, the same spanned subspace, and, where the
    package labelled the levels (zeros_off_sector), each state inside the
    parity sector of its label. Inside a degenerate doublet only the subspace is
    defined, so states are compared through the projector onto their
    span."""
    k = sp.energies.shape[1]
    plus = np.real(np.diag(parity_op(params.n_fock))) > 0
    cells = levels_on_cells(params, sp.sector, sp.states)
    for om, levels, states, parities in zip(sp.couplings, sp.energies, cells, 2.0 * sp.sector - 1):
        energies, vectors = np.linalg.eigh(build_rabi(params, float(om)))
        assert np.abs(np.sort(levels) - energies[:k]).max() < 1e-12
        projector = vectors[:, :k] @ vectors[:, :k].conj().T
        assert np.abs(states @ states.T - projector).max() < 1e-12
        if zeros_off_sector:
            for i in range(k):
                off_sector = ~plus if parities[i] > 0 else plus
                assert np.all(states[off_sector, i] == 0.0)


# --------------------------------------------------------------------------
# eigensystem invariants
# --------------------------------------------------------------------------

def test_spectrum_invariants():
    params = ModelParams()
    energies, states, _ = _levels(params, 1.0)
    h = build_rabi(params, 1.0)
    p = parity_op(params.n_fock)
    for i in range(4):
        v = states[:, i]
        # residual, normalization, parity purity
        assert np.linalg.norm(h @ v - energies[i] * v) < 1e-9
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(abs(np.vdot(v, p @ v)) - 1.0) < 1e-3
    # orthogonality
    g = states.conj().T @ states
    assert np.abs(g - np.eye(4)).max() < 1e-10
    # energies agree with a direct solve
    direct = np.sort(np.linalg.eigvalsh(h))[:4]
    assert np.allclose(energies, direct, atol=1e-12)


def test_parity_label_alternation():
    # ground doublet: odd below even; second doublet flips back
    _, _, parities = _levels(ModelParams(), 1.0)
    assert list(parities) == [-1, 1, -1, 1]
    # the spectrum experiment reads level 0 on chain 0 and level 1 on
    # chain 1; that holds below, at and above resonance, at every coupling
    couplings = np.linspace(0.0, 3.0, 61)
    for omega_eg in (0.0, 0.1, 0.9, 1.5, 3.0):
        for omega_cav in (0.5, 1.0, 2.0):
            params = ModelParams(omega_cav=omega_cav, omega_eg=omega_eg)
            sector = sector_spectra(params, couplings, 2).sector
            assert np.array_equal(sector, np.tile([0, 1], (len(couplings), 1))), (
                omega_eg, omega_cav)


def test_parity_purity_at_moderate_coupling():
    # away from the quasi-degenerate regime the purity is essentially exact
    params = ModelParams()
    _, states, _ = _levels(params, 0.5)
    p = parity_op(params.n_fock)
    for i in range(4):
        v = states[:, i]
        assert abs(abs(np.vdot(v, p @ v)) - 1.0) < 1e-9


def test_degenerate_doublet_gets_clean_parity():
    # with omega_eg = 0 the doublet is exactly degenerate; the spectrum
    # must still hold parity eigenstates rather than arbitrary mixtures
    params = ModelParams(omega_eg=0.0, n_fock=20)
    spec = sector_spectra(params, [1.0], 2)
    assert list(2.0 * spec.sector[0] - 1) == [-1, 1]  # the tie convention of sector_spectra
    states = levels_on_cells(params, spec.sector, spec.states)
    p = parity_op(params.n_fock)
    for i in range(2):
        v = states[0, :, i]
        assert abs(abs(np.vdot(v, p @ v)) - 1.0) < 1e-9
    _check_against_dense(params, spec)


def test_convergence_against_larger_truncation():
    e30, _, _ = _levels(ModelParams(n_fock=30), 1.0)
    e40, _, _ = _levels(ModelParams(n_fock=40), 1.0)
    assert np.abs(e30 - e40).max() < 1e-8


# --------------------------------------------------------------------------
# gauge fixing
# --------------------------------------------------------------------------

def test_gauge_is_fixed_at_every_sample_on_its_own():
    # G lies on the P = -1 chain and E on the P = +1 chain, each with a
    # positive alternating sum over its chain sites, and no sample depends
    # on the others: the grid is deliberately unsorted
    params = ModelParams(n_fock=12)
    couplings = np.array([0.7, 0.0, 1.5, 0.3, 0.7])
    energies, states = build_gauge_chain(params, couplings)  # G's chain, then E's
    alternating = (-1.0) ** np.arange(params.n_fock)
    for j in range(len(couplings)):
        for col in range(2):
            assert states[j, col] @ alternating >= 1 - 1e-12
        alone_energies, alone_states = build_gauge_chain(params, couplings[j:j + 1])
        assert np.array_equal(alone_states[0], states[j])
        assert np.array_equal(alone_energies[0], energies[j])


def test_gauge_chain_is_continuous():
    params = ModelParams(n_fock=14)
    couplings = np.linspace(1.0, 0.0, 41)
    _, states = build_gauge_chain(params, couplings)
    assert states.shape == (41, 2, params.n_fock)
    cells = pair_on_cells(params, states)
    for prev, cur in zip(cells, cells[1:]):
        for i in range(2):
            ov = np.vdot(prev[i], cur[i])
            assert ov.real > 0.99
            assert abs(ov.imag) < 0.05
    # at zero coupling the tracked doublet lands on the bare qubit states
    end = cells[-1]
    g0 = basis_state(params.n_fock, 0, 0).amplitudes
    e0 = basis_state(params.n_fock, 1, 0).amplitudes
    assert abs(np.vdot(g0, end[0])) > 1 - 1e-9
    assert abs(np.vdot(e0, end[1])) > 1 - 1e-9


@pytest.mark.parametrize("omega_eg", [0.1, 0.0])
def test_sector_gauge_chain_matches_dense_chain(omega_eg):
    # omega_eg = 0 makes every doublet exactly degenerate
    params = ModelParams(n_fock=30, omega_eg=omega_eg)
    couplings = np.linspace(0.0, 1.0, 101)
    energies, states = build_gauge_chain(params, couplings)
    # G on P = -1 and E on P = +1 by construction; levels_on_cells writes
    # the zeros off each chain from those labels, so they are not checked
    cells = np.swapaxes(pair_on_cells(params, states), 1, 2)
    sectors = np.tile([0, 1], (len(couplings), 1))
    _check_against_dense(params, Spectrum(couplings, energies, sectors, states),
                         zeros_off_sector=False)
    for prev, cur in zip(cells, cells[1:]):
        assert np.all(np.einsum("dk,dk->k", prev.conj(), cur).real > 0)


def test_sector_gauge_chain_takes_coarse_grids():
    # the ground doublet changes beyond recognition between 0 and 3, yet
    # each end is bitwise what a fine grid gives there
    params = ModelParams(n_fock=30)
    coarse_energies, coarse_states = build_gauge_chain(params, np.array([0.0, 3.0]))
    fine_energies, fine_states = build_gauge_chain(params, np.linspace(0.0, 3.0, 301))
    assert np.array_equal(coarse_states, fine_states[[0, -1]])
    assert np.array_equal(coarse_energies, fine_energies[[0, -1]])


def _two_levels(params, couplings):
    return sector_spectra(params, couplings, 2)


# every chain solver takes a 1-d array only; the doublet and the cats also
# want it nonempty and >= 0, while the bare solvers take empty and negative grids
@pytest.mark.parametrize("fn, bare", [
    (build_gauge_chain, False), (cat_approximant, False),
    (sector_eigh, True), (chain_ground, True), (_two_levels, True),
], ids=["build_gauge_chain", "cat_approximant", "sector_eigh", "chain_ground", "sector_spectra"])
def test_gauge_chain_rejects_bad_couplings(fn, bare):
    params = ModelParams(n_fock=8)
    empty_or_negative = ([], [0.5, -0.1])
    for couplings in (0.5, [[0.5]], *(() if bare else empty_or_negative)):
        with pytest.raises(ValueError, match="couplings"):
            fn(params, np.array(couplings))
    for couplings in empty_or_negative if bare else ():
        fn(params, np.array(couplings))


def _shift_level(w, v):
    w[3, 0, 0] += 1e-3


def _stretch_state(w, v):
    v[3, 0, :, 0] *= 1.1  # still an eigenvector, no longer normalized


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("corrupt, message", [
    (_shift_level, "eigenpair residual above tolerance"),
    (_stretch_state, "lost orthonormality"),
])
def test_every_sector_batch_is_checked(monkeypatch, batch, corrupt, message):
    # three batches of couplings; one eigenpair of a later batch goes bad
    calls = []

    def patched(params, couplings):
        w, v = sector_eigh(params, couplings)
        if len(calls) == batch:
            corrupt(w, v)
        calls.append(couplings)
        return w, v

    monkeypatch.setattr(spectral, "sector_eigh", patched)
    couplings = np.linspace(0.0, 1.0, 2 * SECTOR_BATCH + 16)
    with pytest.raises(RuntimeError, match=message):
        sector_spectra(ModelParams(n_fock=12), couplings, 2)
    assert len(calls) == batch + 1  # raised at the corrupted batch


def _shift_ground(energies, states, at):
    energies[at, 0] += 1e-3


def _stretch_ground(energies, states, at):
    states[at, 1] *= 1.1  # still an eigenvector, no longer normalized


@pytest.mark.parametrize("at", [0, 37, -1])
@pytest.mark.parametrize("corrupt, message", [
    (_shift_ground, "eigenpair residual above tolerance"),
    (_stretch_ground, "lost orthonormality"),
])
def test_every_ground_pair_is_checked(monkeypatch, at, corrupt, message):
    # one coupling's pair goes bad, anywhere in the grid
    def patched(params, couplings):
        energies, states = chain_ground(params, couplings)
        corrupt(energies, states, at)
        return energies, states

    monkeypatch.setattr(spectral, "chain_ground", patched)
    with pytest.raises(RuntimeError, match=message):
        build_gauge_chain(ModelParams(n_fock=12), np.linspace(0.0, 1.0, 80))


@pytest.mark.parametrize("omega_eg", [0.1, 0.0])
def test_sector_spectra_match_eigendecompose(omega_eg):
    params = ModelParams(n_fock=20, omega_eg=omega_eg)
    couplings = np.linspace(0.0, 1.0, 11)
    spectrum = sector_spectra(params, couplings, 4)
    assert np.all(np.diff(spectrum.energies, axis=1) >= 0.0)
    _check_against_dense(params, spectrum)


# --------------------------------------------------------------------------
# cat approximants
# --------------------------------------------------------------------------

def _cat_cells(params: ModelParams, couplings) -> np.ndarray:
    """The cat pair as cell vectors (m, 2, 2 n_fock): G, then E."""
    return pair_on_cells(params, cat_approximant(params, couplings)[:, None])


def test_cat_pair_is_orthonormal():
    (cat_g, cat_e), = _cat_cells(ModelParams(), [1.0])
    assert abs(np.linalg.norm(cat_g) - 1.0) < 1e-12
    assert abs(np.linalg.norm(cat_e) - 1.0) < 1e-12
    assert abs(np.vdot(cat_g, cat_e)) < 1e-12


def test_cat_matches_exact_doublet():
    params = ModelParams()
    _, states, _ = _levels(params, 1.0, k=2)
    (cat_g, cat_e), = _cat_cells(params, [1.0])
    f_g = abs(np.vdot(states[:, 0], cat_g)) ** 2
    f_e = abs(np.vdot(states[:, 1], cat_e)) ** 2
    assert abs(f_g - CAT_G_OVERLAP) < 1e-4
    assert abs(f_e - CAT_E_OVERLAP) < 1e-4
    assert f_g > 0.98 and f_e > 0.98


def test_cat_parity_sectors():
    params = ModelParams()
    p = parity_op(params.n_fock)
    couplings = np.linspace(0.0, 1.0, 11)
    cat_g, cat_e = _cat_cells(params, couplings)[-1]
    assert abs(np.vdot(cat_g, p @ cat_g) + 1.0) < 1e-12
    assert abs(np.vdot(cat_e, p @ cat_e) - 1.0) < 1e-12
    # the package returns one chain vector per coupling, which has no
    # off-chain part: the sectors hold by construction
    assert cat_approximant(params, couplings).shape == (11, params.n_fock)


KRON_GRID = (0.0, 0.3, 1.0, 1.5)


@pytest.mark.parametrize("which", ["G", "E"])
@pytest.mark.parametrize("coupling", KRON_GRID)
def test_cat_matches_textbook_kron_form(coupling, which):
    # the stack over the whole grid in one call; row 0 is G and row 1 is E
    cats = _cat_cells(ModelParams(), KRON_GRID)
    cat = cats[KRON_GRID.index(coupling), "GE".index(which)]
    assert np.abs(cat - kron_cat(ModelParams(), coupling, which).amplitudes).max() < 1e-15


def test_cat_zero_coupling_limit():
    # alpha -> 0 collapses the cats onto the bare states
    params = ModelParams()
    g0 = basis_state(params.n_fock, 0, 0).amplitudes
    cat_g0, near = _cat_cells(params, [0.0, 0.01])[:, 0]
    assert abs(abs(np.vdot(cat_g0, g0)) - 1.0) < 1e-12
    assert abs(np.vdot(near, g0)) > 0.9999


# --------------------------------------------------------------------------
# observables
# --------------------------------------------------------------------------

def test_mean_photon_coherent_product():
    params = ModelParams()
    for alpha in (0.6, 1.0):
        fock = coherent_state(alpha, params.n_fock)
        psi = product_state(np.array([1.0, 0.0]), fock)
        assert abs(mean_photon(psi) - alpha ** 2) < 1e-8


def test_mean_photon_ground_state():
    params = ModelParams()
    _, states, _ = _levels(params, 1.0, k=1)
    from uscmem import State

    psi = State(states[:, 0])
    assert abs(mean_photon(psi) - GROUND_PHOTON) < 1e-3
    vac = basis_state(params.n_fock, 0, 0)
    assert mean_photon(vac) < 1e-14
