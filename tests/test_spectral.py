"""Eigensystem extraction, gauge tracking, and cat-state approximants."""
import numpy as np
import pytest

from uscmem import (
    GaugeAlignmentError,
    ModelParams,
    Spectrum,
    basis_state,
    build_gauge_chain,
    build_rabi,
    cat_approximant,
    mean_photon,
    parity_op,
    product_state,
    sector_spectra,
    coherent_state,
)

# independently derived reference values at full coupling, n_fock = 30
GROUND_PHOTON = 0.972198
CAT_G_OVERLAP = 0.999606
CAT_E_OVERLAP = 0.999593


def _spec(params: ModelParams, coupling: float, k: int = 4) -> Spectrum:
    return sector_spectra(params, [coupling], k)[0]


def _check_against_dense(params: ModelParams, coupling: float, sp: Spectrum) -> None:
    """The dense reference, build_rabi plus eigh: the same lowest energies,
    the same spanned subspace, and each state inside its parity sector.
    Inside a degenerate doublet only the subspace is defined, so states
    are compared through the projector onto their span."""
    k = len(sp.energies)
    energies, vectors = np.linalg.eigh(build_rabi(params, coupling))
    assert np.abs(np.sort(sp.energies) - energies[:k]).max() < 1e-12
    projector = vectors[:, :k] @ vectors[:, :k].conj().T
    assert np.abs(sp.states @ sp.states.T - projector).max() < 1e-12
    plus = np.real(np.diag(parity_op(params.dims))) > 0
    for i in range(k):
        off_sector = ~plus if sp.parities[i] > 0 else plus
        assert np.all(sp.states[off_sector, i] == 0.0)


# --------------------------------------------------------------------------
# eigensystem invariants
# --------------------------------------------------------------------------

def test_spectrum_invariants():
    params = ModelParams()
    spec = _spec(params, 1.0)
    h = build_rabi(params, 1.0)
    p = parity_op(params.dims)
    for i in range(4):
        v = spec.states[:, i]
        # residual, normalization, parity purity
        assert np.linalg.norm(h @ v - spec.energies[i] * v) < 1e-9
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(abs(np.vdot(v, p @ v)) - 1.0) < 1e-3
    # orthogonality
    g = spec.states.conj().T @ spec.states
    assert np.abs(g - np.eye(4)).max() < 1e-10
    # energies agree with a direct solve
    direct = np.sort(np.linalg.eigvalsh(h))[:4]
    assert np.allclose(spec.energies, direct, atol=1e-12)


def test_parity_label_alternation():
    # ground doublet: odd below even; second doublet flips back
    spec = _spec(ModelParams(), 1.0)
    assert list(spec.parities) == [-1, 1, -1, 1]


def test_parity_purity_at_moderate_coupling():
    # away from the quasi-degenerate regime the purity is essentially exact
    params = ModelParams()
    spec = _spec(params, 0.5)
    p = parity_op(params.dims)
    for i in range(4):
        v = spec.states[:, i]
        assert abs(abs(np.vdot(v, p @ v)) - 1.0) < 1e-9


def test_degenerate_doublet_gets_clean_parity():
    # with omega_eg = 0 the doublet is exactly degenerate; the spectrum
    # must still hold parity eigenstates rather than arbitrary mixtures
    params = ModelParams(omega_eg=0.0, n_fock=20)
    spec = _spec(params, 1.0, k=2)
    assert list(spec.parities) == [-1, 1]  # the tie convention of sector_levels
    p = parity_op(params.dims)
    for i in range(2):
        v = spec.states[:, i]
        assert abs(abs(np.vdot(v, p @ v)) - 1.0) < 1e-9
    _check_against_dense(params, 1.0, spec)


def test_convergence_against_larger_truncation():
    e30 = _spec(ModelParams(n_fock=30), 1.0).energies
    e40 = _spec(ModelParams(n_fock=40), 1.0).energies
    assert np.abs(e30 - e40).max() < 1e-8


# --------------------------------------------------------------------------
# gauge fixing
# --------------------------------------------------------------------------

def test_seed_gauge_makes_leading_entry_real():
    params = ModelParams(n_fock=12)
    seed = build_gauge_chain(params, np.array([0.7]), k=4).spectra[0]
    for i in range(4):
        v = seed.states[:, i]
        assert v[np.argmax(np.abs(v))] > 0
    # the seed alone fixes the first sample, whatever follows it
    longer = build_gauge_chain(params, np.linspace(0.7, 0.3, 9), k=4)
    assert np.array_equal(longer.spectra[0].states, seed.states)


def test_gauge_chain_is_continuous():
    params = ModelParams(n_fock=14)
    couplings = np.linspace(1.0, 0.0, 41)
    chain = build_gauge_chain(params, couplings, k=2)
    assert len(chain.spectra) == 41
    for prev, cur in zip(chain.spectra, chain.spectra[1:]):
        for i in range(2):
            ov = np.vdot(prev.states[:, i], cur.states[:, i])
            assert ov.real > 0.99
            assert abs(ov.imag) < 0.05
    # at zero coupling the tracked doublet lands on the bare qubit states
    end = chain.spectra[-1]
    g0 = basis_state(params.dims, 0, 0).amplitudes
    e0 = basis_state(params.dims, 1, 0).amplitudes
    assert abs(np.vdot(g0, end.states[:, 0])) > 1 - 1e-9
    assert abs(np.vdot(e0, end.states[:, 1])) > 1 - 1e-9


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("omega_eg", [0.1, 0.0])
def test_sector_gauge_chain_matches_dense_chain(omega_eg, k):
    # omega_eg = 0 makes every doublet exactly degenerate; at 0.1 and k = 4
    # levels of opposite parity cross, so the chain order is not energy order
    params = ModelParams(n_fock=30, omega_eg=omega_eg)
    couplings = np.linspace(0.0, 1.0, 101)
    chain = build_gauge_chain(params, couplings, k=k)
    for om, sp in zip(couplings, chain.spectra):
        _check_against_dense(params, float(om), sp)
    for prev, cur in zip(chain.spectra, chain.spectra[1:]):
        assert np.all(np.einsum("dk,dk->k", prev.states.conj(), cur.states).real > 0)


def test_sector_gauge_chain_rejects_coarse_grids():
    params = ModelParams(n_fock=30)
    # the ground doublet changes beyond recognition in one step
    with pytest.raises(GaugeAlignmentError, match="too coarse"):
        build_gauge_chain(params, np.array([0.0, 3.0]), k=2)
    # a fourth level crosses into the lowest three between 0 and 1
    with pytest.raises(GaugeAlignmentError, match="left the lowest 3"):
        build_gauge_chain(params, np.linspace(0.0, 1.0, 101), k=3)


@pytest.mark.parametrize("omega_eg", [0.1, 0.0])
def test_sector_spectra_match_eigendecompose(omega_eg):
    params = ModelParams(n_fock=20, omega_eg=omega_eg)
    couplings = np.linspace(0.0, 1.0, 11)
    for om, sp in zip(couplings, sector_spectra(params, couplings, 4)):
        assert np.all(np.diff(sp.energies) >= 0.0)
        _check_against_dense(params, float(om), sp)


# --------------------------------------------------------------------------
# cat approximants
# --------------------------------------------------------------------------

def test_cat_pair_is_orthonormal():
    params = ModelParams()
    cat_g = cat_approximant(params, 1.0, "G")
    cat_e = cat_approximant(params, 1.0, "E")
    assert abs(cat_g.norm - 1.0) < 1e-12
    assert abs(cat_e.norm - 1.0) < 1e-12
    assert abs(cat_g.overlap(cat_e)) < 1e-12


def test_cat_matches_exact_doublet():
    params = ModelParams()
    spec = _spec(params, 1.0, k=2)
    f_g = abs(np.vdot(spec.states[:, 0], cat_approximant(params, 1.0, "G").amplitudes)) ** 2
    f_e = abs(np.vdot(spec.states[:, 1], cat_approximant(params, 1.0, "E").amplitudes)) ** 2
    assert abs(f_g - CAT_G_OVERLAP) < 1e-4
    assert abs(f_e - CAT_E_OVERLAP) < 1e-4
    assert f_g > 0.98 and f_e > 0.98


def test_cat_parity_sectors():
    params = ModelParams()
    p = parity_op(params.dims)
    cat_g = cat_approximant(params, 1.0, "G").amplitudes
    cat_e = cat_approximant(params, 1.0, "E").amplitudes
    assert abs(np.vdot(cat_g, p @ cat_g) + 1.0) < 1e-12
    assert abs(np.vdot(cat_e, p @ cat_e) - 1.0) < 1e-12


def test_cat_zero_coupling_limit():
    # alpha -> 0 collapses the cats onto the bare states
    params = ModelParams()
    cat_g0 = cat_approximant(params, 0.0, "G")
    assert abs(abs(cat_g0.overlap(basis_state(params.dims, 0, 0))) - 1.0) < 1e-12
    near = cat_approximant(params, 0.01, "G")
    assert abs(near.overlap(basis_state(params.dims, 0, 0))) > 0.9999


def test_cat_rejects_unknown_branch():
    with pytest.raises(ValueError):
        cat_approximant(ModelParams(), 1.0, "X")


# --------------------------------------------------------------------------
# observables
# --------------------------------------------------------------------------

def test_mean_photon_coherent_product():
    params = ModelParams()
    for alpha in (0.6, 1.0):
        fock = coherent_state(alpha, params.n_fock)
        psi = product_state(params.dims, np.array([1.0, 0.0]), fock)
        assert abs(mean_photon(psi) - alpha ** 2) < 1e-8


def test_mean_photon_ground_state():
    params = ModelParams()
    spec = _spec(params, 1.0, k=1)
    from uscmem import State

    psi = State(params.dims, spec.states[:, 0])
    assert abs(mean_photon(psi) - GROUND_PHOTON) < 1e-3
    vac = basis_state(params.dims, 0, 0)
    assert mean_photon(vac) < 1e-14
