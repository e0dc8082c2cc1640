"""Simulator for a cat-encoded quantum memory in the ultrastrong
qubit-resonator coupling regime.

A logical qubit alpha |g,0> + beta |e,0> is written into the degenerate
cat-like ground doublet of the quantum Rabi model by sweeping the coupling
up, held, and read back by the reverse sweep plus one phase correction.
The package covers the closed-system protocol, its dressed-basis open
dynamics, a two-cell entangled register computed from one cell's sweep,
and a CLI that emits the standard curves as CSV.
"""
from .hilbert import (
    HilbertDims,
    State,
    TruncationError,
    annihilation_op,
    basis_state,
    coherent_state,
    coherent_truncation_weight,
    creation_op,
    fock_annihilation,
    identity_op,
    infer_two_mode_fock,
    normalized,
    number_op,
    pauli_op,
    product_state,
    two_mode_index,
    two_mode_vacuum,
)
from .model import (
    CouplingSchedule,
    ModelParams,
    build_rabi,
    parity_op,
    retrieval_schedule,
    sector_eigh,
    storage_schedule,
)
from .spectral import (
    GaugeAlignmentError,
    GaugeChain,
    Spectrum,
    build_gauge_chain,
    cat_approximant,
    mean_photon,
    sector_spectra,
)
from .dynamics import (
    NormDriftError,
    PhaseLandscape,
    PropagatorConfig,
    RoundTrip,
    Trajectory,
    branch_phase_correction,
    corrected_fidelity,
    optimal_evolution_time,
    optimize_retrieval_phase,
    phase_landscape,
    physical_time,
    propagate,
    roundtrip_run,
    storage_input,
    storage_run,
)
from .lindblad import (
    MasterTrajectory,
    NoiseRates,
    PositivityError,
    corrected_fidelity_mixed,
    evolve_master,
    fidelity_mixed,
    flat_rate,
    ohmic_rate,
    optimize_retrieval_phase_mixed,
    pure_density,
    validate_density,
)
from .protocols import (
    EXPERIMENTS,
    ExperimentError,
    ExperimentSpec,
    ResultBundle,
    beam_splitter,
    run_experiment,
)

__version__ = "0.1.0"
