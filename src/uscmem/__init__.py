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
    State,
    TruncationError,
    coherent_state,
    coherent_truncation_weight,
    fock_annihilation,
)
from .model import (
    CouplingSchedule,
    ModelParams,
    build_rabi,
    sector_eigh,
    storage_schedule,
)
from .spectral import (
    Spectrum,
    build_gauge_chain,
    cat_approximant,
    sector_spectra,
)
from .dynamics import (
    NormDriftError,
    PhaseLandscape,
    PropagatorConfig,
    RoundTrip,
    Trajectory,
    branch_block,
    phase_landscape,
    physical_time,
    propagate,
    readout,
    roundtrip,
    storage_input,
)
from .lindblad import (
    MasterTrajectory,
    NoiseRates,
    PositivityError,
    RATE_MODELS,
    evolve_master,
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
