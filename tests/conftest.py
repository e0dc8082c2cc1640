"""Shared fixtures. The expensive protocol runs are session-scoped so the
behavioral tests and the acceptance suite reuse the same trajectories."""
import numpy as np
import pytest

from uscmem import (
    ExperimentSpec,
    ModelParams,
    NoiseRates,
    PropagatorConfig,
    evolve_master,
    phase_landscape,
    pure_density,
    roundtrip_run,
    run_experiment,
    storage_input,
    storage_schedule,
)

RSQRT2 = 2 ** -0.5

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Accumulates one pass/fail line per acceptance criterion."""
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def params30():
    return ModelParams()


@pytest.fixture(scope="session")
def roundtrip_105(params30):
    return roundtrip_run(params30, 105.0)


@pytest.fixture(scope="session")
def roundtrip_120(params30):
    return roundtrip_run(params30, 120.0)


@pytest.fixture(scope="session")
def landscape_105(params30):
    sched = storage_schedule(params30, 105.0)
    cfg = PropagatorConfig.for_total_time(105.0)
    return phase_landscape(params30, RSQRT2, RSQRT2, sched, cfg, theta_points=64)


@pytest.fixture(scope="session")
def landscape_120(params30):
    sched = storage_schedule(params30, 120.0)
    cfg = PropagatorConfig.for_total_time(120.0)
    return phase_landscape(params30, RSQRT2, RSQRT2, sched, cfg, theta_points=64)


@pytest.fixture(scope="session")
def noisy_legs():
    """Open-system write-then-read legs at the reference noise point."""
    params = ModelParams(n_fock=20)
    rates = NoiseRates.for_qubit_splitting(params.omega_eg)
    cfg = PropagatorConfig.for_total_time(105.0)
    psi_s = storage_input(params)
    leg_in = evolve_master(
        params, storage_schedule(params, 105.0), pure_density(psi_s), rates, cfg
    )
    leg_out = evolve_master(
        params, storage_schedule(params, 105.0).reversed(), leg_in.final, rates, cfg
    )
    return params, psi_s, leg_in, leg_out


@pytest.fixture(scope="session")
def entangled_105():
    """The two-cell register experiment at the default protocol point."""
    params = ModelParams(n_fock=15)
    return run_experiment(ExperimentSpec(
        "entangled", params, storage_schedule(params, 105.0),
        PropagatorConfig.for_total_time(105.0),
    ))
