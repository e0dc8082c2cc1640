"""Tests of the benchmark's own code: span arithmetic, tracer completeness,
seeded inputs and the correctness gate."""
import sys
from itertools import islice
from pathlib import Path

import numpy.linalg
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import REFERENCE_INPUT, T_RANGE, WORKLOADS, cli_overrides, sample_inputs  # noqa: E402


def _span(name, parent, start, end, count=0, raised=False):
    return [name, parent, start, end, raised, count]


# root [0, 10] -> propagate [1, 7] -> eigh [2, 3], eigh [4, 6]
#              -> emit_csv [8, 9] (raised)
SYNTHETIC = [
    _span("protocols.run_experiment", -1, 0.0, 10.0),
    _span("dynamics.propagate", 0, 1.0, 7.0, count=4),
    _span("linalg.eigh", 1, 2.0, 3.0, count=8),
    _span("linalg.eigh", 1, 4.0, 6.0, count=8),
    _span("cli.emit_csv", 0, 8.0, 9.0, count=100, raised=True),
]


def test_self_times_subtract_direct_children():
    assert spans.self_times(SYNTHETIC) == [3.0, 3.0, 1.0, 2.0, 1.0]


def test_summary_closes_and_maps_to_layer_metrics():
    summary = spans.summarize(SYNTHETIC)
    assert summary["closure_err_s"] == 0.0
    metrics = spans.layer_metrics(summary)
    assert metrics["protocols.run_experiment.s"] == 10.0
    assert metrics["protocols.self_s"] == 3.0
    assert metrics["dynamics.propagate.s"] == 6.0
    assert metrics["dynamics.propagate.self_s"] == 3.0
    assert metrics["dynamics.steps"] == 4
    assert metrics["dynamics.eigh_per_step"] == 0.5
    assert metrics["linalg.eigh.calls"] == 2
    assert metrics["linalg.eigh.self_s"] == 3.0
    assert metrics["linalg.eigh.n3"] == 16
    assert metrics["cli.emit_csv.bytes"] == 100
    assert metrics["cli.errors"] == 1
    assert metrics["dynamics.errors"] == 0
    assert metrics["lindblad.eigh_per_step"] == 0.0


def test_nested_same_name_counts_inclusive_time_once():
    tree = [
        _span("protocols.run_experiment", -1, 0.0, 4.0),
        _span("protocols.two_cell_storage", 0, 0.0, 3.0),
        _span("protocols.two_cell_storage", 1, 1.0, 2.0),
    ]
    metrics = spans.layer_metrics(spans.summarize(tree))
    assert metrics["protocols.two_cell_storage.s"] == 3.0
    assert metrics["protocols.self_s"] == 4.0


def test_span_outside_its_parent_is_rejected():
    with pytest.raises(ValueError):
        spans.self_times([_span("a.f", -1, 0.0, 1.0), _span("a.g", 0, 0.5, 1.5)])


def test_tracer_rebinds_every_alias_and_restores_them():
    import uscmem
    from uscmem import cli, dynamics, lindblad, model, protocols, spectral

    original_rabi, original_run = model.build_rabi, protocols.run_experiment
    original_eigh = numpy.linalg.eigh
    tracer = spans.Tracer().install()
    try:
        wrapped = model.build_rabi
        assert wrapped is not original_rabi
        for module in (uscmem, dynamics, lindblad, spectral, protocols):
            assert module.build_rabi is wrapped
        assert cli.run_experiment is protocols.run_experiment is uscmem.run_experiment
        assert cli.run_experiment is not original_run
        assert numpy.linalg.eigh is not original_eigh
        spec = cli.build_spec(cli.RunConfig("convergence", {"n_fock": 4, "n_fock_alt": 5}))
        cli.run_experiment(spec)
    finally:
        tracer.uninstall()
    assert model.build_rabi is original_rabi and dynamics.build_rabi is original_rabi
    assert cli.run_experiment is original_run
    assert numpy.linalg.eigh is original_eigh

    summary = spans.summarize(tracer.spans)
    assert abs(summary["closure_err_s"]) < gate.CLOSURE_TOL_S
    assert summary["functions"]["protocols.run_experiment"]["calls"] == 1
    assert summary["functions"]["linalg.eigh"]["calls"] == 2
    assert summary["functions"]["model.build_rabi"]["calls"] == 2


def test_tracer_refuses_an_alias_it_cannot_rebind():
    import types

    from uscmem import model

    original = model.build_rabi
    probe = types.ModuleType("uscmem._alias_probe")
    exec("def hamiltonian(params, coupling, build=None):\n"
         "    return build(params, coupling)\n", probe.__dict__)
    probe.hamiltonian.__defaults__ = (original,)
    sys.modules[probe.__name__] = probe
    try:
        with pytest.raises(spans.IncompleteTraceError, match="_alias_probe"):
            spans.Tracer().install()
    finally:
        del sys.modules[probe.__name__]
    assert model.build_rabi is original


def test_inputs_are_seeded_and_normalized():
    first = list(islice(sample_inputs(7), 40))
    assert first == list(islice(sample_inputs(7), 40))
    assert first != list(islice(sample_inputs(8), 40))
    assert first[0] == REFERENCE_INPUT
    for alpha, beta, total_time in first:
        assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) < 1e-6
        assert T_RANGE[0] <= total_time <= T_RANGE[1]
    for alpha, beta, _ in islice(sample_inputs(7, equator=True), 40):
        assert abs(abs(alpha) - abs(beta)) < 1e-12


def test_inputs_pass_spec_validation():
    from uscmem import cli

    for workload in WORKLOADS.values():
        for inputs in islice(sample_inputs(3, workload.equator), 5):
            overrides = cli_overrides(workload, *inputs)
            spec = cli.build_spec(cli.RunConfig(workload.experiment, overrides))
            assert spec.validate() == []
            assert spec.cfg.dt == overrides["T"] / 2000


def _result(**scalars):
    hashes = {"roundtrip.csv": "ab12"}
    return {"scalars": scalars, "outputs": dict(hashes), "written": dict(hashes)}


def test_gate_accepts_frozen_values():
    assert gate.check_sample("roundtrip", _result(F_s_final=0.99961211), reference=True) == []
    assert gate.check_sample(
        "register", _result(storage_fidelity=0.999702, roundtrip_fidelity=0.999224), True) == []


def test_gate_rejects_perturbed_scalars():
    # within the acceptance threshold, but off the frozen reference value
    assert gate.check_sample("roundtrip", _result(F_s_final=0.99963), reference=True)
    assert gate.check_sample("roundtrip", _result(F_s_final=0.99963), reference=False) == []
    assert gate.check_sample("noisy", _result(F_s_final=0.98), reference=False)
    assert gate.check_sample("landscape", _result(ridge_min=0.989), reference=False)
    assert gate.check_sample("register", _result(storage_fidelity=0.999), reference=False)


def test_gate_rejects_mismatched_hashes():
    result = _result(F_s_final=0.995)
    result["written"] = {"roundtrip.csv": "cd34"}
    assert gate.check_sample("roundtrip", result, reference=False)
    assert gate.check_pair(_result(), _result()) == []
    other = _result()
    other["outputs"] = {"roundtrip.csv": "cd34"}
    assert gate.check_pair(_result(), other)


def test_gate_rejects_unclosed_spans():
    result = _result(F_s_final=0.995)
    result["trace"] = {"closure_err_s": 1e-3}
    assert gate.check_sample("roundtrip", result, reference=False)
