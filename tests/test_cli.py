"""Config parsing, CSV emission, manifest hashing, and exit codes."""
import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from uscmem import ModelParams, PropagatorConfig, run_experiment, storage_schedule
from uscmem.cli import (
    _CHUNK,
    _KEYS,
    ConfigError,
    RunConfig,
    _file_sha256,
    _format_17g,
    build_spec,
    emit_csv,
    main,
    parse_config,
    parse_set_flags,
    write_manifest,
)
from uscmem.dynamics import LANDSCAPE_BLOCK, step_count
from uscmem.model import CouplingSchedule
from uscmem.protocols import EXPERIMENTS, ExperimentSpec

GOOD_CONFIG = """\
# reference point, coarse sampling
T = 12            # sweep duration
n_fock = 12
alpha_f = 0.6
beta_f = 0.8j
theta = optimize
record_every = 50
dt = 0.024
"""


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

def test_parse_config_values_and_types():
    ov = parse_config(GOOD_CONFIG)
    assert ov["T"] == 12.0
    assert ov["n_fock"] == 12 and isinstance(ov["n_fock"], int)
    assert ov["alpha_f"] == 0.6 + 0j
    assert ov["beta_f"] == 0.8j
    assert ov["theta"] is None          # "optimize" means closed-form choice
    assert ov["record_every"] == 50


def test_parse_config_collects_all_violations():
    bad = "n_fock = one\nbogus_key = 3\nT = -5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    messages = err.value.violations
    assert len(messages) == 2
    assert any("line 1" in m and "n_fock" in m for m in messages)
    assert any("line 2" in m and "bogus_key" in m for m in messages)
    # T = -5 parses; its range is the schedule's, checked once the spec is built
    with pytest.raises(ConfigError) as err:
        build_spec(RunConfig("storage", parse_config("T = -5\n")))
    assert err.value.violations == [
        "T = -5.0: total_time must be finite and > 0, got -5.0"]


def test_parse_config_rejects_free_text():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just words\n")


def test_a_repeated_key_names_both_places(tmp_path, capsys):
    # a key given twice in one document, or twice among the flags, is an
    # error, not silently its last value; --set over the file is no repeat
    with pytest.raises(ConfigError) as err:
        parse_config("T = 10\n# the same key again\n\nT = 20\n")
    assert err.value.violations == ["line 4: T repeats line 1"]
    with pytest.raises(ConfigError) as err:
        parse_set_flags(["T=10", "dt=0.1", "T=20"])
    assert err.value.violations == ["--set 'T=20': T repeats --set 'T=10'"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_fock = 12\nn_fock = 14\n")
    assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
    assert "config error: line 2: n_fock repeats line 1" in capsys.readouterr().err
    cfg.write_text("n_fock = 12\n")
    assert main(["convergence", "--config", str(cfg), "--set", "n_fock=14",
                 "--out", str(tmp_path / "b")]) == 0


def test_parse_set_flags():
    ov = parse_set_flags(["T=30", "rate_model=ohmic", "theta=1.5"])
    assert ov == {"T": 30.0, "rate_model": "ohmic", "theta": 1.5}
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        parse_set_flags(["T:30"])
    # rate_model is text to the parser; the spec holds its choices
    linear = parse_set_flags(["rate_model=linear"])
    with pytest.raises(ConfigError, match="rate_model = 'linear'.*one of"):
        build_spec(RunConfig("noisy", linear))


def test_build_spec_defaults():
    spec = build_spec(RunConfig(experiment="roundtrip"))
    assert spec.params.n_fock == 30
    assert spec.schedule.total_time == 105.0
    assert spec.cfg.dt == pytest.approx(105.0 / 2000)
    assert spec.noise is None
    noisy = build_spec(RunConfig(experiment="noisy"))
    assert noisy.params.n_fock == 20
    assert noisy.noise is not None
    assert noisy.noise.gamma_x == pytest.approx(1e-4)
    assert noisy.noise.gamma_r == pytest.approx(1e-5)
    entangled = build_spec(RunConfig(experiment="entangled"))
    assert entangled.params.n_fock == 15


def test_spec_hash_is_pinned():
    # manifests from earlier runs stay comparable: identical inputs keep
    # their hash across refactors of the spec's plain-data view
    cases = [
        (RunConfig("roundtrip"),
         "66610fcd5c250639ef95ec4b2cffdd072228e4ebbfa23610e657f24a41fd2428"),
        (RunConfig("noisy"),
         "7dc5c7b93f9493e84e6380119e4c1259089cd469e6c7235fd690778282f3e07f"),
        (RunConfig("entangled"),
         "fdca5ec4b3f09fe0a075e47cb96a79527a5956c081216770b5a89bd226a9bee0"),
        (RunConfig("retrieval", {"omega_start": 0.3, "alpha_f": 0.6,
                                 "beta_f": 0.8j, "theta": 1.25}),
         "b9ca181915edbba73e7cabf513d24a33a00a72ad1302c7ca1ee15f4bdba6e3f7"),
    ]
    for run, expected in cases:
        assert build_spec(run).spec_hash == expected, run.experiment


# a valid non-default value for every config key an experiment may not read;
# the qubit is unnormalized, which only an experiment reading it may reject
_OVERRIDES = {
    "T": 24.0, "dt": 0.032, "record_every": 25, "omega_start": 0.2,
    "alpha_f": 1.0, "beta_f": 1.0, "theta": 1.0, "theta_points": 40,
    "gamma_x": 2e-4, "gamma_y": 3e-4, "gamma_z": 4e-4, "gamma_r": 5e-4,
    "k_levels": 3, "refresh_every": 7, "rate_model": "ohmic", "omega_points": 7,
    "n_fock_alt": 14,
}

_SWEEP = {"T", "dt", "record_every", "omega_start"}
_QUBIT = {"alpha_f", "beta_f"}

# the keys of _OVERRIDES each experiment reads
_READS = {
    "spectrum": {"omega_points"},
    "storage": _SWEEP | _QUBIT,
    "retrieval": _SWEEP | _QUBIT | {"theta"},
    "roundtrip": _SWEEP | _QUBIT | {"theta"},
    "phase-map": _SWEEP | _QUBIT | {"theta_points"},
    "noisy": _SWEEP | _QUBIT | {"theta", "gamma_x", "gamma_y", "gamma_z", "gamma_r",
                                "k_levels", "refresh_every", "rate_model"},
    "entangled": _SWEEP,
    "convergence": {"n_fock_alt"},
}


def test_build_spec_ignored_inputs_keep_the_hash():
    # setting inputs an experiment never reads changes neither hash nor result
    small = {"n_fock": 12, "T": 20.0, "dt": 0.04}
    assert set(_READS) == set(EXPERIMENTS)
    for experiment, reads in _READS.items():
        ignored = {k: v for k, v in _OVERRIDES.items() if k not in reads}
        plain = build_spec(RunConfig(experiment, small))
        other = build_spec(RunConfig(experiment, {**small, **ignored}))
        assert other.spec_hash == plain.spec_hash, experiment
        assert run_experiment(other).scalars == run_experiment(plain).scalars, experiment
        # and every input it reads still splits the hash
        for key in reads:
            read = {"alpha_f": 1.0, "beta_f": 0.0} if key in _QUBIT else {key: _OVERRIDES[key]}
            changed = build_spec(RunConfig(experiment, {**small, **read}))
            assert changed.spec_hash != plain.spec_hash, (experiment, key)
    # a spec built without build_spec: entangled stores the shared
    # excitation whatever amplitudes it is given
    params = ModelParams(n_fock=12)
    plain = ExperimentSpec("entangled", params, storage_schedule(params, 20.0),
                           PropagatorConfig(dt=0.04))
    other = replace(plain, alpha_f=1, beta_f=0)
    assert other.spec_hash == plain.spec_hash
    assert run_experiment(other).scalars == run_experiment(plain).scalars


def test_build_spec_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment 'teleport'"):
        build_spec(RunConfig("teleport"))


def test_sweepless_experiments_ignore_sweep_inputs():
    # spectrum and convergence take no sweep: its duration, step, recording
    # and start coupling neither split their hash nor hit the dt floor
    defaults = {
        "spectrum": "8b97b5bc14be42e2fcb40ba03e8b8813958dc1964e3700bd2b5ed1b23accfc2e",
        "convergence": "32e80bc775aef91dbeb69c3f48a6bddebf35a920f89b0750c2aa98625075aa59",
    }
    for experiment, expected in defaults.items():
        assert build_spec(RunConfig(experiment)).spec_hash == expected
        for ov in ({"T": 20.0, "record_every": 3}, {"omega_start": 0.3}, {"dt": 1.0}):
            assert build_spec(RunConfig(experiment, ov)).spec_hash == expected, (experiment, ov)


def test_build_spec_rejects_coarse_sweep_step():
    run = RunConfig(experiment="storage", overrides={"T": 10.0, "dt": 0.5})
    with pytest.raises(ConfigError, match="dt"):
        build_spec(run)
    # the floor is the propagator's: round(T / dt) steps, at least 500
    total_time = 105.0
    spec = build_spec(RunConfig("storage", {"T": total_time, "dt": total_time / 499.8}))
    assert step_count(spec.schedule, spec.cfg) == 500
    with pytest.raises(ConfigError, match="499 steps"):
        build_spec(RunConfig("storage", {"T": total_time, "dt": total_time / 499.4}))


def test_build_spec_noise_overrides_attach():
    run = RunConfig(experiment="noisy", overrides={"gamma_x": 0.5})
    spec = build_spec(run)
    assert spec.noise.gamma_x == 0.5
    # untouched channels keep the splitting-scaled defaults
    assert spec.noise.gamma_y == pytest.approx(1e-4)


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

def _small_bundle(name="storage", **kw):
    params = ModelParams(n_fock=12)
    spec = ExperimentSpec(
        name=name,
        params=params,
        schedule=storage_schedule(params, 12.0),
        cfg=PropagatorConfig.for_total_time(12.0, steps=500, record_every=50),
        **kw,
    )
    return run_experiment(spec), spec


def test_emit_csv_storage_schema(tmp_path):
    bundle, _ = _small_bundle()
    paths = emit_csv(bundle, tmp_path)
    assert [p.name for p in paths] == ["storage.csv"]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "t,omega,F_s,F_G,F_E"
    assert len(lines) == 1 + 11
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)


def test_emit_csv_uses_lf_and_full_precision(tmp_path):
    bundle, _ = _small_bundle()
    (path,) = emit_csv(bundle, tmp_path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    # %.17g survives a float round trip bit for bit
    rows = np.array(
        [[float(x) for x in line.split(",")]
         for line in path.read_text().splitlines()[1:]]
    )
    curve = bundle.curves["storage"]
    for j, key in enumerate(curve):
        assert np.array_equal(rows[:, j], np.asarray(curve[key], dtype=float))


def test_emit_csv_is_reproducible(tmp_path):
    bundle, _ = _small_bundle()
    (a,) = emit_csv(bundle, tmp_path / "one")
    (b,) = emit_csv(bundle, tmp_path / "two")
    assert a.read_bytes() == b.read_bytes()


def test_emit_csv_landscape_long_form(tmp_path):
    bundle, _ = _small_bundle(name="phase-map", theta_points=32)
    paths = emit_csv(bundle, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["landscape.csv", "landscape_theta_opt.csv"]
    land = bundle.landscapes["landscape"]
    body = (tmp_path / "landscape.csv").read_text().splitlines()
    assert body[0] == "omega,theta,fidelity"
    assert len(body) == 1 + len(land.coupling_grid) * 32
    ridge = (tmp_path / "landscape_theta_opt.csv").read_text().splitlines()
    assert ridge[0] == "omega,theta_opt"
    assert len(ridge) == 1 + len(land.coupling_grid)


def _per_value_csv(bundle) -> dict[str, bytes]:
    """The bytes of every file of a bundle, one f"{x:.17g}" per value."""
    files = {}
    for name, columns in bundle.curves.items():
        arrays = [np.asarray(c, dtype=np.float64) for c in columns.values()]
        lines = [",".join(columns)] + [
            ",".join(f"{a[i]:.17g}" for a in arrays) for i in range(len(arrays[0]))]
        files[f"{name}.csv"] = "".join(line + "\n" for line in lines).encode()
    for name, land in bundle.landscapes.items():
        fidelity = land.rows()
        lines = ["omega,theta,fidelity"] + [
            f"{om:.17g},{th:.17g},{fidelity[i, j]:.17g}"
            for i, om in enumerate(land.coupling_grid)
            for j, th in enumerate(land.theta_grid)]
        files[f"{name}.csv"] = "".join(line + "\n" for line in lines).encode()
        lines = ["omega,theta_opt"] + [
            f"{om:.17g},{th:.17g}" for om, th in zip(land.coupling_grid, land.theta_opt)]
        files[f"{name}_theta_opt.csv"] = "".join(line + "\n" for line in lines).encode()
    return files


def _amplitudes(rng, n: int) -> np.ndarray:
    """n random doublet amplitudes (n, 2) of norm 10**-2 to 1, a few of
    them 0, so the fidelities span four decades and hold exact 0s; the
    first row is (1, 1) / sqrt(2), which peaks at fidelity 1 when
    alpha_f = beta_f."""
    c = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    c *= (10.0 ** rng.uniform(-2, 0, n) / np.linalg.norm(c, axis=1))[:, None]
    c[rng.random(n) < 0.05] = 0.0
    c[0] = 2 ** -0.5
    return c


def test_emit_csv_matches_per_value_formatting(tmp_path):
    from uscmem import PhaseLandscape
    from uscmem.protocols import ResultBundle

    rng = np.random.default_rng(5)
    awkward = np.array([-0.0, 5e-324, 1e300, 1 / 3, 2.0, -7.0, np.inf, 0.1])
    land = PhaseLandscape(
        times=np.arange(4.0),
        coupling_grid=np.array([0.0, 1 / 3, 1e300, 7.0]),
        theta_grid=np.array([0.0, 5e-324, -0.0, np.pi, 2.0]),
        amplitudes=_amplitudes(rng, 4), alpha_f=2 ** -0.5, beta_f=2 ** -0.5,
        theta_opt=np.array([np.inf, -0.0, 1 / 3, 3.0]),
        ridge=np.zeros(4),
    )
    # several blocks of rows, each several kernel passes, plus a partial
    # block that ends in a partial pass
    n_theta = 48
    n_omega = 2 * (LANDSCAPE_BLOCK // n_theta) + 7
    ridge = PhaseLandscape(
        times=np.arange(float(n_omega)),
        coupling_grid=np.linspace(0.0, 1.0, n_omega),
        theta_grid=np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False),
        amplitudes=_amplitudes(rng, n_omega), alpha_f=0.6, beta_f=0.8j,
        theta_opt=rng.uniform(0.0, 2 * np.pi, n_omega),
        ridge=np.zeros(n_omega),
    )
    bundle = ResultBundle(
        curves={"probe": {"x": awkward, "n": np.arange(8), "y": awkward[::-1]}},
        landscapes={"landscape": land, "ridge": ridge},
    )
    paths = emit_csv(bundle, tmp_path)
    expected = _per_value_csv(bundle)
    assert sorted(p.name for p in paths) == sorted(expected)
    for path in paths:
        assert path.read_bytes() == expected[path.name], path.name


def _mismatches(values) -> list:
    values = np.asarray(values, dtype=np.float64).ravel()
    got = _format_17g(values)
    assert len(got) == values.size
    return [(x, g) for x, g in zip(values.tolist(), got) if g != b"%.17g" % x]


def _tie_values(rng, per_class: int) -> np.ndarray:
    """x = k * 2**-(p + 1) with k odd: x * 10**p = k * 5**p / 2 ends in
    exactly one half. p runs over every scale whose 17-digit integer
    k * 5**p / 2 lies in [1e16, 1e17) with k a double's significand."""
    ties = []
    for p in range(1, 23):
        lo, hi = -(-2 * 10**16 // 5**p), min(2 * 10**17 // 5**p, 2**53)
        k = 2 * rng.integers(lo // 2, hi // 2, per_class) + 1
        ties.append(k * 2.0 ** -(p + 1))
    return np.concatenate(ties)


def test_format_17g_matches_cpython():
    rng = np.random.default_rng(17)
    powers = 10.0 ** np.arange(-5, 18)
    fallback = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e-5, 9.9999999999999995e-05, 1e16, 1e308, -0.5, -1.0,
                         np.inf, -np.inf, np.nan, -np.nan])
    values = np.concatenate([
        rng.random(300_000),
        10.0 ** rng.uniform(-8, 18, 300_000),
        rng.choice([-1.0, 1.0], 150_000) * np.exp(rng.uniform(-745, 709, 150_000)),
        rng.integers(0, 2**64, 150_000, dtype=np.uint64).view(np.float64),
        _tie_values(rng, 5000),
        # the next decade's first value and the values just below it
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.array([0.099999999999999999, 0.09999999999999999, 9.999999999999999e-05]),
        np.arange(100_000.0),
        fallback,
    ])
    assert values.size >= 10**6 and values.size % _CHUNK
    assert _mismatches(values) == []


@pytest.mark.parametrize("size", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_format_17g_takes_any_length(size):
    rng = np.random.default_rng(size)
    values = rng.random(size)
    values[::7] *= -1e-6  # negative and tiny: the per-value path
    assert _mismatches(values) == []


def test_emit_csv_memory_stays_small(tmp_path):
    from uscmem import PhaseLandscape
    from uscmem.protocols import ResultBundle

    rng = np.random.default_rng(3)
    land = PhaseLandscape(
        times=np.arange(2001.0),
        coupling_grid=np.linspace(0.0, 1.0, 2001),
        theta_grid=np.linspace(0.0, 2 * np.pi, 256, endpoint=False),
        amplitudes=_amplitudes(rng, 2001), alpha_f=2 ** -0.5, beta_f=2 ** -0.5,
        theta_opt=rng.uniform(0.0, 2 * np.pi, 2001),
        ridge=np.zeros(2001),
    )
    bundle = ResultBundle(landscapes={"landscape": land})
    tracemalloc.start()
    try:
        emit_csv(bundle, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows are built and formatted a block at a time, never all at once
    assert peak < len(land.times) * len(land.theta_grid) * 8 / 4, peak


def _landscape_bundle(**changes):
    from uscmem import PhaseLandscape
    from uscmem.protocols import ResultBundle

    fields = dict(times=np.arange(3.0), coupling_grid=np.array([0.0, 0.5, 1.0]),
                  theta_grid=np.array([0.0, 1.0]), amplitudes=np.full((3, 2), 0.5),
                  alpha_f=1.0, beta_f=0.0, theta_opt=np.array([0.0, 1.0, 0.0]),
                  ridge=np.full(3, 0.25))
    fields.update(changes)
    return ResultBundle(landscapes={"landscape": PhaseLandscape(**fields)})


@pytest.mark.parametrize("changes", [
    {"amplitudes": np.full((2, 2), 0.5)},     # fewer rows than couplings
    {"amplitudes": np.full((4, 2), 0.5)},     # more rows than couplings
    {"amplitudes": np.full((3, 3), 0.5)},     # three amplitudes per sample
    {"amplitudes": np.full(6, 0.5)},          # flat
    {"theta_grid": np.array([])},             # no phase
    {"theta_opt": np.array([0.0, 1.0])},      # short theta_opt
    {"theta_opt": np.zeros(4)},               # long theta_opt
    {"theta_grid": np.zeros((2, 1))},         # a 2-d phase grid
    {"times": np.arange(2.0)},                # short times
    {"ridge": np.zeros(4)},                   # long ridge
])
def test_emit_csv_rejects_a_landscape_whose_shapes_disagree(tmp_path, changes):
    # the landscape refuses them at construction, so emit_csv never gets one
    assert len(emit_csv(_landscape_bundle(), tmp_path)) == 2
    with pytest.raises(ValueError, match=r"landscape \w+ has shape"):
        _landscape_bundle(**changes)


def test_manifest_contents(tmp_path):
    bundle, spec = _small_bundle()
    paths = emit_csv(bundle, tmp_path)
    manifest_path = write_manifest(bundle, spec, paths, tmp_path)
    doc = json.loads(manifest_path.read_text())
    assert doc["experiment"] == "storage"
    assert doc["spec_hash"] == spec.spec_hash
    assert doc["parameters"]["params"]["n_fock"] == 12
    assert doc["parameters"]["schedule"]["total_time"] == 12.0
    assert set(doc["outputs"]) == {"storage.csv"}
    digest = hashlib.sha256((tmp_path / "storage.csv").read_bytes()).hexdigest()
    assert doc["outputs"]["storage.csv"] == digest
    assert doc["scalars"]["F_s_final"] == bundle.scalars["F_s_final"]
    # the name and hash come from the spec written with, never from the
    # bundle, so the hash always matches the recorded parameters
    other = replace(spec, name="retrieval", params=ModelParams(n_fock=14))
    doc = json.loads(write_manifest(bundle, other, paths, tmp_path).read_text())
    assert doc["experiment"] == "retrieval"
    assert doc["spec_hash"] == other.spec_hash
    blob = json.dumps(doc["parameters"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == doc["spec_hash"]


@pytest.mark.parametrize("size", [0, 1000, 3 * (1 << 20) + 17])
def test_manifest_digest_is_streamed_in_chunks(tmp_path, size):
    # empty, under one chunk, and spanning several 64 KiB chunks
    path = tmp_path / "blob.csv"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert _file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_memory_does_not_grow_with_output_size(tmp_path):
    bundle, spec = _small_bundle()
    big = tmp_path / "big.csv"
    big.write_bytes(b"0.12345678901234567,1\n" * (8 * (1 << 20) // 22))
    tracemalloc.start()
    try:
        write_manifest(bundle, spec, [big], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (1 << 20), peak


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path / "out")])


def test_main_storage_roundtrip_success(tmp_path, capsys):
    code = _run(
        tmp_path, "roundtrip",
        "--set", "n_fock=12", "--set", "T=12", "--set", "dt=0.024",
        "--set", "record_every=50",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "spec_hash=" in out
    assert "F_s_final=" in out
    assert "wrote 3 files" in out
    out_dir = tmp_path / "out"
    assert (out_dir / "storage.csv").is_file()
    assert (out_dir / "retrieval.csv").is_file()
    doc = json.loads((out_dir / "manifest.json").read_text())
    for name, digest in doc["outputs"].items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest


def test_main_config_file_with_set_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(GOOD_CONFIG)
    code = main([
        "storage", "--config", str(cfg),
        "--set", "alpha_f=1.0", "--set", "beta_f=0.0",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    lines = (tmp_path / "out" / "storage.csv").read_text().splitlines()
    # the --set pair overrides the config file: pure ground-branch input
    assert float(lines[1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)


def test_main_noisy_ohmic_success(tmp_path, capsys):
    code = _run(
        tmp_path, "noisy",
        "--set", "n_fock=6", "--set", "T=20", "--set", "dt=0.04",
        "--set", "record_every=50", "--set", "rate_model=ohmic",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "theta_opt=" in out
    lines = (tmp_path / "out" / "noisy.csv").read_text().splitlines()
    assert lines[0] == "t,omega,F_s"
    # storage and retrieval legs concatenate without a duplicate seam row
    assert len(lines) == 1 + (11 + 10)


def test_main_prints_scalars_to_six_significant_digits(tmp_path, capsys):
    # at n_fock 20 the sweep carries 24 of the 40 dressed levels and loses
    # about 2e-10 of trace, which six decimal places would print as 0
    code = _run(tmp_path, "noisy", "--set", "T=20", "--set", "dt=0.04")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    (lost,) = [line for line in lines if line.startswith("trace_lost=")]
    assert float(lost.partition("=")[2]) > 0


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_main_reruns_are_byte_identical(tmp_path, experiment):
    # n_fock = 12 is the smallest cell on which every experiment passes the
    # coherent-state truncation guard
    args = [experiment, "--set", "n_fock=12", "--set", "T=12"]
    for run in ("a", "b"):
        assert main([*args, "--out", str(tmp_path / run)]) == 0
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert "manifest.json" in names and len(names) > 1
    assert sorted(path.name for path in (tmp_path / "b").iterdir()) == names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # every written value is a finite float: no NaN reaches a CSV, and no
    # scalar reaches the manifest as a NaN token
    for path in (tmp_path / "a").glob("*.csv"):
        _, *rows = path.read_text().splitlines()
        cells = [float(cell) for row in rows for cell in row.split(",")]
        assert cells and all(np.isfinite(cells)), path.name
    scalars = json.loads((tmp_path / "a" / "manifest.json").read_text())["scalars"]
    assert scalars
    for key, value in scalars.items():
        assert isinstance(value, float) and np.isfinite(value), key


@pytest.mark.parametrize("experiment", ["storage", "roundtrip", "phase-map"])
def test_main_accepts_coarse_record_grids(tmp_path, experiment):
    # 500 steps recorded every 500: only the two ends of a sweep are kept.
    # The ground doublet at each is fixed on its own, so this is no error
    code = _run(
        tmp_path, experiment,
        "--set", "n_fock=12", "--set", "T=20", "--set", "dt=0.04",
        "--set", "record_every=500",
    )
    assert code == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_main_entangled_success(tmp_path, capsys):
    code = _run(
        tmp_path, "entangled",
        "--set", "n_fock=6", "--set", "T=12", "--set", "dt=0.024",
        "--set", "record_every=50",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "storage_fidelity=" in out and "roundtrip_fidelity=" in out
    out_dir = tmp_path / "out"
    for name in ("entangled_storage.csv", "entangled_retrieval.csv"):
        lines = (out_dir / name).read_text().splitlines()
        assert lines[0] == "t,omega,F_s"


def test_main_usage_errors(capsys):
    assert main([]) == 1
    assert main(["teleport"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_main_validation_errors(tmp_path, capsys):
    assert _run(tmp_path, "storage", "--set", "n_fock=one") == 1
    assert _run(tmp_path, "storage", "--set", "frobnicate=1") == 1
    assert _run(tmp_path, "storage", "--set", "T=10", "--set", "dt=0.5") == 1
    err = capsys.readouterr().err
    assert "config error" in err


def test_main_rejects_k_levels_beyond_the_cell(tmp_path, capsys):
    # n_fock = 20 gives a 40-level cell; caught as config, not at run time
    code = _run(tmp_path, "noisy", "--set", "k_levels=100", "--set", "alpha_f=1")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "k_levels = 100 exceeds" in err and "alpha_f" in err
    assert not (tmp_path / "out").exists()


# an out-of-range value for every config key with a range, and an
# experiment that reads the key, then one that does not where one exists
_OUT_OF_RANGE = [
    ("omega_cav", "0", ["storage"]),
    ("omega_eg", "-0.1", ["storage"]),
    ("omega0", "-1", ["spectrum"]),
    ("omega_start", "-0.1", ["storage", "spectrum"]),
    ("n_fock", "1", ["convergence"]),
    ("n_fock_alt", "1", ["convergence", "roundtrip"]),
    ("T", "-5", ["storage", "spectrum"]),
    ("dt", "0", ["storage", "spectrum"]),
    ("record_every", "0", ["storage", "convergence"]),
    ("theta_points", "8", ["phase-map", "roundtrip"]),
    ("gamma_x", "-1e-4", ["noisy", "roundtrip"]),
    ("gamma_y", "-1e-4", ["noisy", "roundtrip"]),
    ("gamma_z", "-1e-4", ["noisy", "roundtrip"]),
    ("gamma_r", "-1e-4", ["noisy", "roundtrip"]),
    ("rate_model", "linear", ["noisy", "roundtrip"]),
    ("k_levels", "1", ["noisy", "roundtrip"]),
    ("refresh_every", "0", ["noisy", "roundtrip"]),
    ("omega_points", "1", ["spectrum", "roundtrip"]),
    ("verbosity", "-1", ["storage"]),
]


def test_out_of_range_walk_covers_every_ranged_key():
    assert {key for key, _, _ in _OUT_OF_RANGE} == set(_KEYS) - {"alpha_f", "beta_f", "theta"}


@pytest.mark.parametrize("key, raw, experiments", _OUT_OF_RANGE)
def test_main_rejects_every_out_of_range_key(tmp_path, capsys, key, raw, experiments):
    # whether the experiment reads the key or drops it, its owner's rule holds
    for experiment in experiments:
        assert _run(tmp_path, experiment, "--set", f"{key}={raw}") == 1, experiment
        err = capsys.readouterr().err
        assert f"config error: {key} " in err, (experiment, err)
    assert not (tmp_path / "out").exists()


def test_main_rejects_a_step_count_that_overflows(tmp_path, capsys):
    # T / dt is inf: a config error naming dt, not an OverflowError
    assert _run(tmp_path, "storage", "--set", "dt=1e-320") == 1
    err = capsys.readouterr().err
    assert "config error: dt = 1e-320" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="dt = 1e-320"):
        step_count(CouplingSchedule(0.0, 1.0, 105.0), PropagatorConfig(dt=1e-320))


@pytest.mark.parametrize("experiment, pair", [
    ("storage", "alpha_f=nan"),
    ("noisy", "T=inf"),
    ("spectrum", "omega0=inf"),
    ("noisy", "gamma_x=inf"),
])
def test_main_rejects_non_finite_values(tmp_path, capsys, experiment, pair):
    # nan passes every range check, and an infinite value overflows the step
    # count or breaks the eigensolver; either is a config error naming its key
    code = _run(tmp_path, experiment, "--set", "n_fock=12", "--set", "T=20",
                "--set", "dt=0.04", "--set", pair)
    assert code == 1
    err = capsys.readouterr().err
    key, _, raw = pair.partition("=")
    assert "config error" in err and f"{key} = {raw!r} is not a valid" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment", ["storage", "retrieval", "roundtrip", "phase-map", "noisy", "entangled"])
def test_main_sweeps_reject_splitting_at_or_above_the_cavity(tmp_path, capsys, experiment):
    # from omega_eg = omega_cav up, |e,0> is not the ground state of its
    # parity chain, so a sweep would write into the wrong doublet
    for omega_eg in ("1.5", "1.0"):
        code = _run(tmp_path, experiment, "--set", "n_fock=12", "--set", "T=20",
                    "--set", "dt=0.04", "--set", f"omega_eg={omega_eg}")
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"omega_eg = {omega_eg}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["spectrum", "convergence"])
def test_main_sweepless_experiments_drop_qubit_and_allow_any_splitting(tmp_path, experiment):
    # neither stores a qubit nor sweeps: an unnormalized qubit is dropped as
    # unread, and their spectra hold at any splitting
    for extra in (["alpha_f=1", "beta_f=1"], ["omega_eg=1.5"]):
        flags = [arg for pair in ["n_fock=12", *extra] for arg in ("--set", pair)]
        assert _run(tmp_path, experiment, *flags) == 0, extra


def test_main_missing_config_file(tmp_path, capsys):
    assert main(["storage", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "not found" in capsys.readouterr().err
    # a directory exists but cannot be read as a config file
    assert _run(tmp_path, "convergence", "--config", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {tmp_path}: ")
    assert not (tmp_path / "out").exists()


def test_main_undecodable_config_file(tmp_path, capsys):
    # a UTF-16 byte-order mark is no UTF-8: a config error, not a traceback
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe")
    assert _run(tmp_path, "convergence", "--config", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {bad}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_main_verbosity_zero_prints_nothing(tmp_path, capsys):
    code = _run(tmp_path, "storage", "--set", "n_fock=12", "--set", "T=12",
                "--set", "dt=0.024", "--set", "verbosity=0")
    assert code == 0
    assert capsys.readouterr().out == ""
    names = sorted(path.name for path in (tmp_path / "out").iterdir())
    assert names == ["manifest.json", "storage.csv"]


def test_main_runtime_failure_exit_code(tmp_path, capsys):
    # absurdly strong qubit noise makes the first-order dissipator step
    # overshoot into a non-positive density matrix: a runtime failure (2),
    # not a usage failure (1)
    code = _run(
        tmp_path, "noisy",
        "--set", "n_fock=6", "--set", "T=20", "--set", "dt=0.04",
        "--set", "record_every=1", "--set", "gamma_x=50",
    )
    assert code == 2
    assert "runtime error" in capsys.readouterr().err
