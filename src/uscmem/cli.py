"""Command-line runner: config parsing, CSV emission, run manifests.

Config documents are flat ``key = value`` text; ``#`` starts a comment and
blank lines are ignored. Every key is optional and ``--set key=value``
flags override the file. Numbers in emitted CSV files carry 17 significant
digits so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dynamics import PropagatorConfig, step_count
from .lindblad import RATE_MODELS, NoiseRates
from .model import ModelParams, storage_schedule
from .protocols import EXPERIMENTS, ExperimentSpec, ResultBundle, run_experiment


class ConfigError(ValueError):
    """One or more invalid configuration entries; lists every violation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class _UsageError(Exception):
    pass


# key -> (converter name, predicate, requirement text)
_KEYS = {
    "omega_cav": ("float", lambda v: v > 0, "> 0"),
    "omega_eg": ("float", lambda v: v >= 0, ">= 0"),
    "omega0": ("float", lambda v: v >= 0, ">= 0"),
    "omega_start": ("float", lambda v: v >= 0, ">= 0"),
    "n_fock": ("int", lambda v: v >= 2, ">= 2"),
    "n_fock_alt": ("int", lambda v: v >= 2, ">= 2"),
    "T": ("float", lambda v: v > 0, "> 0"),
    "dt": ("float", lambda v: v > 0, "> 0"),
    "record_every": ("int", lambda v: v >= 1, ">= 1"),
    "alpha_f": ("complex", lambda v: True, ""),
    "beta_f": ("complex", lambda v: True, ""),
    "theta": ("theta", lambda v: True, ""),
    "theta_points": ("int", lambda v: v >= 32, ">= 32"),
    "gamma_x": ("float", lambda v: v >= 0, ">= 0"),
    "gamma_y": ("float", lambda v: v >= 0, ">= 0"),
    "gamma_z": ("float", lambda v: v >= 0, ">= 0"),
    "gamma_r": ("float", lambda v: v >= 0, ">= 0"),
    "rate_model": ("choice:" + ",".join(RATE_MODELS), lambda v: True, ""),
    "k_levels": ("int", lambda v: v >= 2, ">= 2"),
    "refresh_every": ("int", lambda v: v >= 1, ">= 1"),
    "omega_points": ("int", lambda v: v >= 2, ">= 2"),
    "verbosity": ("int", lambda v: v >= 0, ">= 0"),
}


def _convert(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind.startswith("choice:"):
        choices = kind.split(":", 1)[1].split(",")
        if raw not in choices:
            raise ValueError(f"expected one of {choices}")
        return raw
    if kind == "theta" and raw == "optimize":
        return None
    # float, complex and theta: nan passes every range check, so refuse it here
    value = complex(raw.replace(" ", "")) if kind == "complex" else float(raw)
    if not np.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_entries(entries: list[tuple[str, str, str]]) -> dict:
    """Validate (where, "key=value" body, expected form) entries.

    Collects every problem before raising, so a bad input reports all of
    its mistakes at once.
    """
    overrides: dict = {}
    violations: list[str] = []
    for where, body, expected in entries:
        key, eq, raw = body.partition("=")
        if not eq:
            violations.append(f"{where}: expected {expected}")
            continue
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            violations.append(f"{where}: unknown key {key!r}")
            continue
        kind, check, requirement = _KEYS[key]
        try:
            value = _convert(kind, raw)
        except ValueError as exc:
            violations.append(f"{where}: {key} = {raw!r} is not a valid {kind} ({exc})")
            continue
        if not check(value):
            violations.append(f"{where}: {key} = {raw!r} violates {key} {requirement}")
            continue
        overrides[key] = value
    if violations:
        raise ConfigError(violations)
    return overrides


def parse_config(text: str) -> dict:
    """Parse a config document into validated override values."""
    entries = [
        (f"line {lineno}", line.split("#", 1)[0].strip(),
         f"'key = value', got {line.strip()!r}")
        for lineno, line in enumerate(text.splitlines(), start=1)
    ]
    return _parse_entries([entry for entry in entries if entry[1]])


def parse_set_flags(pairs: list[str]) -> dict:
    return _parse_entries([(f"--set {pair!r}", pair, "KEY=VALUE") for pair in pairs])


@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation."""

    experiment: str
    overrides: dict = field(default_factory=dict)
    out_dir: str = "out"


# ExperimentSpec fields a config may set directly.
_SPEC_KEYS = tuple(f.name for f in fields(ExperimentSpec) if f.name in _KEYS)

# The spec input each config key sets where it is not the field of the same
# name. The model keys are kept for every experiment.
_GAMMAS = ("gamma_x", "gamma_y", "gamma_z", "gamma_r")
_SETS = {"T": "schedule", "omega_start": "schedule", "dt": "cfg", "record_every": "cfg",
         **dict.fromkeys(_GAMMAS, "noise")}
_ALWAYS_KEPT = ("omega_cav", "omega_eg", "omega0", "n_fock")


def _given(ov: dict, keys) -> dict:
    """The overrides among keys; every other field keeps its declared default."""
    return {k: ov[k] for k in keys if k in ov}


def build_spec(run: RunConfig) -> ExperimentSpec:
    """Resolve overrides into a validated ExperimentSpec; every input not
    overridden takes the default its dataclass declares, and ``n_fock``
    the experiment's own default from ``EXPERIMENTS``.

    An override whose spec input the experiment does not read is dropped
    before validation, so it neither splits the spec hash nor fails a check:
    ``entangled`` drops the stored qubit and read phase, ``spectrum`` and
    ``convergence`` the sweep's schedule and step keys (and with them the
    dt floor), and every experiment but ``noisy`` the noise rates.
    """
    row = EXPERIMENTS.get(run.experiment)
    if row is None:
        raise ConfigError([f"unknown experiment {run.experiment!r}"])
    ov = {"n_fock": row.n_fock}
    ov.update((k, v) for k, v in run.overrides.items()
              if k in _ALWAYS_KEPT or _SETS.get(k, k) in row.reads)
    violations: list[str] = []
    params = ModelParams(**_given(ov, ("omega_cav", "omega_eg", "omega0", "n_fock")))
    schedule = storage_schedule(params, ov.get("T", 105.0), ov.get("omega_start", 0.0))
    cfg = replace(PropagatorConfig.for_total_time(schedule.total_time),
                  **_given(ov, ("dt", "record_every")))
    try:
        step_count(schedule, cfg)  # the propagator's own step floor
    except ValueError as exc:
        violations.append(str(exc))

    noise = None
    if "noise" in row.reads:
        noise = replace(NoiseRates.for_qubit_splitting(params.omega_eg),
                        **_given(ov, _GAMMAS))
    spec = ExperimentSpec(
        name=run.experiment,
        params=params,
        schedule=schedule,
        cfg=cfg,
        noise=noise,
        **_given(ov, _SPEC_KEYS),
    )
    violations.extend(spec.validate())
    if violations:
        raise ConfigError(violations)
    return spec


# --------------------------------------------------------------------------
# output emission
# --------------------------------------------------------------------------

_FMT = "%.17g"  # the same digits as f"{x:.17g}"


def _fmt_all(values) -> list[str]:
    return [_FMT % x for x in np.asarray(values, dtype=np.float64).tolist()]


def emit_csv(bundle: ResultBundle, out_dir: str | Path) -> list[Path]:
    """Write every curve and landscape of a bundle as CSV files.

    Curves become one file per curve with their column order preserved.
    Landscapes become a long-form omega,theta,fidelity file (rows ordered by
    sweep sample then theta) plus a *_theta_opt companion. Each omega and
    theta is formatted once; a landscape row of the sweep is one
    %-format of a template that already holds its thetas.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for name, columns in bundle.curves.items():
        path = out / f"{name}.csv"
        headers = list(columns)
        arrays = [np.asarray(columns[h], dtype=np.float64) for h in headers]
        length = len(arrays[0])
        if any(len(a) != length for a in arrays):
            raise ValueError(f"curve {name!r} has ragged columns")
        row = ",".join([_FMT] * len(arrays)) + "\n"
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(headers) + "\n")
            fh.writelines(row % values for values in zip(*(a.tolist() for a in arrays)))
        paths.append(path)
    for name, land in bundle.landscapes.items():
        path = out / f"{name}.csv"
        omegas = _fmt_all(land.coupling_grid)
        # omega.join(cells) puts omega in front of every cell but the first
        cells = [f",{th},{_FMT}\n" for th in _fmt_all(land.theta_grid)]
        fidelity = np.asarray(land.fidelity, dtype=np.float64)
        with open(path, "w", newline="\n") as fh:
            fh.write("omega,theta,fidelity\n")
            for om, fid in zip(omegas, fidelity):
                fh.write((om + om.join(cells)) % tuple(fid.tolist()))
        paths.append(path)
        companion = out / f"{name}_theta_opt.csv"
        theta_opt = _fmt_all(land.theta_opt)
        with open(companion, "w", newline="\n") as fh:
            fh.write("omega,theta_opt\n")
            fh.writelines(f"{om},{th}\n" for om, th in zip(omegas, theta_opt))
        paths.append(companion)
    return paths


_HASH_CHUNK = 1 << 20


def _file_sha256(path: Path) -> str:
    """sha256 of a file fed through one reused buffer of at most one chunk,
    so memory does not grow with the file's size."""
    digest = hashlib.sha256()
    buf = bytearray(min(_HASH_CHUNK, path.stat().st_size))
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def write_manifest(
    bundle: ResultBundle, spec: ExperimentSpec, paths: list[Path], out_dir: str | Path
) -> Path:
    """Record the spec's name, hash and resolved parameters, the bundle's
    scalars, and output content hashes."""
    out = Path(out_dir)
    outputs = {path.name: _file_sha256(path) for path in sorted(paths)}
    doc = {
        "experiment": spec.name,
        "spec_hash": spec.spec_hash,
        "parameters": spec.resolved(),
        "scalars": bundle.scalars,
        "outputs": outputs,
    }
    path = out / "manifest.json"
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="uscmem",
        description="ultrastrong-coupling cat-state quantum memory simulator",
    )
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT",
                                parser_class=_Parser, required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", metavar="PATH", help="config document")
        p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                       dest="set_pairs", help="override one config key (repeatable)")
        p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1

    try:
        overrides = {}
        if args.config:
            path = Path(args.config)
            if not path.is_file():
                print(f"error: config file {path} not found", file=sys.stderr)
                return 1
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: cannot read config file {path}: {exc}", file=sys.stderr)
                return 1
            overrides.update(parse_config(text))
        overrides.update(parse_set_flags(args.set_pairs))
        run = RunConfig(experiment=args.experiment, overrides=overrides, out_dir=args.out)
        spec = build_spec(run)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1

    try:
        bundle = run_experiment(spec)
        paths = emit_csv(bundle, run.out_dir)
        write_manifest(bundle, spec, paths, run.out_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    if overrides.get("verbosity", 1) > 0:
        for key in sorted(bundle.scalars):
            print(f"{key}={bundle.scalars[key]:.6g}")
        print(f"spec_hash={spec.spec_hash}")
        print(f"wrote {len(paths) + 1} files to {run.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
