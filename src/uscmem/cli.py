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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import PropagatorConfig, RSQRT2
from .lindblad import NoiseRates
from .model import CouplingSchedule, ModelParams
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
    "rate_model": ("choice:flat,ohmic", lambda v: True, ""),
    "k_levels": ("int", lambda v: v >= 2, ">= 2"),
    "refresh_every": ("int", lambda v: v >= 1, ">= 1"),
    "omega_points": ("int", lambda v: v >= 2, ">= 2"),
    "verbosity": ("int", lambda v: v >= 0, ">= 0"),
}


def _convert(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "complex":
        return complex(raw.replace(" ", ""))
    if kind == "theta":
        return None if raw == "optimize" else float(raw)
    if kind.startswith("choice:"):
        choices = kind.split(":", 1)[1].split(",")
        if raw not in choices:
            raise ValueError(f"expected one of {choices}")
        return raw
    raise AssertionError(kind)


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
    verbosity: int = 1


_DEFAULT_N_FOCK = {"noisy": 20, "entangled": 15}


def build_spec(run: RunConfig) -> ExperimentSpec:
    """Resolve defaults plus overrides into a validated ExperimentSpec.

    Inputs an experiment never reads keep their defaults, so they cannot
    split the spec hash of two identical runs: ``entangled`` always stores
    the shared excitation, and only ``noisy`` has noise rates.
    """
    ov = run.overrides
    if run.experiment == "entangled":
        ov = {k: v for k, v in ov.items() if k not in ("alpha_f", "beta_f", "theta")}
    violations: list[str] = []
    params = ModelParams(
        omega_cav=ov.get("omega_cav", 1.0),
        omega_eg=ov.get("omega_eg", 0.1),
        omega0=ov.get("omega0", 1.0),
        n_fock=ov.get("n_fock", _DEFAULT_N_FOCK.get(run.experiment, 30)),
    )
    total_time = ov.get("T", 105.0)
    schedule = CouplingSchedule(
        omega_start=ov.get("omega_start", 0.0),
        omega_end=params.omega0,
        total_time=total_time,
    )
    dt = ov.get("dt", total_time / 2000)
    if schedule.is_sweep and dt > total_time / 500:
        violations.append(f"dt = {dt} too coarse; sweeps need dt <= T/500 = {total_time / 500}")
    cfg = PropagatorConfig(dt=dt, record_every=ov.get("record_every", 10))

    noise = None
    if run.experiment == "noisy":
        base = NoiseRates.for_qubit_splitting(params.omega_eg)
        noise = NoiseRates(
            gamma_x=ov.get("gamma_x", base.gamma_x),
            gamma_y=ov.get("gamma_y", base.gamma_y),
            gamma_z=ov.get("gamma_z", base.gamma_z),
            gamma_r=ov.get("gamma_r", base.gamma_r),
        )
    spec = ExperimentSpec(
        name=run.experiment,
        params=params,
        schedule=schedule,
        cfg=cfg,
        alpha_f=ov.get("alpha_f", RSQRT2),
        beta_f=ov.get("beta_f", RSQRT2),
        theta=ov.get("theta", None),
        theta_points=ov.get("theta_points", 64),
        noise=noise,
        k_levels=ov.get("k_levels", 12),
        refresh_every=ov.get("refresh_every", 20),
        rate_model=ov.get("rate_model", "flat"),
        omega_points=ov.get("omega_points", 41),
        n_fock_alt=ov.get("n_fock_alt", 40),
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


def write_manifest(
    bundle: ResultBundle, spec: ExperimentSpec, paths: list[Path], out_dir: str | Path
) -> Path:
    """Record resolved parameters, scalars, and output content hashes."""
    out = Path(out_dir)
    outputs = {}
    for path in sorted(paths):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        outputs[path.name] = digest
    doc = {
        "experiment": bundle.name,
        "spec_hash": bundle.spec_hash,
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
            overrides.update(parse_config(path.read_text()))
        overrides.update(parse_set_flags(args.set_pairs))
        run = RunConfig(
            experiment=args.experiment,
            overrides=overrides,
            out_dir=args.out,
            verbosity=overrides.get("verbosity", 1),
        )
        spec = build_spec(run)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1

    try:
        bundle = run_experiment(spec)
        paths = emit_csv(bundle, run.out_dir)
        write_manifest(bundle, spec, paths, run.out_dir)
    except (ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    if run.verbosity > 0:
        for key in sorted(bundle.scalars):
            print(f"{key}={bundle.scalars[key]:.6f}")
        print(f"spec_hash={bundle.spec_hash}")
        print(f"wrote {len(paths) + 1} files to {run.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
