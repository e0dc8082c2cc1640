"""Command-line runner: config parsing, CSV emission, run manifests.

Config documents are flat ``key = value`` text; ``#`` starts a comment and
blank lines are ignored. Every key is optional and given at most once per
document or set of flags, and ``--set key=value`` flags override the file.
Numbers in emitted CSV files carry 17 significant digits so reruns are
byte-identical.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .dynamics import LANDSCAPE_BLOCK, PropagatorConfig, step_count
from .lindblad import NoiseRates
from .model import ModelParams, storage_schedule
from .protocols import EXPERIMENTS, ExperimentSpec, ResultBundle, run_experiment


class ConfigError(ValueError):
    """One or more invalid configuration entries; lists every violation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class _UsageError(Exception):
    pass


# key -> (converter name, the one spec input the key sets: params, schedule,
# cfg, noise, the ExperimentSpec field of the same name, or "cli" for the
# runner's own key). Each rule on a value lives with the input it sets.
_KEYS = {
    "omega_cav": ("float", "params"),
    "omega_eg": ("float", "params"),
    "omega0": ("float", "params"),
    "n_fock": ("int", "params"),
    "T": ("float", "schedule"),
    "omega_start": ("float", "schedule"),
    "dt": ("float", "cfg"),
    "record_every": ("int", "cfg"),
    "gamma_x": ("float", "noise"),
    "gamma_y": ("float", "noise"),
    "gamma_z": ("float", "noise"),
    "gamma_r": ("float", "noise"),
    "alpha_f": ("complex", "alpha_f"),
    "beta_f": ("complex", "beta_f"),
    "theta": ("theta", "theta"),
    "theta_points": ("int", "theta_points"),
    "k_levels": ("int", "k_levels"),
    "refresh_every": ("int", "refresh_every"),
    "rate_model": ("text", "rate_model"),
    "omega_points": ("int", "omega_points"),
    "n_fock_alt": ("int", "n_fock_alt"),
    "verbosity": ("int", "cli"),
}


def _convert(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "text":
        return raw
    if kind == "theta" and raw == "optimize":
        return None
    # float, complex and theta: nan passes every range check, so refuse it here
    value = complex(raw.replace(" ", "")) if kind == "complex" else float(raw)
    if not np.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_entries(entries: list[tuple[str, str, str]]) -> dict:
    """Convert (where, "key=value" body, expected form) entries; a key
    given twice is an error that names both places.

    Collects every problem before raising, so a bad input reports all of
    its mistakes at once.
    """
    overrides: dict = {}
    given: dict[str, str] = {}  # key -> where it was first given
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
        if key in given:
            violations.append(f"{where}: {key} repeats {given[key]}")
        given.setdefault(key, where)
        kind = _KEYS[key][0]
        try:
            overrides[key] = _convert(kind, raw)
        except ValueError as exc:
            violations.append(f"{where}: {key} = {raw!r} is not a valid {kind} ({exc})")
    if violations:
        raise ConfigError(violations)
    return overrides


def parse_config(text: str) -> dict:
    """Parse a config document into converted override values."""
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


def _spec(name: str, ov: dict) -> ExperimentSpec:
    """The spec the overrides ov set, every other input at its dataclass's
    default; the noise rates are always built, and kept where read."""
    def sets(target: str) -> dict:
        return {k: v for k, v in ov.items() if _KEYS[k][1] == target}

    params = ModelParams(**sets("params"))
    schedule = storage_schedule(params, ov.get("T", 105.0), ov.get("omega_start", 0.0))
    cfg = replace(PropagatorConfig.for_total_time(schedule.total_time), **sets("cfg"))
    noise = replace(NoiseRates.for_qubit_splitting(params.omega_eg), **sets("noise"))
    return ExperimentSpec(name, params, schedule, cfg,
                          noise=noise if "noise" in EXPERIMENTS[name].reads else None,
                          **{k: v for k, v in ov.items() if _KEYS[k][1] == k})


def build_spec(run: RunConfig) -> ExperimentSpec:
    """Resolve overrides into a validated ExperimentSpec; every input not
    overridden takes the default its dataclass declares, and ``n_fock``
    the experiment's own default from ``EXPERIMENTS``.

    Every override first meets its owner's rule, that of the input it
    sets, whether the experiment reads it or not; each ValueError is one
    violation naming the key and its value. Then the overrides it does not
    read are dropped, so they do not split the spec hash, and the rest meet
    the rules that tie a value to the experiment or to another value:
    ``entangled`` drops the stored qubit and read phase, ``spectrum`` and
    ``convergence`` the sweep's keys (and with them the dt floor), and
    every experiment but ``noisy`` the noise rates.
    """
    row = EXPERIMENTS.get(run.experiment)
    if row is None:
        raise ConfigError([f"unknown experiment {run.experiment!r}"])
    violations: list[str] = []
    for key, value in run.overrides.items():
        try:
            if key == "verbosity" and value < 0:  # read by the CLI alone
                raise ValueError(f"verbosity must be >= 0, got {value}")
            _spec(run.experiment, {"n_fock": row.n_fock, key: value})
        except ValueError as exc:
            # an owner names its own field; add the key where that differs (T sets total_time)
            named = str(exc).startswith(f"{key} ")
            violations.append(str(exc) if named else f"{key} = {value!r}: {exc}")
    if violations:
        raise ConfigError(violations)

    # every owner's rule is on one value, so the overrides that each pass build
    read = {k: v for k, v in run.overrides.items() if _KEYS[k][1] in ("params", *row.reads)}
    spec = _spec(run.experiment, {"n_fock": row.n_fock, **read})
    if "schedule" in row.reads:
        try:
            step_count(spec.schedule, spec.cfg)  # the propagator's own step floor
        except ValueError as exc:
            violations.append(str(exc))
    violations.extend(spec.validate())
    if violations:
        raise ConfigError(violations)
    return spec


# --------------------------------------------------------------------------
# output emission
# --------------------------------------------------------------------------

# Every CSV value is written as b"%.17g" % v, so a rerun is byte-identical
# and a parse gives back the same float. _format_17g makes those bytes a
# chunk of values at a time: positive values in [1e-4, 1e16), the range
# %.17g prints in fixed notation, go through the vectorized kernel below;
# every other value (0, negatives, tiny, huge, inf, nan) through
# b"%.17g" % v itself.

_CHUNK = 2048  # values per kernel pass; bounds its temporaries
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for Dekker's product
_P10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_P10_HI = _SPLIT * _P10 - (_SPLIT * _P10 - _P10)
_P10_LO = _P10 - _P10_HI
# Text as 64-bit words: the integer whose little-endian bytes spell it.
_ZEROS = np.uint64(int.from_bytes(b"00000000", "little"))
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), "<u2").astype(np.uint64)
_QUADS = (_PAIRS[:, None] | _PAIRS << 16).ravel()  # "%04d" % k for k < 10**4


def _layout_masks() -> np.ndarray:
    """Byte masks of a 24-byte string, as (9, 17 * 24) words; column
    24 * point + length is a value whose last integer digit sits at byte
    `point` and whose text is `length` bytes long. Words 0-2 keep bytes
    [0, point], words 3-5 keep bytes [point + 2, length), and words 6-8
    hold the decimal point at byte point + 1 if a fraction digit follows."""
    masks = []
    for point in range(17):
        for length in range(24):
            dot = b"." if length > point + 1 else b""
            masks += [(b"\xff" * (point + 1)).ljust(24, b"\0"),
                      (b"\0" * (point + 2) + b"\xff" * (length - point - 2)).ljust(24, b"\0"),
                      (b"\0" * (point + 1) + dot).ljust(24, b"\0")]
    words = np.frombuffer(b"".join(masks), "<u8").reshape(17 * 24, 9)
    return words.T.astype(np.uint64, order="C")


_MASKS = _layout_masks()


def _scaled(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**p exactly, as hi + lo (Dekker's split product)."""
    ten, ten_hi, ten_lo = _P10[p], _P10_HI[p], _P10_LO[p]
    hi = x * ten
    split = _SPLIT * x
    x_hi = split - (split - x)
    x_lo = x - x_hi
    lo = ((x_hi * ten_hi - hi) + x_hi * ten_lo + x_lo * ten_hi) + x_lo * ten_lo
    return hi, lo


def _significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of each x in [1e-4, 1e16) as an integer D
    in [1e16, 1e17), rounded half to even as %.17g rounds, and the decimal
    exponent of D's leading digit."""
    p = 16 - np.floor(np.log10(x)).astype(np.intp)
    hi, lo = _scaled(x, p)
    # log10 can miss by one next to a power of ten
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(below | above)
    if fix.size:
        p[fix] += below[fix].astype(np.intp) - above[fix]
        hi[fix], lo[fix] = _scaled(x[fix], p[fix])
    # hi >= 2**53 is an even integer, so rounding lo half to even rounds
    # hi + lo half to even. D never rounds up to 1e17: no double in range
    # lies within 5e-18 (relative) below a power of ten.
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), 16 - p


def _digit_words(d: np.ndarray) -> np.ndarray:
    """(4, n) words spelling 7 '0's, the 17 digits of each d, and 8 '0's."""
    top = d // 10**8
    lead = top // 10**8
    eights = np.stack([top - lead * 10**8, d - top * 10**8])
    fours = eights // 10**4
    words = np.empty((4, len(d)), np.uint64)
    words[0] = _QUADS[0] | _QUADS[lead] << 32
    words[1:3] = _QUADS[fours] | _QUADS[eights - fours * 10**4] << 32
    words[3] = _ZEROS
    return words


def _last_byte(words: np.ndarray) -> np.ndarray:
    """Index of the highest nonzero byte of each word whose bytes are all
    <= 9 (float rounding cannot carry out of such a byte)."""
    return (np.frexp(words.astype(np.float64))[1] - 1) // 8


def _fixed_text(words: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """(n, 3) little-endian words holding each value's %.17g text in fixed
    notation, NUL-padded to 24 bytes.

    z is the digit string behind -exponent '0's when exponent < 0 (the
    "000ddd" of 0.00ddd), so its integer part ends at z[point]; the text is
    z up to that byte, the point, then the rest of z up to its last
    nonzero digit.
    """
    digits_1_8, digits_9_16 = words[1] ^ _ZEROS, words[2] ^ _ZEROS
    last = np.where(digits_9_16 != 0, 9 + _last_byte(digits_9_16),
                    np.where(digits_1_8 != 0, 1 + _last_byte(digits_1_8), 0))
    zeros = np.minimum(exponent, 0)
    point = exponent - zeros
    last -= zeros  # the last nonzero digit's byte in z
    length = np.maximum(last + 1 + (last > point), point + 1)
    key = 24 * point + length
    shift = (8 * (7 + zeros)).astype(np.uint64)  # bits from words to z
    z = (words[:3] >> shift) | (words[1:] << (np.uint64(64) - shift))
    shift -= np.uint64(8)
    z_right = (words[:3] >> shift) | (words[1:] << (np.uint64(64) - shift))
    z &= np.take(_MASKS[:3], key, axis=1)
    z_right &= np.take(_MASKS[3:6], key, axis=1)
    z |= z_right
    z |= np.take(_MASKS[6:], key, axis=1)
    text = np.empty((len(exponent), 3), "<u8")
    text.T[...] = z
    return text


def _format_chunk(v: np.ndarray) -> list[bytes]:
    fast = (v >= 1e-4) & (v < 1e16)
    d, exponent = _significand(np.where(fast, v, 1.0))
    text = _fixed_text(_digit_words(d), exponent)
    out = text.view("S24").ravel().tolist()  # an S24 item drops its trailing NULs
    slow = np.flatnonzero(~fast)
    for i, value in zip(slow.tolist(), v[slow].tolist()):
        out[i] = b"%.17g" % value
    return out


def _format_17g(values) -> list[bytes]:
    """b"%.17g" % v for every value, in C order."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    out: list[bytes] = []
    for start in range(0, flat.size, _CHUNK):
        out += _format_chunk(flat[start:start + _CHUNK])
    return out


def emit_csv(bundle: ResultBundle, out_dir: str | Path) -> list[Path]:
    """Write every curve and landscape of a bundle as CSV files.

    Curves become one file per curve with their column order preserved.
    Landscapes become a long-form omega,theta,fidelity file (rows ordered by
    sweep sample then theta) plus a *_theta_opt companion. Each omega and
    theta is formatted once; a landscape row of the sweep is one
    %-format of a template that already holds its thetas. The fidelities
    are built as they are written, a few kernel passes of rows per
    PhaseLandscape.rows call, so the landscape's table is never held.
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
        cells = _format_17g(np.column_stack(arrays))
        width = len(arrays)
        row = b",".join([b"%s"] * width) + b"\n"
        with open(path, "wb") as fh:
            fh.write(",".join(headers).encode() + b"\n")
            fh.writelines(row % tuple(cells[i:i + width]) for i in range(0, len(cells), width))
        paths.append(path)
    for name, land in bundle.landscapes.items():
        n_omega, n_theta = len(land.coupling_grid), len(land.theta_grid)
        path = out / f"{name}.csv"
        omegas = _format_17g(land.coupling_grid)
        # omega.join(cells) puts omega in front of every cell but the first
        cells = [b"," + th + b",%s\n" for th in _format_17g(land.theta_grid)]
        block = max(1, _CHUNK // n_theta)  # rows formatted per kernel pass
        size = block * (LANDSCAPE_BLOCK // _CHUNK)  # rows built per readout call
        with open(path, "wb") as fh:
            fh.write(b"omega,theta,fidelity\n")
            for start in range(0, n_omega, size):
                rows = land.rows(start, start + size)
                for at in range(0, len(rows), block):
                    values = iter(_format_17g(rows[at:at + block]))
                    for om in omegas[start + at:start + at + block]:
                        fh.write((om + om.join(cells)) % tuple(islice(values, n_theta)))
        paths.append(path)
        companion = out / f"{name}_theta_opt.csv"
        with open(companion, "wb") as fh:
            fh.write(b"omega,theta_opt\n")
            fh.writelines(om + b"," + th + b"\n"
                          for om, th in zip(omegas, _format_17g(land.theta_opt)))
        paths.append(companion)
    return paths


_HASH_CHUNK = 1 << 16


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
            if not path.exists():
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
