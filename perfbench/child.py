"""One benchmark sample in a fresh interpreter.

Usage: python3 child.py REQUEST_JSON

REQUEST_JSON holds "experiment", "overrides" (complex values as [re, im]),
"out" (output directory) and "mode": "setup" stops once the spec is
resolved, "plain" runs the experiment, "trace" runs it with span tracing.
Drives the experiment through the calls ``uscmem.cli.main`` makes, then
prints one JSON line with the timings, scalars and output hashes.
"""
import json
import sys
import time
from pathlib import Path

request = json.loads(sys.argv[1])
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from uscmem import cli  # noqa: E402

if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
    raise ImportError(f"imported {cli.__file__}, not the package under {ROOT / 'src'}")

overrides = {k: complex(*v) if isinstance(v, list) else v
             for k, v in request["overrides"].items()}
run = cli.RunConfig(experiment=request["experiment"], overrides=overrides,
                    out_dir=request["out"])
spec = cli.build_spec(run)
ready = time.monotonic()


def main() -> dict:
    if request["mode"] == "setup":
        return {"ready": ready}
    tracer = None
    if request["mode"] == "trace":
        import spans
        tracer = spans.Tracer().install()

    start = time.perf_counter()
    bundle = cli.run_experiment(spec)
    paths = cli.emit_csv(bundle, run.out_dir)
    manifest = cli.write_manifest(bundle, spec, paths, run.out_dir)
    wall_s = time.perf_counter() - start

    import hashlib
    import resource

    if tracer is not None:
        tracer.uninstall()
    result = {
        "ready": ready,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scalars": bundle.scalars,
        "outputs": json.loads(manifest.read_text())["outputs"],
        "written": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths},
        "env": environment(),
    }
    if tracer is not None:
        summary = spans.summarize(tracer.spans)
        result["trace"] = {"metrics": spans.layer_metrics(summary),
                           "closure_err_s": summary["closure_err_s"]}
    return result


def environment() -> dict:
    """numpy, BLAS and Python versions, and the BLAS threads in use."""
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            lib = next(line.split()[-1] for line in maps if "openblas" in line)
    except (OSError, StopIteration):
        return None
    handle = ctypes.CDLL(lib)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(handle, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


print(json.dumps(main()))
