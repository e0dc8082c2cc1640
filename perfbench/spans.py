"""Span tracing of the uscmem layers, installed from outside the package.

Every public function of every ``uscmem`` module, plus the ``numpy.linalg``
functions the package calls (the kernel layer), is replaced by a wrapper
that records one span per call: name, parent span, start, end, whether it
raised, and an optional work count. Every alias of a wrapped function in
the package namespace and its modules is rebound, and installation refuses
to finish while any alias still points at an unwrapped original.

Spans stay in memory; :func:`summarize` turns them into per-function and
per-layer totals after the run.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy.linalg

LAYERS = ("hilbert", "model", "spectral", "dynamics", "lindblad", "protocols", "cli", "linalg")
KERNEL_FUNCTIONS = ("eigh", "eigvalsh", "norm")
ROOT_SPAN = "protocols.run_experiment"

NAME, PARENT, START, END, RAISED, COUNT = range(6)


class IncompleteTraceError(RuntimeError):
    """A traced function is still reachable through an unwrapped alias."""


def _steps(fn):
    """Midpoint steps of a sweep, computed from the call's public inputs
    the way the propagators do: round(T / dt), at least one."""
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        return max(1, round(bound["schedule"].total_time / bound["cfg"].dt))

    return count


def _matrix_work(args, kwargs, result):
    """Computed batch * n^3 of one eigen-solve; complex input counts 4x."""
    a = args[0] if args else kwargs["a"]
    *batch, n = a.shape[:-1]
    work = n ** 3
    for b in batch:
        work *= b
    return work * (4 if a.dtype.kind == "c" else 1)


def _bytes_written(args, kwargs, result):
    return sum(path.stat().st_size for path in result)


def _counters(name: str, fn):
    if name in ("dynamics.propagate", "lindblad.evolve_master"):
        return _steps(fn)
    if name in ("linalg.eigh", "linalg.eigvalsh"):
        return _matrix_work
    if name == "cli.emit_csv":
        return _bytes_written
    return None


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = _counters(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap and rebind; raise IncompleteTraceError, leaving nothing
        installed, if an alias cannot be rebound."""
        modules = package_modules()
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for attr in KERNEL_FUNCTIONS:
            fn = getattr(numpy.linalg, attr)
            wrappers[fn] = self._wrap(f"linalg.{attr}", fn)

        for namespace in [*modules, numpy.linalg]:
            for attr, obj in list(vars(namespace).items()):
                if _hashable(obj) and obj in wrappers:
                    setattr(namespace, attr, wrappers[obj])
                    self._rebound.append((namespace, attr, obj))
        missed = unwrapped_aliases(set(wrappers), [*modules, numpy.linalg])
        if missed:
            self.uninstall()
            raise IncompleteTraceError("unwrapped aliases: " + ", ".join(missed))
        return self

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound.clear()


def package_modules() -> list:
    """The imported ``uscmem`` package and all of its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "uscmem" or name.startswith("uscmem.")]


def _hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def unwrapped_aliases(originals: set, namespaces: list) -> list[str]:
    """Places that still reach an original: module globals, and default
    arguments of functions defined in those modules."""
    missed = []
    for namespace in namespaces:
        for attr, obj in vars(namespace).items():
            if _hashable(obj) and obj in originals:
                missed.append(f"{namespace.__name__}.{attr}")
            if inspect.isfunction(obj):
                fn = inspect.unwrap(obj)
                defaults = [*(fn.__defaults__ or ()), *(fn.__kwdefaults__ or {}).values()]
                if any(_hashable(d) and d in originals for d in defaults):
                    missed.append(f"{namespace.__name__}.{attr} (default argument)")
    return missed


# --------------------------------------------------------------------------
# arithmetic on recorded spans
# --------------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            own[span[PARENT]] -= span[END] - span[START]
            if not parent[START] <= span[START] <= span[END] <= parent[END]:
                raise ValueError(f"span {span[NAME]} is not inside its parent {parent[NAME]}")
    return own


def _ancestors(spans: list, index: int):
    parent = spans[index][PARENT]
    while parent >= 0:
        yield spans[parent][NAME]
        parent = spans[parent][PARENT]


def summarize(spans: list) -> dict:
    """Totals per function and per layer.

    ``functions[name]`` holds calls, self_s, errors, the summed work count
    and the inclusive seconds of its outermost calls. ``eigh_under[name]``
    counts eigh calls anywhere below a span of that name. ``closure_err_s``
    is the root span's duration minus the self times of all spans below
    and including it, which is zero when every span closed inside its
    parent.
    """
    own = self_times(spans)
    functions: dict[str, dict] = {}
    layers = {layer: {"self_s": 0.0, "errors": 0} for layer in LAYERS}
    eigh_under: dict[str, int] = {}
    root_s, root_self = 0.0, 0.0
    for i, span in enumerate(spans):
        name = span[NAME]
        ancestors = list(_ancestors(spans, i))
        entry = functions.setdefault(
            name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0, "errors": 0, "count": 0})
        entry["calls"] += 1
        entry["self_s"] += own[i]
        entry["errors"] += span[RAISED]
        entry["count"] += span[COUNT]
        if name not in ancestors:
            entry["inclusive_s"] += span[END] - span[START]
        layer = layers.setdefault(name.partition(".")[0], {"self_s": 0.0, "errors": 0})
        layer["self_s"] += own[i]
        layer["errors"] += span[RAISED]
        if name == "linalg.eigh":
            for ancestor in set(ancestors):
                eigh_under[ancestor] = eigh_under.get(ancestor, 0) + 1
        if name == ROOT_SPAN and ROOT_SPAN not in ancestors:
            root_s += span[END] - span[START]
        if name == ROOT_SPAN or ROOT_SPAN in ancestors:
            root_self += own[i]
    return {
        "functions": functions,
        "layers": layers,
        "eigh_under": eigh_under,
        "closure_err_s": root_s - root_self,
    }


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced sample, by name."""
    fn = summary["functions"]
    empty = {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0, "errors": 0, "count": 0}

    def total(key, *names):
        return sum(fn.get(n, empty)[key] for n in names)

    def per_step(sweep):
        steps = total("count", sweep)
        return summary["eigh_under"].get(sweep, 0) / steps if steps else 0.0

    hilbert_ops = ("hilbert.annihilation_op", "hilbert.pauli_op", "hilbert.coherent_state")
    kernel = ("linalg.eigh", "linalg.eigvalsh")
    metrics = {
        "linalg.eigh.calls": total("calls", *kernel),
        "linalg.eigh.self_s": total("self_s", *kernel),
        "linalg.eigh.n3": total("count", *kernel),
        "hilbert.ops.calls": total("calls", *hilbert_ops),
        "hilbert.ops.self_s": total("self_s", *hilbert_ops),
        "model.build_rabi.calls": total("calls", "model.build_rabi"),
        "model.build_rabi.self_s": total("self_s", "model.build_rabi"),
        "dynamics.propagate.s": total("inclusive_s", "dynamics.propagate"),
        "dynamics.propagate.self_s": total("self_s", "dynamics.propagate"),
        "dynamics.steps": total("count", "dynamics.propagate"),
        "dynamics.eigh_per_step": per_step("dynamics.propagate"),
        "spectral.eigendecompose.calls": total("calls", "spectral.eigendecompose"),
        "spectral.eigendecompose.self_s": total("self_s", "spectral.eigendecompose"),
        "spectral.align_gauge.self_s": total("self_s", "spectral.align_gauge"),
        "spectral.build_gauge_chain.s": total("inclusive_s", "spectral.build_gauge_chain"),
        "lindblad.evolve_master.s": total("inclusive_s", "lindblad.evolve_master"),
        "lindblad.evolve_master.self_s": total("self_s", "lindblad.evolve_master"),
        "lindblad.validate_density.self_s": total("self_s", "lindblad.validate_density"),
        "lindblad.eigh_per_step": per_step("lindblad.evolve_master"),
        "protocols.run_experiment.s": total("inclusive_s", ROOT_SPAN),
        "protocols.two_cell_storage.s": total("inclusive_s", "protocols.two_cell_storage"),
        "cli.emit_csv.s": total("inclusive_s", "cli.emit_csv"),
        "cli.emit_csv.bytes": total("count", "cli.emit_csv"),
        "cli.write_manifest.s": total("inclusive_s", "cli.write_manifest"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = summary["layers"][layer]["self_s"]
        metrics[f"{layer}.errors"] = summary["layers"][layer]["errors"]
    return metrics
