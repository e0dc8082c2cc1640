"""Correctness gate for benchmark samples.

A sample fails when the child raised, when a scalar misses its acceptance
threshold, when the reference input misses a frozen test value, when the
manifest hashes disagree with the files written, or (traced runs) when the
traced and untraced runs of one input wrote different outputs or the spans
did not close.
"""
from __future__ import annotations

# Acceptance thresholds of tests/test_acceptance.py: scalar -> (low, high).
THRESHOLDS = {
    "roundtrip": {"F_s_final": (0.99, None)},
    "noisy": {"F_s_final": (0.9939 - 0.01, 0.9939 + 0.01)},
    "register": {"storage_fidelity": (0.98, None), "roundtrip_fidelity": (0.98, None)},
    "landscape": {"ridge_min": (0.99, None)},
}

# Frozen test values at alpha = beta = 1/sqrt(2), T = 105, with the
# tolerances the test suite applies: scalar -> (value, tolerance).
FROZEN = {
    "roundtrip": {"F_s_final": (0.99961211, 1e-5)},
    "noisy": {"F_s_final": (0.991436, 1e-4)},
    "register": {"storage_fidelity": (0.999702, 1e-5), "roundtrip_fidelity": (0.999224, 1e-5)},
}

# Spans close when the run total and the summed self times agree to rounding.
CLOSURE_TOL_S = 1e-6


def check_sample(workload: str, result: dict, reference: bool) -> list[str]:
    """Problems with one child's result; empty when it passes."""
    problems = []
    scalars = result["scalars"]
    for key, (low, high) in THRESHOLDS[workload].items():
        value = scalars.get(key)
        if value is None:
            problems.append(f"scalar {key} missing")
        elif value < low or (high is not None and value > high):
            problems.append(f"{key} = {value!r} outside [{low}, {high}]")
    if reference:
        for key, (expected, tol) in FROZEN.get(workload, {}).items():
            value = scalars.get(key)
            if value is None or abs(value - expected) >= tol:
                problems.append(f"reference {key} = {value!r}, frozen {expected} +- {tol}")
    if not result["outputs"]:
        problems.append("manifest lists no outputs")
    if result["outputs"] != result["written"]:
        problems.append("manifest hashes differ from the files written")
    if "trace" in result and abs(result["trace"]["closure_err_s"]) > CLOSURE_TOL_S:
        problems.append(f"spans do not close: {result['trace']['closure_err_s']!r} s unaccounted")
    return problems


def check_pair(untraced: dict, traced: dict) -> list[str]:
    """Traced and untraced runs of one input must write identical outputs."""
    if untraced["outputs"] != traced["outputs"]:
        return ["traced and untraced output hashes differ"]
    return []
