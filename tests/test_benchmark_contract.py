"""The benchmark's call contract: what `perfbench/workloads.py` needs of
the package.  The benchmark's own tests run outside tier-1, so these pin
the calls it makes, the report fields it reads and the cache it traces;
the module is imported read-only and nothing under `perfbench/` runs
beyond its operation builder and validator.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import fbmvar

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("variant", ["full", "smoke"])
def test_many_short_overrides_bind_to_their_checks(workloads, variant):
    # build_ops binds each override with master_seed and threads=1 and
    # counts the paths from the bound arguments
    ops = workloads.build_ops(fbmvar, "many_short", 20260809, variant)
    assert [op.name for op in ops] == [name for name, _ in workloads.CHECKS["many_short"][variant]]
    for op in ops:
        assert op.kwargs["master_seed"] == 20260809 and op.kwargs["threads"] == 1
        assert op.paths >= 1


def test_a5_report_carries_what_the_validator_reads(workloads):
    (op,) = [op for op in workloads.build_ops(fbmvar, "many_short", 7, "smoke")
             if op.name == "check_a5"]
    report = op.fn(**op.kwargs)
    assert report.config["residual_tol"] == 1e-9
    assert set(report.estimates["max_residual"]) == {"crossing", "composition"}
    outcome = workloads.run_op(fbmvar, op, 7)
    assert not outcome.failed and outcome.passed, outcome.error


def test_sigma_sweep_reads_limit_sigma_fields(workloads):
    sig = fbmvar.limit_sigma(2, 0.25, workloads.SIGMA_TOL)
    assert (sig.r, sig.h.h) == (2, 0.25)
    assert sig.value > 0 and sig.tail_bound <= workloads.SIGMA_TOL and sig.terms_used >= 1
    for op in workloads.build_ops(fbmvar, "sigma_sweep", 7, "smoke"):
        outcome = workloads.run_op(fbmvar, op, 7)
        assert not outcome.failed, outcome.error


def test_spectrum_cache_is_traceable():
    # the tracer reports the circulant spectrum cache's hits and misses
    spectrum = fbmvar.fbm._circulant_spectrum
    assert callable(spectrum.cache_clear) and callable(spectrum.cache_info)
