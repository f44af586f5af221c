"""Import cost: `import fbmvar` loads numpy alone (`fbmvar.cli` adds the
bare scipy package), and scipy's stats, special and linalg load only when
a call needs them, numpy.random on the first draw.

Each case runs in a fresh interpreter, since this test process has long
since loaded all three.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ("scipy.stats", "scipy.special", "scipy.linalg")


def _loaded_after(code: str, modules=DEFERRED) -> list[str]:
    """Which of `modules` (the deferred scipy ones) are in sys.modules once
    `code` has run."""
    report = f"import json, sys; print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{report}"], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import fbmvar; assert 'scipy' not in sys.modules",
    "import fbmvar.cli",
    "import fbmvar.cli; assert fbmvar.cli.main(['sigma', '--r', '2', '--h', '0.25']) == 0",
], ids=["import", "import-cli", "cli-sigma"])
def test_scipy_submodules_not_loaded(code):
    assert _loaded_after(code) == []


def test_numpy_random_loads_on_first_draw():
    # seed words are derived in numpy alone; PCG64 and its seed-words shim
    # load numpy.random on the first rng(), not on import
    assert _loaded_after("import fbmvar", ("numpy.random",)) == []
    code = "import fbmvar; fbmvar.SeedSpec(1).rng()"
    assert _loaded_after(code, ("numpy.random",)) == ["numpy.random"]


def test_scipy_stats_loads_on_first_ks_test():
    # the import is deferred, not dropped: A2's KS test still uses scipy.stats
    code = "from fbmvar.acceptance import check_a2; check_a2(replicates=60, level=6)"
    assert "scipy.stats" in _loaded_after(code)


PUBLIC_NAMES = [
    "ACCEPTANCE", "ConvergenceError", "CrossingCounts", "DEFAULT_MASTER_SEEDS",
    "EmbeddedWalk", "FbmPath", "FbmbtSample", "GridSpec", "HermiteCoeffs", "HurstParam",
    "LimitSigma", "McReport", "RULES", "SeedSpec", "SpectralError", "VariationSeries", "WEIGHTS",
    "WeightFunction", "acceptance", "as_hurst", "bivariate_odd_moment", "brownian_time",
    "coarse_increment_overlap", "crossing_counts", "double_factorial", "fbm", "fbm_covariance",
    "fgn_correlation", "gaussian", "gaussian_moment", "get_weight", "harness", "hermite_coeffs",
    "identity_residuals", "ks_one_sample", "ks_two_sample", "limit_conditional_std",
    "limit_quadrature", "limit_sigma", "midpoint_increment_overlap",
    "midpoint_increment_overlap_closed", "run_check", "sample_fbm",
    "sample_fbmbt", "sample_fgn_circulant", "sample_walk", "step_summands", "variation",
    "variations", "version", "weights",
]


def test_public_names_are_pinned():
    # a name added to or dropped from the package surface shows up here
    import fbmvar

    assert sorted(fbmvar.__all__) == PUBLIC_NAMES
