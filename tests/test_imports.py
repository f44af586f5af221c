"""Import cost: `import fbmvar` loads numpy, `dataclasses` and the
package's own modules, and `fbmvar.cli` adds `argparse` and `json`.
`scipy.special` loads with the first KS test, the bare scipy package when
an artifact records its version, numpy.random on the first draw, the
thread pool on the first multi-thread `replicate_map` and `json` on the
first `canonical_json`.  No check loads `scipy.stats` or `scipy.linalg`:
`describe` loads no scipy, and the KS tests need only `scipy.special`.

Each case runs in a fresh interpreter, since this test process has long
since loaded them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import SMALL

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ("scipy", "scipy.stats", "scipy.special", "scipy.linalg")


def _loaded_after(code: str, modules=DEFERRED) -> list[str]:
    """Which of `modules` (by default scipy and its deferred submodules) are
    in sys.modules once `code` has run."""
    # read sys.modules before the report's own json import
    report = f"loaded = [m for m in {modules!r} if m in sys.modules]; import json; print(json.dumps(loaded))"
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{report}"], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import fbmvar",
    "import fbmvar.cli",
    # without --out no artifact records scipy's version
    "import fbmvar.cli; assert fbmvar.cli.main(['sigma', '--r', '2', '--h', '0.25']) == 0",
], ids=["import", "import-cli", "cli-sigma"])
def test_scipy_submodules_not_loaded(code):
    assert _loaded_after(code) == []


def test_import_loads_no_thread_pool_or_json():
    # concurrent.futures brings logging, queue and traceback with it
    modules = ("concurrent.futures", "logging", "json")
    assert _loaded_after("import fbmvar", modules) == []


def test_thread_pool_loads_on_first_multi_thread_map():
    # the import is deferred, not dropped: threads > 1 still runs a pool
    code = ("import numpy as np; from fbmvar.harness import replicate_map\n"
            "rows = replicate_map(lambda seeds: np.array([s.stream_id for s in seeds]), 8, 1, threads=2)\n"
            "assert rows.tolist() == list(range(8))")
    assert _loaded_after(code, ("concurrent.futures",)) == ["concurrent.futures"]


def test_numpy_random_loads_on_first_draw():
    # seed words are derived in numpy alone; PCG64 and its seed-words shim
    # load numpy.random on the first rng(), not on import
    assert _loaded_after("import fbmvar", ("numpy.random",)) == []
    code = "import fbmvar; fbmvar.SeedSpec(1).rng()"
    assert _loaded_after(code, ("numpy.random",)) == ["numpy.random"]


def test_checks_load_scipy_special_but_not_scipy_stats():
    # every check A1-A10 in one process: the summaries and KS tests run on
    # numpy and scipy.special alone, and the import of scipy.special is
    # deferred to the first KS test, not dropped
    code = ("from fbmvar.acceptance import ACCEPTANCE\n"
            f"for name, config in {SMALL!r}.items(): ACCEPTANCE[name].fn(master_seed=5, **config)")
    loaded = _loaded_after(code)
    assert "scipy.stats" not in loaded
    assert "scipy.special" in loaded


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
