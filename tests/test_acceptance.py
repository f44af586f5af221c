"""Acceptance gate: every criterion at its stated tolerance, one line each.

Statistical criteria run under the shipped default seeds with the
documented re-run policy (majority over three independent master seeds on
a primary-seed failure).

Two criteria (A3, A4) are expected-red, with the blocking analysis
recorded in the project notes and summarized here:

* A3/A4 corr clause: |corr(statistic, X_1)| < 3/sqrt(R) + 0.02 at n=12.
  The exact finite-level correlation for f=exp(-x^2) is 0.124 at n=12,
  0.062 at n=16 and 0.031 at n=20 (it decays like 2^(n(H-1/2))), against
  the bound 0.0624; every other clause of A3/A4 passes.  The independence
  property the clause describes does hold on the limit-simulator side (see
  corr_limit_side in the reports).

These tests are strict xfails: they run the criteria exactly as stated
and will flag loudly if the measurements ever change.

A9 passes at walk level n=24.  Its statistic is drawn by composition: A5
certifies that the walk sum equals the spatial trapezoid sum of X at level
n/2 up to the walk's terminal site S_K, so one Binomial(2^n, 1/2) draw of
S_K and a spatial path of about |S_K| sites replace the 2^n-step walk, and
its mixture KS compares with limit draws on an independent horizon of the
same law.  At the former level n=10 only 2^(n/2)=32 spatial sites
contributed and the finite-level variance was +28.9% over the asymptotic
4.545; at n=24 it is +2.5%, about one SE at 5000 replicates, inside the
4-SE gate.
"""

import ast
import inspect
import json
import math
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import fbmvar.acceptance as acceptance
import fbmvar.fbm as fbm_mod
import fbmvar.harness as harness
from fbmvar import (
    GridSpec, SeedSpec, fgn_correlation, get_weight, identity_residuals, ks_two_sample,
    limit_conditional_std, limit_sigma, sample_fbm, sample_fbmbt, variation,
)
from fbmvar.acceptance import ACCEPTANCE, run_check

RUNTIME_LIMITS_S = {"A1": 120.0, "A5": 30.0}


def _run(name, **overrides):
    start = time.perf_counter()
    passed, reports = run_check(name, **overrides)
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    print(f"{name}: {status} ({elapsed:.1f}s) - {ACCEPTANCE[name].summary}")
    for rep in reports:
        for msg in rep.failures:
            print(f"    [{rep.master_seed}] {msg}")
    limit = RUNTIME_LIMITS_S.get(name)
    if limit is not None:
        per_run = elapsed / len(reports)
        assert per_run <= limit, f"{name} took {per_run:.1f}s, budget {limit}s"
    assert passed, f"{name} failed: " + "; ".join(
        msg for rep in reports for msg in rep.failures
    )


def test_a1_variance_matches_sigma():
    _run("A1")


def test_a2_unweighted_marginal_is_gaussian():
    _run("A2")


@pytest.mark.xfail(
    strict=True,
    reason="corr clause unattainable at n=12: the exact corr(statistic, X_1) is 0.124 "
    "at n=12, 0.062 at n=16 and 0.031 at n=20; bound is 0.0624. KS and mean clauses pass.",
)
def test_a3_weighted_mixture_law():
    _run("A3")


@pytest.mark.xfail(
    strict=True,
    reason="same corr clause as A3; the trapezoid KS and the L2 gap decay "
    "clauses pass.",
)
def test_a4_trapezoid_mixture_law_and_gap_decay():
    _run("A4")


def test_a5_exact_identities():
    _run("A5")


def test_a6_endpoint_limits():
    _run("A6")


def test_a7_generator_against_exact_law():
    _run("A7")


def test_a8_overlap_identity_and_boundedness():
    _run("A8")


def test_a9_brownian_time_limit():
    _run("A9")


def test_a10_moment_scaling_band():
    _run("A10")


def test_a4_wall_time_covers_gap_decay_loop(monkeypatch):
    pause = 0.25
    real_map = acceptance.replicate_map

    def slow_map(*args, **kwargs):  # only the decay loop looks it up here
        time.sleep(pause)
        return real_map(*args, **kwargs)

    monkeypatch.setattr(acceptance, "replicate_map", slow_map)
    report = acceptance.check_a4(
        replicates=60, level=6, decay_levels=(4, 6), decay_replicates=20
    )
    assert report.wall_time_s >= 2 * pause


def test_a3_wall_time_covers_limit_sigma(monkeypatch):
    pause = 0.25
    real_sigma = acceptance.limit_sigma

    def slow_sigma(*args, **kwargs):
        time.sleep(pause)
        return real_sigma(*args, **kwargs)

    monkeypatch.setattr(acceptance, "limit_sigma", slow_sigma)
    start = time.perf_counter()
    report = acceptance.check_a3(replicates=60, level=6)
    elapsed = time.perf_counter() - start
    # the pause is inside the report's time, whatever else the call spends
    assert pause <= report.wall_time_s <= elapsed < report.wall_time_s + pause


def _defective_spectrum(last_lag=None, interior_power=1.0):
    """`fbm._circulant_spectrum` with rho_H(j) set to 0 for j > last_lag,
    and the power of the interior frequencies times interior_power."""
    def spectrum(h, count):
        rho = fgn_correlation(h, np.arange(count + 1))
        if last_lag is not None:
            rho[last_lag + 1 :] = 0.0
        lam = np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real
        amp = np.sqrt(np.clip(lam[: count + 1], 0.0, None) * (2 * count))
        amp[1:count] *= np.sqrt(0.5 * interior_power)
        return amp

    return spectrum


@pytest.mark.parametrize("defect", [_defective_spectrum(interior_power=2.0),
                                    _defective_spectrum(last_lag=1),
                                    _defective_spectrum(last_lag=16)],
                         ids=["interior-power-doubled", "rho-zero-beyond-1", "rho-zero-beyond-16"])
def test_a7_covariance_gate_catches_a_wrong_spectrum(defect, monkeypatch):
    # the covariance gate sees every defect; the terminal KS misses the
    # correlations cut beyond lag 16 (p = 0.30 at h = 0.2)
    assert acceptance.check_a7(replicates=2000).passed
    monkeypatch.setattr(fbm_mod, "_circulant_spectrum", defect)
    report = acceptance.check_a7(replicates=2000)
    z = report.tests["max_z h=0.2"]["value"]
    assert z > acceptance.SE_WIDE
    assert f"h=0.2: max covariance z-score {z:.3g} > {acceptance.SE_WIDE}" in report.failures


@pytest.mark.parametrize("name, failure", [
    ("A1", "variance 48.15 vs sigma^2 5.697: gap 42.46 > 3.0 SE"),
    ("A2", "KS p-value 1.369e-25 <= 0.01"),
])
def test_a1_a2_reject_a_doubled_interior_spectrum(name, failure, monkeypatch):
    # a cheap row of the power table: at 500 replicates both checks still
    # see the defect (variance 45.2-48.2 against 5.70, KS p at most 1.4e-25
    # on the three shipped seeds), about 0.1 s each
    check = ACCEPTANCE[name].fn
    assert check(replicates=500).passed
    monkeypatch.setattr(fbm_mod, "_circulant_spectrum", _defective_spectrum(interior_power=2.0))
    assert check(replicates=500).failures == [failure]


#: a small configuration of every check, about 1 s for all ten
SMALL = {
    "A1": dict(replicates=60, level=6),
    "A2": dict(replicates=60, level=6),
    "A3": dict(replicates=60, level=6),
    "A4": dict(replicates=60, level=6, decay_levels=(4, 6), decay_replicates=20),
    "A5": dict(samples=6, levels=(2, 4)),
    "A6": dict(replicates=20, n_list=(4, 6)),
    "A7": dict(replicates=100, level=3, hs=(0.25,)),
    "A8": dict(trials=10, band_ms=(3, 4), band_n=8),
    "A9": dict(replicates=60, level=4, donsker_level=4, donsker_replicates=60),
    "A10": dict(replicates=20, level=8, hs=(0.25,)),
}


@pytest.mark.parametrize("name", ACCEPTANCE)
def test_report_config_is_the_check_arguments(name):
    fn = ACCEPTANCE[name].fn
    canonical = fn(master_seed=5, **SMALL[name]).canonical_json()
    config = json.loads(canonical)["config"]
    assert set(config) == set(inspect.signature(fn).parameters) - {"master_seed", "threads"}
    # the embedded config replays the report, at any thread count
    assert fn(master_seed=5, **config).canonical_json() == canonical
    assert fn(master_seed=5, threads=2, **SMALL[name]).canonical_json() == canonical


#: the argument names a statistical threshold would take
GATE_PARAMETERS = {"alpha", "se_mult", "sigma_tol", "corr_slack", "decay_ratio",
                   "rms_threshold", "identity_tol", "band_factor"}


def test_gates_are_not_arguments():
    # a gate is a module constant of `acceptance`, so no caller can loosen it
    params = {name: set(inspect.signature(spec.fn).parameters) for name, spec in ACCEPTANCE.items()}
    assert {name: p & GATE_PARAMETERS for name, p in params.items() if p & GATE_PARAMETERS} == {}
    assert sum(len(p) for p in params.values()) == 76


@pytest.mark.parametrize("name", [name for name in ACCEPTANCE if name != "A5"])
def test_every_gate_is_recorded_in_tests(name):
    # each entry of `tests` carries its threshold beside the value it bounds
    # (A5's one threshold, residual_tol, is an argument and so in its config)
    report = ACCEPTANCE[name].fn(master_seed=5, **SMALL[name])
    entries = {key: e for key, e in report.tests.items() if key != "corr_limit_side"}
    assert entries
    assert all({"alpha", "bound", "allowed"} & set(e) for e in entries.values())


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A9"])
def test_checks_against_sigma_refuse_r_1_before_sampling(name, monkeypatch):
    # sigma(1, H) = 0 leaves nothing to compare the draws with; A3 and A4
    # used to test the decay of the degenerate variance there instead
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled at r = 1")

    def no_sigma(*args, **kwargs):
        raise AssertionError("sigma evaluated at r = 1")

    monkeypatch.setattr(acceptance, "replicate_map", no_sampling)
    monkeypatch.setattr(acceptance, "SeedSpec", no_sampling)
    monkeypatch.setattr(acceptance, "limit_sigma", no_sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r must be >= 2, got 1"):
            ACCEPTANCE[name].fn(master_seed=5, r=1, **SMALL[name])


#: (check, overrides of its SMALL config, the refusal it must make)
REFUSED = [
    ("A4", {"decay_levels": (4,)}, "decay_levels must be two strictly increasing"),
    ("A4", {"decay_levels": (6, 4)}, "decay_levels must be two strictly increasing"),
    ("A4", {"decay_levels": (4, 4)}, "decay_levels must be two strictly increasing"),
    ("A5", {"levels": ()}, "levels is empty"),
    ("A6", {"n_list": ()}, "n_list must hold at least two strictly increasing"),
    ("A6", {"n_list": (6,)}, "n_list must hold at least two strictly increasing"),
    ("A6", {"n_list": (4, 6, 6)}, "n_list must hold at least two strictly increasing"),
    ("A7", {"hs": ()}, "hs is empty"),
    ("A8", {"trials": 0, "band_hs": ()}, "trials must be >= 1"),
    ("A8", {"trials": 0}, "trials must be >= 1"),
    ("A8", {"band_hs": ()}, "must be non-empty"),
    ("A8", {"band_ms": ()}, "must be non-empty"),
    ("A9", {"f": "gauss"}, "f must be 'one'"),
    ("A9", {"f": "sin"}, "f must be 'one'"),
    ("A9", {"f": "zero"}, "f must be 'one'"),
    ("A9", {"level": 5}, "requires an even level n, got 5"),
    ("A9", {"level": 0}, "grid level must be a positive integer"),
    ("A9", {"level": 64}, "grid has 274877906945 points, above the sampling cap 4194304"),
    ("A9", {"level": 32}, "grid has 4194305 points, above the sampling cap 4194304"),
    ("A9", {"donsker_level": 0}, "donsker_level 0: n must be a positive integer"),
    ("A9", {"donsker_level": 23}, "donsker_level 23: walk has 8388608 steps, not between 1 and"),
    ("A9", {"donsker_level": 2000}, "donsker_level 2000: walk has inf steps, not between 1 and"),
    ("A10", {"hs": ()}, "hs is empty"),
    ("A2", {"replicates": 40}, "replicates must be >= 50 for a KS test, got 40"),
    ("A3", {"replicates": 40}, "replicates must be >= 50 for a KS test, got 40"),
    ("A4", {"replicates": 49}, "replicates must be >= 50 for a KS test, got 49"),
    ("A7", {"replicates": 40}, "replicates must be >= 50 for a KS test, got 40"),
    ("A9", {"replicates": 40}, "replicates must be >= 50 for a KS test, got 40"),
    ("A9", {"donsker_replicates": 40}, "donsker_replicates must be >= 50 for a KS test, got 40"),
    ("A1", {"level": 0}, "grid level must be a positive integer"),
    ("A3", {"level": 0}, "grid level must be a positive integer"),
    ("A4", {"decay_levels": (0, 6)}, "grid level must be a positive integer"),
    ("A1", {"replicates": 0}, "replicates must be >= 1, got 0"),
    ("A1", {"level": 22}, "grid has 4194305 points, above the sampling cap 4194304"),
    ("A3", {"level": 22}, "grid has 4194305 points, above the sampling cap 4194304"),
    ("A4", {"decay_replicates": 0}, "decay_replicates must be >= 1, got 0"),
    ("A4", {"decay_levels": (8, 22)}, "grid has 4194305 points, above the sampling cap"),
    ("A5", {"samples": 2, "levels": (2, 4, 6)}, r"samples must be >= len\(levels\) = 3, got 2"),
    ("A5", {"levels": (4, 7)}, "requires an even level n, got 7"),
    ("A6", {"replicates": 0}, "replicates must be >= 1, got 0"),
    ("A6", {"n_list": (10, 40)}, "grid has 549755813889 points, above the sampling cap"),
    ("A7", {"hs": (0.25, 1.5)}, r"Hurst parameter must lie in \(0, 1\), got 1.5"),
    ("A10", {"hs": (0.25, 1.5)}, r"Hurst parameter must lie in \(0, 1\), got 1.5"),
    ("A10", {"replicates": 0}, "replicates must be >= 1, got 0"),
    ("A8", {"band_n": 22}, "grid has 4194305 points, above the sampling cap 4194304"),
    ("A8", {"band_n": 30}, "grid has 1073741825 points, above the sampling cap 4194304"),
]
REFUSED_IDS = ["A4-one-level", "A4-decreasing", "A4-equal", "A5-levels", "A6-empty", "A6-one-level",
        "A6-repeated", "A7-hs", "A8-both", "A8-trials", "A8-band_hs", "A8-band_ms",
        "A9-gauss", "A9-sin", "A9-zero", "A9-odd-level", "A9-level-0", "A9-level-64",
        "A9-level-32", "A9-donsker-0", "A9-donsker-23", "A9-donsker-2000", "A10-hs",
        "A2-ks-replicates", "A3-ks-replicates", "A4-ks-replicates", "A7-ks-replicates",
        "A9-ks-replicates", "A9-ks-donsker", "A1-level-0", "A3-level-0", "A4-decay-level-0",
        "A1-replicates-0", "A1-level-22", "A3-level-22", "A4-decay-replicates-0",
        "A4-decay-level-22", "A5-samples-below-levels", "A5-odd-level", "A6-replicates-0",
        "A6-level-40", "A7-hs-1.5", "A10-hs-1.5", "A10-replicates-0",
        "A8-band-n-22", "A8-band-n-30"]


@pytest.mark.parametrize("name,overrides,match", REFUSED, ids=REFUSED_IDS)
def test_checks_refuse_work_they_cannot_check(name, overrides, match, monkeypatch):
    # empty work used to pass with nothing checked (A5 divided by zero), A4
    # sampled its whole mixture law before an IndexError or a decay read the
    # wrong way round, and A9's variance target sigma^2 sqrt(2/pi) holds for
    # f = 1 only; a walk of 2^64 steps overflowed A9's binomial draw, and
    # from walk level 32 up A9's spatial path could pass the sampling cap
    # part-way through the replicates; too few samples for a KS test, or a
    # Donsker level with no walk or a walk above the sampling cap, were
    # refused only after everything had been sampled; A2 evaluated sigma
    # before its KS count, so sigma could mask that refusal, and A3 and A4
    # refused after sigma, A4's decay levels after its whole mixture law; a
    # zero replicate count, a grid above the sampling cap, an odd A5 level
    # and the second h of A7 or A10 were refused after sigma or a draw; A8
    # built arrays of 2^band_n entries for any band_n
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    # every draw of A1-A6, A9 and A10 goes through replicate_map, every
    # stream of A7 and A8 starts from a SeedSpec, and every check that
    # compares with sigma evaluates it through limit_sigma
    monkeypatch.setattr(acceptance, "replicate_map", no_sampling)
    monkeypatch.setattr(acceptance, "SeedSpec", no_sampling)
    monkeypatch.setattr(acceptance, "limit_sigma", no_sampling)
    with pytest.raises(ValueError, match=match):
        ACCEPTANCE[name].fn(master_seed=5, **{**SMALL[name], **overrides})


@pytest.mark.parametrize("name,overrides,match", REFUSED, ids=REFUSED_IDS)
def test_the_refusal_pass_verify_runs_refuses_what_its_check_refuses(name, overrides, match,
                                                                     monkeypatch):
    # `verify` runs each check's pass before any check; the pass is the one
    # the check calls, so the two entry points cannot drift apart
    def no_stream(*args, **kwargs):
        raise AssertionError("drew a stream or evaluated sigma")

    monkeypatch.setattr(SeedSpec, "rng", no_stream)
    monkeypatch.setattr(acceptance, "limit_sigma", no_stream)
    spec = ACCEPTANCE[name]
    with pytest.raises(ValueError, match=match):
        spec.refuse(**spec.config(**{**SMALL[name], **overrides}))


def test_a9_refuses_by_the_widest_grid_it_draws():
    # A9's pass builds [0, 64] at level n/2, the grid `_brownian_time_grid`
    # gives |S_K| at 64 sd, 2^(6+n/2) sites; from n = 32 that grid is above
    # the sampling cap
    for n in range(2, 31, 2):
        assert acceptance._brownian_time_grid(n, 2 ** (6 + n // 2)) == GridSpec(n // 2, 0.0, 64.0)
    with pytest.raises(ValueError, match="above the sampling cap"):
        acceptance._brownian_time_grid(32, 2**22)


@pytest.mark.parametrize("name", ACCEPTANCE)
def test_each_check_calls_its_refusal_pass_first(name, monkeypatch):
    # right after `_report`, with the report's config: the whole config,
    # every argument the caller left out at its default
    spec, seen = ACCEPTANCE[name], []

    def stop(**config):
        seen.append(config)
        raise ValueError("refused")

    monkeypatch.setattr(acceptance, spec.refuse.__name__, stop)
    with pytest.raises(ValueError, match="refused"):
        spec.fn(master_seed=5, **SMALL[name])
    assert seen == [spec.config(**SMALL[name])]


@pytest.mark.parametrize("weight", ["one", "gauss"])
def test_a9_composition_draws_have_the_direct_walk_law(weight):
    # the walk sum at level n, drawn directly, against A9's draw: the spatial
    # trapezoid sum up to |S_K| sites, S_K = 2 Binomial(2^n, 1/2) - 2^n
    h, n, r, count = 0.25, 10, 2, 2000
    f = get_weight(weight)
    walks = (sample_fbmbt(h, n, 1.0, SeedSpec(61, i)) for i in range(count))
    direct = [2.0 ** (-n / 4) * identity_residuals(s, f, r, 1.0)["direct"] for s in walks]
    composed = []
    for i in range(count):
        sites = abs(2 * int(SeedSpec(62, i).rng().binomial(2**n, 0.5)) - 2**n)
        path = sample_fbm(h, acceptance._brownian_time_grid(n, sites), SeedSpec(63, i))
        composed.append(variation(path, f, r, "trapezoid").value_at(sites * 2.0 ** (-n / 2)))
    _, p = ks_two_sample(direct, composed)
    assert p > acceptance.ALPHA


def _a9_rows_one_seed_at_a_time(h, level, r, seeds):
    """Reference for A9's chunk: every replicate drawn alone, path by path,
    through the public statistic and conditional std."""
    weight, sigma = get_weight("one"), limit_sigma(r, h)
    k, spacing = 2**level, 2.0 ** -(level // 2)
    rows = []
    for seed in seeds:
        sites = np.abs(2 * seed.substream(0).rng().binomial(k, 0.5, size=2) - k).tolist()
        path = sample_fbm(h, acceptance._brownian_time_grid(level, sites[0]), seed.substream(1))
        stat = variation(path, weight, r, "trapezoid").value_at(sites[0] * spacing)
        path = sample_fbm(h, acceptance._brownian_time_grid(level, sites[1]), seed.substream(2))
        std = limit_conditional_std(path, weight, sigma, sites[1] * spacing)
        rows.append((stat, std * seed.substream(3).rng().standard_normal()))
    return np.array(rows)


def _a9_chunk(monkeypatch, **config):
    """The chunk function A9 hands replicate_map for its statistic."""
    captured = []
    real = acceptance.replicate_map

    def spy(fn, *args, **kwargs):
        captured.append(fn)
        return real(fn, *args, **kwargs)

    monkeypatch.setattr(acceptance, "replicate_map", spy)
    acceptance.check_a9(master_seed=5, replicates=50, donsker_level=4, donsker_replicates=50,
                        **config)
    monkeypatch.setattr(acceptance, "replicate_map", real)
    return captured[0]


def _pads(level, seeds, side):
    k = 2**level
    sites = [abs(2 * int(s.substream(0).rng().binomial(k, 0.5, size=2)[side]) - k) for s in seeds]
    return [acceptance._brownian_time_grid(level, n).npoints - 1 for n in sites]


@pytest.mark.parametrize("level", [6, 14, 24])
def test_a9_grouped_chunk_equals_one_seed_at_a_time(level, monkeypatch):
    h, r = 0.25, 2
    chunk = _a9_chunk(monkeypatch, level=level, h=h, r=r)
    seeds = [SeedSpec(77, i) for i in range(16)]
    assert chunk(seeds).tobytes() == _a9_rows_one_seed_at_a_time(h, level, r, seeds).tobytes()
    # a chunk whose rows all lie on different grids, on both sides
    distinct, pads = [], (set(), set())
    for i in range(400):
        seed = SeedSpec(78, i)
        p0, p1 = _pads(level, [seed], 0)[0], _pads(level, [seed], 1)[0]
        if p0 not in pads[0] and p1 not in pads[1] and p0 != p1:
            distinct.append(seed)
            pads[0].add(p0)
            pads[1].add(p1)
    assert len(distinct) >= 2
    assert chunk(distinct).tobytes() == _a9_rows_one_seed_at_a_time(h, level, r, distinct).tobytes()


def test_a9_groups_are_capped_by_chunk_steps_and_stay_bit_identical(monkeypatch):
    # with CHUNK_STEPS = 32 a group on a 16-site grid holds at most 2 rows,
    # so the 16 rows of a level-6 chunk split into several groups per grid
    h, level, r = 0.3, 6, 2
    monkeypatch.setattr(harness, "CHUNK_STEPS", 32)
    seeds = [SeedSpec(79, i) for i in range(16)]
    sites = np.array([[abs(2 * int(b) - 64) for b in s.substream(0).rng().binomial(64, 0.5, size=2)]
                      for s in seeds])
    tau = sites[:, 0] * 2.0 ** -(level // 2)
    groups = list(acceptance._grid_groups(
        lambda t: acceptance._brownian_time_grid(level, round(t * 2 ** (level // 2))), tau))
    assert sorted(i for rows, _ in groups for i in rows) == list(range(16))
    assert all(len(rows) <= max(1, 32 // (grid.npoints - 1)) for rows, grid in groups)
    grids = [grid for _, grid in groups]
    assert len(grids) > len(set(grids))  # some grid was split at the cap
    chunk = _a9_chunk(monkeypatch, level=level, h=h, r=r)
    assert chunk(seeds).tobytes() == _a9_rows_one_seed_at_a_time(h, level, r, seeds).tobytes()


@pytest.mark.parametrize("name,config", [
    ("A4", dict(replicates=60, level=8, decay_levels=(6, 10), decay_replicates=20)),
    ("A5", dict(samples=48, levels=(4, 8, 10))),
    ("A9", dict(replicates=80, level=14, donsker_level=8, donsker_replicates=60)),
])
def test_reworked_checks_give_the_same_bytes_on_two_threads(name, config):
    # each worker thread keeps its own sampler scratch
    fn = ACCEPTANCE[name].fn
    one = fn(master_seed=11, threads=1, **config).canonical_json()
    assert fn(master_seed=11, threads=2, **config).canonical_json() == one


@pytest.mark.parametrize("seeds", [(), (5, 5, 5), (5, 6, 5)], ids=["empty", "all-equal", "repeat"])
def test_run_check_refuses_empty_or_repeated_seeds(seeds, monkeypatch):
    # an empty tuple raised IndexError; a repeated seed re-ran the same
    # draws and counted them as further votes of the majority
    def no_check(**kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setitem(ACCEPTANCE, "A8", acceptance.CheckSpec("A8", no_check, no_check, True, "stub"))
    with pytest.raises(ValueError, match="master_seeds must be non-empty and distinct"):
        run_check("A8", master_seeds=seeds)


def _empty_report():
    return harness.McReport(kind="X", config={}, master_seed=0)


def test_gate_records_each_clause_and_appends_failures_in_call_order():
    report = _empty_report()
    nan = math.nan
    acceptance._gate(report, 1.0 <= 2.0, "not shown", "a", {"gap": 1.0, "allowed": 2.0})
    acceptance._gate(report, False, "first")
    acceptance._gate(report, nan <= 2.0, "a NaN gap fails", "b", {"gap": nan, "allowed": 2.0})
    acceptance._gate(report, not nan > 2.0, "a NaN ratio is not above its bound", "c", {})
    acceptance._gate(report, nan == 0.0, "a NaN moment is not zero")
    assert list(report.tests) == ["a", "b", "c"]
    assert report.tests["a"] == {"gap": 1.0, "allowed": 2.0}
    assert report.failures == ["first", "a NaN gap fails", "a NaN moment is not zero"]
    assert not report.passed


@pytest.mark.parametrize("p, passed", [(0.5, True), (acceptance.ALPHA, False), (0.0, False),
                                       (math.nan, False)])
def test_ks_clause_passes_only_above_alpha(p, passed):
    report = _empty_report()
    record = acceptance._ks(report, "label ", (0.25, p), "ks")
    assert report.tests == {"ks": record}
    assert set(record) == {"statistic", "p_value", "alpha"}
    assert record["alpha"] == acceptance.ALPHA
    assert report.failures == ([] if passed else [f"label KS p-value {p:.4g} <= {acceptance.ALPHA}"])
    unnamed = _empty_report()
    acceptance._ks(unnamed, "", (0.25, p))
    assert unnamed.tests == {}
    assert unnamed.passed == passed


def test_a8_identity_gate_catches_a_wrong_closed_form(monkeypatch):
    real = acceptance.midpoint_increment_overlap_closed
    monkeypatch.setattr(acceptance, "midpoint_increment_overlap_closed",
                        lambda h, n, s, t: real(h, n, s, t) + 1e-6)
    report = acceptance.check_a8(master_seed=5, **SMALL["A8"])
    worst = report.tests["identity_residual"]["value"]
    assert worst > acceptance.IDENTITY_TOL
    assert report.failures == [f"overlap identity residual {worst:.3e} > {acceptance.IDENTITY_TOL:g}"]


def test_a10_zero_width_gate_fails_a_nan_statistic(monkeypatch):
    # a zero-width window's moment is exactly 0 unless the statistic is NaN
    real = acceptance.variation
    monkeypatch.setattr(acceptance, "variation", lambda *args: types.SimpleNamespace(
        values=np.full_like(real(*args).values, np.nan)))
    report = acceptance.check_a10(master_seed=5, replicates=20, level=4, hs=(0.25,),
                                  widths=(0.5, 0.25, 2**-6))
    assert report.failures == ["h=0.25: pair (0.5, 0.515625) has zero width but moment nan"]


def test_every_clause_goes_through_the_one_gate():
    # `.failures.append` is called in `_gate` alone, and ALPHA is compared
    # with a p-value in `_ks` alone
    tree = ast.parse(Path(acceptance.__file__).read_text())
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                owner[node] = fn.name  # inner functions are walked later and win
    appends = [owner.get(node) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "append" and isinstance(node.func.value, ast.Attribute)
               and node.func.value.attr == "failures"]
    alpha = [owner.get(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(isinstance(side, ast.Name) and side.id == "ALPHA"
                     for side in [node.left, *node.comparators])]
    assert appends == ["_gate"]
    assert alpha == ["_ks"]
