"""Pinned output bits: the canonical reports of all ten checks at one seed,
and of failing configurations that cover the failure texts, as sha256
prefixes of `canonical_json()`.

A change that keeps every sampled bit keeps these digests; one that moves a
bit on purpose (a new sampler, a new stream layout) must re-record them and
re-run A1-A10.  The bits depend on numpy's PCG64, ziggurat and pocketfft
and on scipy's special functions, so the digests are checked only on the
versions they were recorded on.
"""

import hashlib

import numpy as np
import pytest
import scipy

from fbmvar import acceptance

SEED = 20260809

#: (check, overrides, digest): every check, the sampling ones with cheap
#: replicates and A6, A7 and A8 at their defaults
PINNED = [
    ("check_a1", {"replicates": 500}, "20da637341947033"),
    ("check_a2", {"replicates": 500}, "1343bc7e40d2cd43"),
    ("check_a3", {"replicates": 500}, "d0d15a892a54d6b5"),
    ("check_a4", {"replicates": 500, "decay_replicates": 100}, "162b4fb1660fe713"),
    ("check_a10", {"replicates": 200}, "47d1fe8643c1bbb5"),
    ("check_a5", {}, "3726c22634b8be15"),
    ("check_a9", {"level": 14, "replicates": 1000, "donsker_replicates": 2000},
     "945cdc550e877fa9"),
    ("check_a6", {}, "631a3172d9dcf362"),
    ("check_a7", {}, "df9396be87d7851a"),
    ("check_a8", {}, "71f39894791be438"),
]

#: (check, seed, overrides, digest): failing reports, so that the failure
#: texts and their order are pinned too.  Each fails for a real reason: a
#: level too coarse for the limit, a weight or H outside the theorem, a
#: caller's residual_tol of 0 against float rounding, or, for the A7 and
#: Donsker seeds, a sampling fluctuation beyond the gate at few replicates.
#: A8's identity residual and A10's zero-width moment cannot fail; the
#: unit test of `acceptance._gate` covers them.
FAILING = [
    ("check_a1", SEED, {"level": 2, "replicates": 500, "h": 0.45}, "6b3b7710ace09d72"),
    ("check_a2", SEED, {"level": 2, "replicates": 200}, "cff051c0dd928c1d"),
    ("check_a3", SEED, {"level": 1, "replicates": 60}, "5ffad76d808adb08"),
    ("check_a3", SEED, {"level": 2, "replicates": 200, "f": "sin"}, "b57af5e5b97fe272"),
    ("check_a3", 29, {"level": 6, "replicates": 60, "r": 1, "f": "zero"}, "c83094f572be9460"),
    ("check_a4", SEED, {"level": 2, "replicates": 60, "decay_levels": (2, 3),
                        "decay_replicates": 60}, "ab0ef7ff4c9cd5bf"),
    ("check_a5", SEED, {"samples": 20, "levels": (4, 6), "residual_tol": 0.0},
     "4e335f5ec3dee41c"),
    ("check_a6", SEED, {"replicates": 50, "n_list": (2, 3)}, "af7e78dbc9ee6e96"),
    ("check_a7", 413, {"replicates": 50, "level": 1, "hs": (0.25,)}, "021323dce9c892e4"),
    ("check_a7", 45, {"replicates": 50, "level": 1, "hs": (0.25,)}, "de39298b4eb08d50"),
    ("check_a8", SEED, {"trials": 1, "band_hs": (0.9,), "band_ms": (2, 6), "band_n": 8},
     "45547a6014beba4b"),
    ("check_a9", SEED, {"level": 2, "replicates": 60, "donsker_level": 1,
                        "donsker_replicates": 60}, "52a82865c41c23cd"),
    ("check_a9", SEED, {"level": 2, "replicates": 500, "donsker_level": 1,
                        "donsker_replicates": 60}, "be28eedd51f147b6"),
    ("check_a9", SEED, {"level": 6, "replicates": 2000, "h": 0.45, "donsker_level": 4,
                        "donsker_replicates": 60}, "0c84a4914195a806"),
    ("check_a9", 1667, {"level": 2, "replicates": 60, "donsker_level": 1,
                        "donsker_replicates": 50}, "e3e2b03d27e81cb9"),
    ("check_a9", 20, {"level": 2, "replicates": 60, "donsker_level": 2,
                      "donsker_replicates": 50}, "9c328044cfd5c8bd"),
    ("check_a10", SEED, {"replicates": 100, "level": 10, "hs": (0.49,), "p": 6,
                         "widths": (0.5, 2**-10)}, "4fadfb5896b40ae4"),
]

RECORDED_ON = {"numpy": "2.4.6", "scipy": "1.17.1"}

recorded_versions_only = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != (RECORDED_ON["numpy"], RECORDED_ON["scipy"]),
    reason=f"digests recorded on numpy {RECORDED_ON['numpy']} and scipy {RECORDED_ON['scipy']}",
)


def _digest(report) -> str:
    return hashlib.sha256(report.canonical_json().encode()).hexdigest()[:16]


@recorded_versions_only
@pytest.mark.parametrize("name, overrides, digest", PINNED, ids=[p[0] for p in PINNED])
def test_check_reports_keep_their_bits(name, overrides, digest):
    report = getattr(acceptance, name)(master_seed=SEED, threads=1, **overrides)
    assert _digest(report) == digest


@recorded_versions_only
@pytest.mark.parametrize("name, seed, overrides, digest", FAILING,
                         ids=[f"{p[0]}-{p[3][:6]}" for p in FAILING])
def test_failing_reports_keep_their_bits(name, seed, overrides, digest):
    report = getattr(acceptance, name)(master_seed=seed, threads=1, **overrides)
    assert report.failures
    assert _digest(report) == digest
