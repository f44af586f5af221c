"""Pinned output bits: the canonical reports of seven sampling checks at one
seed, as sha256 prefixes of `canonical_json()`.

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

#: (check, overrides, digest): every sampling check with cheap replicates
PINNED = [
    ("check_a1", {"replicates": 500}, "20da637341947033"),
    ("check_a2", {"replicates": 500}, "1343bc7e40d2cd43"),
    ("check_a3", {"replicates": 500}, "d0d15a892a54d6b5"),
    ("check_a4", {"replicates": 500, "decay_replicates": 100}, "162b4fb1660fe713"),
    ("check_a10", {"replicates": 200}, "47d1fe8643c1bbb5"),
    ("check_a5", {}, "3726c22634b8be15"),
    ("check_a9", {"level": 14, "replicates": 1000, "donsker_replicates": 2000},
     "945cdc550e877fa9"),
]

RECORDED_ON = {"numpy": "2.4.6", "scipy": "1.17.1"}


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != (RECORDED_ON["numpy"], RECORDED_ON["scipy"]),
    reason=f"digests recorded on numpy {RECORDED_ON['numpy']} and scipy {RECORDED_ON['scipy']}",
)
@pytest.mark.parametrize("name, overrides, digest", PINNED, ids=[p[0] for p in PINNED])
def test_check_reports_keep_their_bits(name, overrides, digest):
    report = getattr(acceptance, name)(master_seed=SEED, threads=1, **overrides)
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest()[:16] == digest
