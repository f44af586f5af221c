"""The benchmark's workloads: which fbmvar calls each one makes, and how
each call's output is validated.

An operation is one acceptance check called once on the workload seed
(no majority re-run, so the work does not depend on a verdict), or one
`limit_sigma` evaluation.  Checks run with `threads=1`.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import random
import time
from dataclasses import dataclass

#: (check function, overrides) per workload; the smoke variant is a tiny
#: configuration of the same calls for the benchmark's own tests
CHECKS = {
    # Every sampling check, each replicate cheap, so per-replicate Python
    # overhead dominates.  A1-A4 and A10 on n = 12 paths with a tenth of
    # the shipped replicates; A4's own clock stops before its gap-decay
    # loop, which the benchmark's does not.  A5 at its defaults and A9 at
    # walk level 14 sample tiny spatial paths whose grid size changes from
    # replicate to replicate, which works the spectrum cache.
    "many_short": {
        "full": (
            ("check_a1", {"replicates": 500}),
            ("check_a2", {"replicates": 500}),
            ("check_a3", {"replicates": 500}),
            ("check_a4", {"replicates": 500, "decay_replicates": 100}),
            ("check_a10", {"replicates": 200}),
            ("check_a5", {}),
            ("check_a9", {"level": 14, "replicates": 1000, "donsker_replicates": 2000}),
        ),
        "smoke": (
            ("check_a1", {"replicates": 200, "level": 8}),
            ("check_a2", {"replicates": 200, "level": 8}),
            ("check_a3", {"replicates": 200, "level": 8}),
            ("check_a4", {"replicates": 60, "level": 8, "decay_levels": (6, 8), "decay_replicates": 60}),
            ("check_a10", {"replicates": 100, "level": 9}),
            ("check_a5", {"samples": 30}),
            ("check_a9", {"level": 6, "replicates": 200, "donsker_level": 8, "donsker_replicates": 200}),
        ),
    },
}

#: limit_sigma(r, h, SIGMA_TOL) over this grid; (3, 0.495) and (3, 0.499)
#: lie in the documented range H < 1/2 and raise ConvergenceError today
SIGMA_POINTS = {
    "full": tuple((r, h) for r in (2, 3) for h in (0.1, 0.25, 0.4, 0.45, 0.49, 0.495, 0.499)),
    "smoke": tuple((r, h) for r in (2, 3) for h in (0.1, 0.25, 0.499)),
}
SIGMA_TOL = 1e-10

WORKLOADS = (*CHECKS, "sigma_sweep")

#: fBm paths plus walks one check samples, from its effective arguments
PATHS = {
    "check_a1": lambda a: a["replicates"],
    "check_a2": lambda a: a["replicates"],
    # statistic side and limit side, one path each per replicate
    "check_a3": lambda a: 2 * a["replicates"],
    "check_a4": lambda a: 2 * a["replicates"] + len(a["decay_levels"]) * a["decay_replicates"],
    # one walk and one spatial path per sample
    "check_a5": lambda a: 2 * a["samples"],
    "check_a9": lambda a: 2 * a["replicates"] + a["donsker_replicates"],
    "check_a10": lambda a: len(a["hs"]) * a["replicates"],
}


@dataclass
class Op:
    """One timed call: a check on the workload seed, or one sigma point."""

    name: str
    span: str  # root span name in the traced run
    fn: object
    args: tuple
    kwargs: dict
    paths: int  # fBm paths plus walks it samples; for sigma points, 1 evaluation


@dataclass
class Outcome:
    name: str
    seconds: float
    failed: bool = False
    wrong: bool = False  # returned a result that fails validation
    passed: bool | None = None
    self_reported_s: float | None = None
    sha256: str | None = None
    error: str | None = None

    def failure(self, message: str, wrong: bool) -> None:
        self.failed = True
        self.wrong = self.wrong or wrong
        self.error = message


def build_ops(fbmvar, workload: str, seed: int, variant: str = "full") -> list[Op]:
    """The workload's operations in call order; the seed fixes every input."""
    if workload == "sigma_sweep":
        points = list(SIGMA_POINTS[variant])
        random.Random(seed).shuffle(points)  # the seed fixes the call order
        return [
            Op(f"limit_sigma(r={r},h={h})", "gaussian.limit_sigma", fbmvar.gaussian.limit_sigma,
               (r, h, SIGMA_TOL), {}, 1)
            for r, h in points
        ]
    ops = []
    for name, overrides in CHECKS[workload][variant]:
        fn = getattr(fbmvar.acceptance, name)
        kwargs = {"master_seed": seed, "threads": 1, **overrides}
        bound = inspect.signature(fn).bind(**kwargs)
        bound.apply_defaults()
        ops.append(Op(name, f"acceptance.{name}", fn, (), kwargs, PATHS[name](bound.arguments)))
    return ops


def validate(fbmvar, op: Op, seed: int, outcome: Outcome, result) -> None:
    """Record the output's verdict, digest and failure on `outcome`."""
    if op.span == "gaussian.limit_sigma":
        _validate_sigma(fbmvar, outcome, result)
    else:
        _validate_report(fbmvar, op, seed, outcome, result)


def _validate_sigma(fbmvar, outcome: Outcome, sig) -> None:
    if not isinstance(sig, fbmvar.gaussian.LimitSigma):
        outcome.failure(f"returned {type(sig).__name__}, not LimitSigma", wrong=True)
        return
    payload = json.dumps([sig.r, sig.h.h, sig.value, sig.tail_bound, sig.terms_used])
    outcome.sha256 = hashlib.sha256(payload.encode()).hexdigest()
    if not (math.isfinite(sig.value) and sig.value > 0.0 and sig.terms_used >= 1):
        outcome.failure(f"sigma {sig.value!r} from {sig.terms_used} terms", wrong=True)
    elif not sig.tail_bound <= SIGMA_TOL:
        outcome.failure(f"tail bound {sig.tail_bound:.3e} > tol {SIGMA_TOL:g}", wrong=True)
    outcome.passed = not outcome.failed


def _validate_report(fbmvar, op: Op, seed: int, outcome: Outcome, rep) -> None:
    if not isinstance(rep, fbmvar.harness.McReport):
        outcome.failure(f"returned {type(rep).__name__}, not McReport", wrong=True)
        return
    canonical = rep.canonical_json()
    outcome.sha256 = hashlib.sha256(canonical.encode()).hexdigest()
    outcome.passed = rep.passed
    outcome.self_reported_s = rep.wall_time_s
    if rep.master_seed != seed or json.loads(canonical)["master_seed"] != seed:
        outcome.failure(f"report carries master_seed {rep.master_seed}, not {seed}", wrong=True)
    elif not isinstance(rep.passed, bool) or rep.passed != (not rep.failures):
        outcome.failure(f"verdict {rep.passed!r} disagrees with failures {rep.failures}", wrong=True)
    elif op.name == "check_a5":
        tol = rep.config["residual_tol"]
        for kind, value in rep.estimates["max_residual"].items():
            if not value <= tol:
                outcome.failure(f"A5 {kind} residual {value:.3e} > {tol:g}", wrong=True)


def run_op(fbmvar, op: Op, seed: int, tracer=None) -> Outcome:
    """Call the operation once and validate what it returns.

    Untraced, the benchmark's clock times the call; traced, the root span
    around it does.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.fn(*op.args, **op.kwargs)
            seconds = time.perf_counter() - start
        else:
            result, seconds = tracer.call(op.span, op.fn, *op.args, **op.kwargs)
            tracer.tally(op.span, result)
    except fbmvar.gaussian.ConvergenceError as exc:
        # a documented refusal, not a wrong answer: failed, still correct
        outcome = Outcome(op.name, time.perf_counter() - start)
        outcome.failure(f"ConvergenceError: {exc}", wrong=False)
        return outcome
    except Exception as exc:  # any other raise is a defect in the program
        outcome = Outcome(op.name, time.perf_counter() - start)
        outcome.failure(f"{type(exc).__name__}: {exc}", wrong=True)
        return outcome
    outcome = Outcome(op.name, seconds)
    validate(fbmvar, op, seed, outcome, result)
    return outcome
