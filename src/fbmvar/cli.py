"""Command-line entry point.

Subcommands: `sigma`, `simulate {fbm|fbmbt}`, `verify <check|all>`; each
one's options are the keys of `_DEFAULTS`.  `sigma --tol` defaults to
`gaussian.SIGMA_TOL`, the tolerance every check evaluates sigma at.
`simulate fbmbt` has no tolerance option: it gates its identity residuals
at A5's bound `brownian_time.RESIDUAL_TOL` and records it beside them.
Configuration may come from a flat key=value file (--config); explicit
flags override file values.  Every emitted artifact embeds the effective
config, the master seed, and the package version, and is byte-reproducible
from that embedded config on the same environment, whose Python, numpy and
scipy versions it records (the FFT backend can move output bits).  A file
that cannot be read or written is a usage error too: an --out whose
directory is missing or not writable, or which is a directory, is refused
with the config, before anything is computed or printed.  A refusal the
library makes before any work (sigma's r, H and tol, a grid's level, a
walk's parity and length) is not restated here: its ValueError becomes
the usage error.  The CLI checks only what the library never sees or
checks too late: a flag's name in the message and an unused --r or --f.
`verify` runs the refusal pass of every check it names, with its
overrides, before any check runs, so a refused override prints nothing.

The module adds `argparse` and `json` to what `import fbmvar` loads; the
`scipy` package loads only when an artifact records its version, and
`tempfile` only to probe an --out directory, so a command without --out
imports neither.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from .acceptance import ACCEPTANCE, DEFAULT_MASTER_SEEDS, run_check
from .brownian_time import RESIDUAL_TOL, identity_residuals, sample_fbmbt
from .fbm import GridSpec, SeedSpec, sample_fbm
from .gaussian import (
    SIGMA_TOL,
    ConvergenceError,
    bivariate_odd_moment,
    double_factorial,
    fgn_correlation,
    hermite_coeffs,
    limit_sigma,
)
from .variations import RULES, variation
from .version import VERSION
from .weights import REGISTRY, get_weight

#: type and help of every option; option "t_min" is the flag --t-min and
#: the config-file key t_min, parsed with the option's type
_FLAGS = {
    "h": dict(type=float, help="Hurst parameter"),
    "r": dict(type=int, help="power parameter (statistic order 2r-1)"),
    "n": dict(type=int, help="dyadic level"),
    "t": dict(type=float, help="time horizon"),
    "t_min": dict(type=float, help="left grid endpoint (<= 0)"),
    "f": dict(type=str, help=f"weight id, one of {sorted(REGISTRY)}"),
    "replicates": dict(type=int, help="Monte Carlo replicates"),
    "seed": dict(type=int, help="master seed"),
    "threads": dict(type=int, help="worker thread cap"),
    "out": dict(type=str, help="write the JSON artifact here instead of stdout"),
    "dump_paths": dict(type=str, help="directory for path CSV dumps"),
    "dump_series": dict(type=str, help="directory for series CSV dumps"),
    "dump_walk": dict(type=str, help="directory for walk CSV dumps"),
    "tol": dict(type=float, help="bound on sigma's certified series tail"),
}

#: each subcommand's options, in flag order, with their defaults
_DEFAULTS = {
    "sigma": {"r": 2, "h": 0.25, "tol": SIGMA_TOL, "out": None},
    "fbm": {"h": 0.25, "n": 10, "t": 1.0, "t_min": 0.0, "r": 1, "f": "one",
            "seed": DEFAULT_MASTER_SEEDS[0], "out": None, "dump_paths": None,
            "dump_series": None},
    "fbmbt": {"h": 0.25, "n": 8, "t": 1.0, "r": 2, "f": "one",
              "seed": DEFAULT_MASTER_SEEDS[0], "out": None, "dump_walk": None},
    "verify": {"seed": None, "replicates": None, "n": None, "threads": 1, "out": None},
}


class UsageError(Exception):
    """Invalid parameters; maps to exit code 2 with a one-line diagnostic."""


def load_config(path: str) -> dict:
    """Flat key=value config file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"--config {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"--config {path}: not a UTF-8 text file") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def merge_config(args: argparse.Namespace, command: str) -> dict:
    """Effective config: hard defaults < config file (--config) < explicit
    flags.  A file key the subcommand has no option for is refused, and so
    is an --out that `_check_out` refuses.
    """
    defaults = _DEFAULTS[command]
    merged = dict(defaults)
    for key, raw in (load_config(args.config) if args.config else {}).items():
        if key not in defaults:
            raise UsageError(f"config key '{key}' is not an option of this command")
        try:
            merged[key] = _FLAGS[key]["type"](raw)
        except ValueError:
            raise UsageError(f"config key '{key}': cannot parse {raw!r}") from None
    for key in defaults:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    if merged["out"]:
        _check_out(merged["out"])
    return merged


def _check_out(out: str) -> None:
    """Refuse an --out that is a directory, lies in no directory, or lies in
    one where no file can be made; the probe makes and removes a temporary
    file beside it and never opens the target itself."""
    import tempfile

    path = Path(out)
    if path.is_dir() or not path.parent.is_dir():
        raise UsageError(f"--out {out}: not a file in an existing directory")
    try:
        fd, probe = tempfile.mkstemp(prefix=".fbmvar-", dir=path.parent)
    except OSError as exc:
        raise UsageError(f"--out {out}: cannot write in its directory: {exc.strerror}") from None
    os.close(fd)
    os.unlink(probe)


def _artifact(command: str, cfg: dict, master_seed, **body) -> dict:
    """An artifact: its command, version, config, seed and environment,
    then `body`; the environment stays outside the canonical reports."""
    import scipy

    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "scipy": scipy.__version__}
    return {"command": command, "version": VERSION, "config": cfg, "master_seed": master_seed,
            "environment": environment, **body}


def _emit(document: dict, out: str | None) -> None:
    text = json.dumps(document, sort_keys=True, indent=1) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"--out {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _write_csv(directory: str, name: str, header: str, columns) -> str:
    """Write `columns` under `header` to directory/name, making the
    directory if needed; the file's path."""
    path = Path(directory) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            for row in zip(*columns):
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {name} under {directory}: {exc.strerror}") from None
    return str(path)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def cmd_sigma(args) -> int:
    cfg = merge_config(args, "sigma")
    r, h, tol = cfg["r"], cfg["h"], cfg["tol"]
    try:
        sigma = limit_sigma(r, h, tol)
    except (ValueError, ConvergenceError, OverflowError) as exc:
        raise UsageError(f"sigma(r={r}, H={h}) cannot be evaluated: {exc}") from None
    print(f"{'r':>3} {'H':>8} {'sigma':>18} {'sigma^2':>18} {'tail_bound':>12}")
    print(f"{r:>3} {h:>8.4g} {sigma.value:>18.12g} {sigma.value ** 2:>18.12g} "
          f"{sigma.tail_bound:>12.3g}")
    if args.verbose:
        print(f"\n{'j':>3} {'rho_H(j)':>15} {'series term (2*E[..])':>22} {'naive partial sum':>18}")
        running = float(double_factorial(4 * r - 2))  # mu_{4r-2}, the j = 0 term
        for j in range(1, 21):
            rho = fgn_correlation(h, j)
            term = 2.0 * bivariate_odd_moment(r, rho)
            running += term
            print(f"{j:>3} {rho:>15.8g} {term:>22.10g} {running:>18.10g}")
        c_r = hermite_coeffs(r).c[-1]  # the coefficient of H_1 in x^(2r-1)
        print("  ... naive partial sums of the series, rank-1 terms included; limit_sigma sums")
        print(f"  the rank-1 part in closed form (-c_r^2 = {-c_r * c_r}) plus {sigma.terms_used} "
              "terms of rank >= 3")
    if cfg["out"]:
        results = {"sigma": sigma.value, "sigma_sq": sigma.value**2,
                   "tail_bound": sigma.tail_bound, "terms_used": sigma.terms_used}
        _emit(_artifact("sigma", cfg, None, results=results), cfg["out"])
    return 0


def _check_process(cfg: dict) -> None:
    """The option checks `simulate fbm` and `simulate fbmbt` share."""
    if not 0.0 < cfg["h"] < 1.0:
        raise UsageError(f"--h must lie in (0, 1), got {cfg['h']}")
    if cfg["r"] < 1:
        raise UsageError("--r must be >= 1")
    if not cfg["t"] > 0.0:
        raise UsageError("--t must be positive")
    if cfg["f"] not in REGISTRY:
        raise UsageError(f"--f must be one of {sorted(REGISTRY)}")
    if cfg["seed"] < 0:
        raise UsageError(f"--seed must be >= 0, got {cfg['seed']}")


def cmd_simulate_fbm(args) -> int:
    cfg = merge_config(args, "fbm")
    _check_process(cfg)
    try:
        grid = GridSpec(level=cfg["n"], t_min=cfg["t_min"], t_max=cfg["t"])
        path = sample_fbm(cfg["h"], grid, SeedSpec(cfg["seed"], 0))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    results = {"terminal_value": path.value_at(cfg["t"]),
               "points": grid.npoints}
    if cfg["dump_series"]:  # before --dump-paths: an overflow writes no file
        f = get_weight(cfg["f"])
        with np.errstate(over="ignore", invalid="ignore"):
            series = [variation(path, f, cfg["r"], rule) for rule in RULES]
            series.append(variation(path, None, cfg["r"]))
            columns = [series[0].times] + [s.values for s in series]
        if not all(np.isfinite(c).all() for c in columns):
            raise UsageError(f"--r {cfg['r']} overflows the variation series; lower --r")
        results["series_csv"] = _write_csv(cfg["dump_series"], "series.csv",
                                           "t,phi,psi,left,right,unweighted", columns)
    if cfg["dump_paths"]:
        results["path_csv"] = _write_csv(cfg["dump_paths"], "fbm_path.csv", "t,value",
                                         (grid.times(), path.values))
    _emit(_artifact("simulate fbm", cfg, cfg["seed"], results=results), cfg["out"])
    return 0


def cmd_simulate_fbmbt(args) -> int:
    cfg = merge_config(args, "fbmbt")
    _check_process(cfg)
    try:  # an odd --n or an oversized walk is refused before anything is drawn
        sample = sample_fbmbt(cfg["h"], cfg["n"], cfg["t"], SeedSpec(cfg["seed"], 0))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    res = identity_residuals(sample, get_weight(cfg["f"]), cfg["r"])
    results = {
        "walk_variation": res["direct"],
        "spatial_variation_at_terminal": res["composed"],
        "terminal_site": res["terminal_site"],
        "residual_crossing": res["residual_crossing"],
        "residual_composition": res["residual_composition"],
        "residual_tol": RESIDUAL_TOL,
    }
    if cfg["dump_walk"]:
        k = np.arange(len(sample.walk.s))
        results["walk_csv"] = _write_csv(cfg["dump_walk"], "walk.csv", "k,S_k,Z_k",
                                         (k, sample.walk.s, sample.z_values()))
    _emit(_artifact("simulate fbmbt", cfg, cfg["seed"], results=results), cfg["out"])
    # numpy's max propagates NaN, so a residual lost to overflow fails the gate
    worst = float(np.max([res["residual_crossing"], res["residual_composition"]]))
    if not worst <= RESIDUAL_TOL:
        print(f"identity residual {worst:.3e} exceeds {RESIDUAL_TOL:g}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    cfg = merge_config(args, "verify")
    cpus = os.cpu_count() or 1
    if not 1 <= cfg["threads"] <= cpus:
        raise UsageError(f"--threads must lie in 1..{cpus}, got {cfg['threads']}")
    names = list(ACCEPTANCE) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in ACCEPTANCE:
            raise UsageError(f"unknown check '{name}'; known: {', '.join(ACCEPTANCE)} or 'all'")
    if cfg["seed"] is not None and cfg["seed"] < 0:
        raise UsageError(f"--seed must be >= 0, got {cfg['seed']}")
    seeds = DEFAULT_MASTER_SEEDS if cfg["seed"] is None else (
        (cfg["seed"],) + tuple(s for s in DEFAULT_MASTER_SEEDS if s != cfg["seed"])[:2]
    )
    # flag -> (check parameter it sets, value), for the overrides given
    given = {"--replicates": ("replicates", cfg["replicates"]), "--n": ("level", cfg["n"])}
    given = {flag: pv for flag, pv in given.items() if pv[1] is not None}
    runs = {}  # name -> (overrides, ignored flags): every pass runs before any check
    for name in names:
        spec = ACCEPTANCE[name]
        params = spec.config()
        overrides = {param: value for param, value in given.values() if param in params}
        ignored = [flag for flag, (param, _) in given.items() if param not in params]
        if ignored and args.suite != "all":
            raise UsageError(f"{name} has no parameter for {', '.join(ignored)}")
        try:
            spec.refuse(**spec.config(**overrides))
        except ValueError as exc:
            raise UsageError(f"{name}: {exc}") from None
        runs[name] = overrides, ignored
    checks = {}
    all_passed = True
    for name, (overrides, ignored) in runs.items():
        passed, reports = run_check(name, master_seeds=seeds, threads=cfg["threads"], **overrides)
        seconds = sum(rep.wall_time_s for rep in reports)  # every seed run; not in the artifact
        all_passed &= passed
        status = "PASS" if passed else "FAIL"
        extra = "" if len(reports) == 1 else f" (majority over {len(reports)} seeds)"
        note = f" (ignored: {', '.join(ignored)})" if ignored else ""
        print(f"{name}: {status}{extra} in {seconds:.2f} s - {ACCEPTANCE[name].summary}{note}")
        for rep in reports:
            for msg in rep.failures:
                print(f"    [{rep.master_seed}] {msg}")
        checks[name] = [rep.to_dict() for rep in reports]
    if cfg["out"]:
        _emit(_artifact("verify", cfg, seeds[0], passed=all_passed, checks=checks), cfg["out"])
    return 0 if all_passed else 1


def _add_common(parser, command):
    for key in _DEFAULTS[command]:
        parser.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    parser.add_argument("--config", type=str, help="key=value config file (flags override)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmvar",
        description="Weighted odd-power variations of fractional Brownian motion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sigma = sub.add_parser("sigma", help="variance-series constant sigma(r, H)")
    _add_common(p_sigma, "sigma")
    p_sigma.add_argument("--verbose", action="store_true", help="list the first series terms")
    p_sigma.set_defaults(run=cmd_sigma)

    p_sim = sub.add_parser("simulate", help="generate paths/walks and dump statistics")
    sim_sub = p_sim.add_subparsers(dest="process", required=True)
    p_fbm = sim_sub.add_parser("fbm", help="two-sided fractional Brownian motion")
    _add_common(p_fbm, "fbm")
    p_fbm.set_defaults(run=cmd_simulate_fbm)
    p_bt = sim_sub.add_parser("fbmbt", help="fBm in Brownian time (walk embedding)")
    _add_common(p_bt, "fbmbt")
    p_bt.set_defaults(run=cmd_simulate_fbmbt)

    p_verify = sub.add_parser("verify", help="run acceptance checks")
    p_verify.add_argument("suite", help="check name (A1..A10) or 'all'")
    _add_common(p_verify, "verify")
    p_verify.set_defaults(run=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
