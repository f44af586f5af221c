"""CLI tests: exit codes, artifact echo, dump stability, config file."""

import json
import math
import platform
import re
import time
from pathlib import Path

import numpy
import pytest
import scipy

from fbmvar import McReport, SeedSpec, cli, fbm
from fbmvar.acceptance import check_a1
from fbmvar.brownian_time import RESIDUAL_TOL, SAMPLE_WALK_CAP
from fbmvar.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sigma_degenerate_value(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--r", "1", "--h", "0.3")
    assert code == 0
    row = out.splitlines()[1].split()
    assert float(row[2]) == 0.0


def test_sigma_known_value(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--r", "2", "--h", "0.25")
    assert code == 0
    assert "2.38681223" in out


def test_sigma_prints_the_sigma_the_checks_use(tmp_path, capsys):
    out = tmp_path / "sigma.json"
    code, _, _ = run_cli(capsys, "sigma", "--r", "2", "--h", "0.25", "--out", str(out))
    assert code == 0
    written = json.loads(out.read_text())["results"]["sigma"]
    assert written == check_a1(replicates=20, level=4, r=2, h=0.25).estimates["sigma"]


def test_sigma_verbose_lists_terms(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--r", "2", "--h", "0.25", "--verbose")
    assert code == 0
    assert "rho_H(j)" in out
    assert len(out.splitlines()) > 20


def test_sigma_verbose_says_what_limit_sigma_sums(capsys):
    # the listed column is the naive partial sum, rank-1 terms included; at
    # r = 2 sigma^2 adds -c_2^2 = -9 in closed form to 175 rank >= 3 terms
    code, out, _ = run_cli(capsys, "sigma", "--r", "2", "--h", "0.25", "--verbose")
    assert code == 0
    lines = out.splitlines()
    assert lines[3].split()[-3:] == ["naive", "partial", "sum"]
    assert float(lines[-3].split()[-1]) == pytest.approx(6.690830467)  # not sigma^2 = 5.69687
    footer = " ".join(" ".join(lines[-2:]).split())
    assert footer.endswith("rank-1 terms included; limit_sigma sums the rank-1 part in closed "
                           "form (-c_r^2 = -9) plus 175 terms of rank >= 3")


#: argv that must exit 2 with one line, before anything is drawn
BAD_ARGV = [
    ("sigma", "--r", "3", "--h", "0.45", "--tol", "1e-30"),  # tail needs too many terms
    ("sigma", "--r", "40", "--h", "0.3"),  # likewise
    ("sigma", "--r", "200", "--h", "0.3"),  # coefficients overflow a float
    ("sigma", "--r", "1000000", "--h", "0.3"),  # refused before any factorial
    ("sigma", "--h", "0.3", "--tol", "nan"),
    ("sigma", "--h", "0.6"),  # this and the next four: refused by the library alone
    ("sigma", "--r", "0"),
    ("simulate", "fbm", "--n", "0"),
    ("simulate", "fbmbt", "--n", "7"),
    ("simulate", "fbmbt", "--n", "0"),
    ("simulate", "fbm", "--t", "inf"),
    ("simulate", "fbm", "--seed", "-1"),
    ("simulate", "fbmbt", "--seed", "-1"),
    ("verify", "A1", "--seed", "-1"),  # refused before any check runs
    ("verify", "A8", "--threads", "0"),  # would run serially
    ("verify", "A8", "--threads", "1000000"),  # would start a thread per replicate
    ("verify", "A1", "--n", "40"),  # would allocate 8 TiB
    ("simulate", "fbm", "--n", "1100"),  # 2^n overflows a float
    *(("verify", name, "--n", "2000") for name in ("A1", "A2", "A3", "A4", "A10")),
    ("verify", "A3", "--n", "22"),  # one level above sample_fbm's cap
    ("verify", "A4", "--n", "22"),
    ("verify", "A10", "--n", "22"),
    ("verify", "all", "--n", "24"),  # A9's default level, but A1's grid
    ("verify", "A9", "--n", "64"),  # a walk too long for a 64-bit step count
    ("verify", "A7", "--n", "14"),  # an 8.6 GB covariance above A7's dense covariance cap
    ("verify", "A10", "--n", "3"),  # one live window: no band would be tested
    ("verify", "all", "--n", "5", "--replicates", "200"),  # odd: refused before A1 runs
    ("sigma", "--config", "/nonexistent.cfg"),
    ("sigma", "--config", "/"),  # a directory
    ("sigma", "--out", "/nonexistent-dir/x.json"),  # refused before sigma prints
    ("simulate", "fbm", "--out", "/"),
    ("simulate", "fbmbt", "--out", "/nonexistent-dir/x.json"),
    ("verify", "A1", "--out", "/nonexistent-dir/x.json"),  # refused before A1 runs
    ("verify", "A8", "--out", "/"),
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bad_input_draws_no_stream(capsys, monkeypatch):
    # every refusal, the library's included, comes before the first stream
    def no_stream(*args, **kwargs):
        raise AssertionError("drew a stream for a refused input")

    monkeypatch.setattr(SeedSpec, "rng", no_stream)
    for argv in BAD_ARGV:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs a /proc, where no file can be made")
@pytest.mark.parametrize("argv", [("sigma",), ("verify", "A8")], ids=" ".join)
def test_out_in_an_unwritable_directory_exits_2_before_any_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", "/proc/x.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out /proc/x.json") and err.count("\n") == 1


def test_unreadable_config_and_unwritable_dumps_exit_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("# r\xe9glage\nh = 0.3\n".encode("latin-1"))
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for argv in [
        ("sigma", "--config", str(latin1)),
        ("simulate", "fbm", "--n", "4", "--dump-paths", str(a_file)),
        ("simulate", "fbm", "--n", "4", "--dump-series", str(a_file / "sub")),
        ("simulate", "fbmbt", "--n", "4", "--dump-walk", str(a_file / "sub")),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert a_file.read_text() == ""


@pytest.mark.parametrize(
    "argv", [("simulate", "fbm", "--n", "4", "--verbose"), ("verify", "A8", "--verbose")]
)
def test_verbose_is_a_sigma_flag_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


def test_sigma_rejects_out_of_range(capsys):
    code, _, err = run_cli(capsys, "sigma", "--r", "2", "--h", "0.6")
    assert code == 2
    assert err.strip().startswith("error:")
    code, _, _ = run_cli(capsys, "sigma", "--r", "0", "--h", "0.3")
    assert code == 2
    code, _, _ = run_cli(capsys, "sigma", "--r", "2", "--h", "0.25", "--tol", "-1")
    assert code == 2


def test_simulate_fbm_dump_stable(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, out, _ = run_cli(
            capsys, "simulate", "fbm", "--h", "0.25", "--n", "6", "--t", "1",
            "--seed", "7", "--dump-paths", str(d),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["seed"] == 7
        assert doc["master_seed"] == 7
        assert doc["version"]
    a = (d1 / "fbm_path.csv").read_bytes()
    b = (d2 / "fbm_path.csv").read_bytes()
    assert a == b
    assert a.splitlines()[0] == b"t,value"


def test_simulate_fbm_series_dump(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "fbm", "--h", "0.25", "--n", "5", "--t", "1",
        "--r", "2", "--f", "gauss", "--seed", "3", "--dump-series", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines[0] == "t,phi,psi,left,right,unweighted"
    assert len(lines) == 34  # header + 33 grid instants
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and all(float(v) == 0.0 for v in first[1:])


def test_simulate_fbm_series_overflow_exits_2_without_csv(tmp_path, capsys):
    # at r = 2000 the odd power overflows; no warning may escape either
    code, out, err = run_cli(capsys, "simulate", "fbm", "--n", "6", "--r", "2000",
                             "--dump-series", str(tmp_path / "dump"),
                             "--dump-paths", str(tmp_path / "dump"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --r 2000 ") and err.count("\n") == 1
    assert not (tmp_path / "dump").exists()


def test_simulate_fbm_rejects_bad_grid(capsys):
    code, _, _ = run_cli(capsys, "simulate", "fbm", "--n", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "simulate", "fbm", "--n", "4", "--t", "0.3")
    assert code == 2


@pytest.mark.parametrize("process", ["fbm", "fbmbt"])
@pytest.mark.parametrize("weight", ["nosuch", "xsq_gauss"])
def test_simulate_refuses_unknown_weight(capsys, process, weight):
    code, out, err = run_cli(capsys, "simulate", process, "--n", "4", "--f", weight)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --f must be one of ") and err.count("\n") == 1


def test_simulate_fbm_refuses_oversized_grid_before_sampling(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an oversized grid")

    monkeypatch.setattr(SeedSpec, "rng", no_sampling)
    monkeypatch.setattr(fbm, "_circulant_spectrum", no_sampling)
    code, out, err = run_cli(capsys, "simulate", "fbm", "--n", "40")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(fbm.SAMPLE_FBM_CAP) in err


def test_simulate_fbmbt_reports_residuals(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "fbmbt", "--h", "0.25", "--n", "8", "--r", "2",
        "--seed", "9", "--dump-walk", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["residual_tol"] == RESIDUAL_TOL
    assert doc["results"]["residual_crossing"] <= RESIDUAL_TOL
    assert doc["results"]["residual_composition"] <= RESIDUAL_TOL
    assert "terminal_site" in doc["results"]
    lines = (tmp_path / "walk.csv").read_text().splitlines()
    assert lines[0] == "k,S_k,Z_k"
    assert lines[1].startswith("0,0,0.0")


def test_simulate_fbmbt_gate_fails_on_nan_residuals(capsys):
    # at r = 2000 the odd power overflows, and the residuals are NaN
    with pytest.warns(RuntimeWarning):
        code, out, err = run_cli(capsys, "simulate", "fbmbt", "--n", "8", "--r", "2000")
    assert code == 1
    assert math.isnan(json.loads(out)["results"]["residual_crossing"])
    assert err.startswith("identity residual nan exceeds")


@pytest.mark.parametrize("value", ["1", "nan"])
def test_simulate_fbmbt_has_no_tol_flag(capsys, value):
    # the residual gate is brownian_time.RESIDUAL_TOL, which no caller can loosen
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "fbmbt", "--n", "8", "--tol", value])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_simulate_fbmbt_refuses_a_tol_config_key(tmp_path, capsys):
    cfg = tmp_path / "fbmbt.cfg"
    cfg.write_text("n = 8\ntol = 1\n")
    code, out, err = run_cli(capsys, "simulate", "fbmbt", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: config key 'tol'") and err.count("\n") == 1


def test_simulate_fbmbt_rejects_odd_level(capsys):
    code, _, _ = run_cli(capsys, "simulate", "fbmbt", "--n", "7")
    assert code == 2


def test_simulate_fbmbt_refuses_oversized_walk_before_sampling(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an oversized walk")

    monkeypatch.setattr(SeedSpec, "rng", no_sampling)
    for n in ("60", "2000"):
        code, out, err = run_cli(capsys, "simulate", "fbmbt", "--n", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(SAMPLE_WALK_CAP) in err


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nonexistent")
    assert code == 2
    assert "unknown check" in err


def test_verify_rejected_override_exits_2(capsys):
    # too few replicates for A2's KS test, raised inside the check
    code, out, err = run_cli(capsys, "verify", "A2", "--replicates", "20")
    assert code == 2
    assert out == ""
    assert err.startswith("error: A2: ") and err.count("\n") == 1


def test_verify_rejects_zero_replicates(capsys):
    # A1 through replicate_map, A7 through its own chunked loop
    for name in ("A1", "A7"):
        code, out, err = run_cli(capsys, "verify", name, "--replicates", "0")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name}: replicates") and err.count("\n") == 1


def test_verify_named_check_refuses_override_it_has_no_parameter_for(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran a check with an override it does not take")

    monkeypatch.setattr(cli, "run_check", no_run)
    code, out, err = run_cli(capsys, "verify", "A5", "--n", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error: A5") and "--n" in err and err.count("\n") == 1


def test_verify_a9_takes_a_walk_level_finer_than_any_fbm_grid(capsys, monkeypatch):
    # A9's level is a walk level: its spatial grids have level n/2
    taken = {}

    def fake_run(name, master_seeds, threads, **overrides):
        taken[name] = overrides
        return True, [McReport(kind=name, config={}, master_seed=master_seeds[0])]

    monkeypatch.setattr(cli, "run_check", fake_run)
    code, _, _ = run_cli(capsys, "verify", "A9", "--n", "24")
    assert code == 0
    assert taken == {"A9": {"level": 24}}


def test_verify_all_names_ignored_overrides(capsys, monkeypatch):
    taken = {}

    def fake_run(name, master_seeds, threads, **overrides):
        taken[name] = overrides
        return True, [McReport(kind=name, config={}, master_seed=master_seeds[0])]

    monkeypatch.setattr(cli, "run_check", fake_run)
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "8", "--replicates", "100")
    assert code == 0
    lines = {line.split(":")[0]: line for line in out.splitlines()}
    # each status line gives the check's seconds before its summary
    assert all(re.match(rf"{name}: PASS in \d+\.\d\d s - ", line) for name, line in lines.items())
    assert lines["A5"].endswith("(ignored: --replicates, --n)")
    assert lines["A6"].endswith("(ignored: --n)")
    assert "ignored" not in lines["A1"]
    assert taken["A1"] == {"replicates": 100, "level": 8}
    assert taken["A6"] == {"replicates": 100}
    assert taken["A8"] == {}


def test_verify_exact_check_passes(tmp_path, capsys):
    out_file = tmp_path / "a8.json"
    code, out, _ = run_cli(capsys, "verify", "A8", "--seed", "1", "--out", str(out_file))
    assert code == 0
    assert out.splitlines()[0].startswith("A8: PASS")
    doc = json.loads(out_file.read_text())
    assert doc["passed"] is True
    assert doc["checks"]["A8"][0]["master_seed"] == 1
    assert "wall_time_s" not in json.dumps(doc)  # artifacts are byte-reproducible


def test_verify_artifact_reproducible(tmp_path, capsys):
    f1 = tmp_path / "r1.json"
    code, _, _ = run_cli(capsys, "verify", "A8", "--seed", "3", "--out", str(f1))
    assert code == 0
    first = f1.read_bytes()
    code, _, _ = run_cli(capsys, "verify", "A8", "--seed", "3", "--out", str(f1))
    assert code == 0
    assert f1.read_bytes() == first


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "A8", "--seed", "3"),
        ("sigma", "--h", "0.3"),
        ("simulate", "fbm", "--n", "4"),
        ("simulate", "fbmbt", "--n", "4"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_artifact_records_its_environment(tmp_path, capsys, argv):
    out = tmp_path / "artifact.json"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["environment"] == {"python": platform.python_version(),
                                  "numpy": numpy.__version__, "scipy": scipy.__version__}
    # the canonical reports stay free of it
    assert all("environment" not in rep for reps in doc.get("checks", {}).values()
               for rep in reps)


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep template\nh = 0.3\nr = 2\ntol = 1e-6\n")
    code, out, _ = run_cli(capsys, "sigma", "--config", str(cfg))
    assert code == 0
    doc_h = out.splitlines()[1].split()[1]
    assert float(doc_h) == 0.3
    # flags override file values
    code, out, _ = run_cli(capsys, "sigma", "--config", str(cfg), "--h", "0.2")
    assert code == 0
    assert float(out.splitlines()[1].split()[1]) == 0.2
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    code, _, err = run_cli(capsys, "sigma", "--config", str(bad))
    assert code == 2
    # keys of other subcommands' flags, and of no flag at all, are refused
    out_file = tmp_path / "sigma.json"
    for line in ("m = 3", "dump_walk = /x", "threads = 4"):
        foreign = tmp_path / "foreign.cfg"
        foreign.write_text(f"h = 0.3\n{line}\n")
        code, out, err = run_cli(capsys, "sigma", "--config", str(foreign), "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert line.split(" =")[0] in err
    assert not out_file.exists()
    # a flag's type parses its config key
    typed = tmp_path / "typed.cfg"
    typed.write_text("t-min = -0.5\nn = 4\nseed = 3\n")
    code, out, _ = run_cli(capsys, "simulate", "fbm", "--config", str(typed))
    assert code == 0
    doc = json.loads(out)["config"]
    assert (doc["t_min"], doc["n"], doc["seed"]) == (-0.5, 4, 3)


def test_rerun_from_embedded_config_is_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "o1.json"
    code, _, _ = run_cli(
        capsys, "simulate", "fbm", "--h", "0.2", "--n", "7", "--t", "1",
        "--seed", "123", "--out", str(out1),
    )
    assert code == 0
    embedded = json.loads(out1.read_text())["config"]
    argv = ["simulate", "fbm", "--out", str(tmp_path / "o2.json")]
    for key in ("h", "n", "t", "t_min", "r", "f", "seed"):
        argv += [f"--{key.replace('_', '-')}", str(embedded[key])]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads((tmp_path / "o2.json").read_text())
    d1["config"].pop("out"), d2["config"].pop("out")
    assert d1 == d2
