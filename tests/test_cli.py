"""Command-line interface: record shapes, exit codes, determinism.

Runs ``python -m mvfrac.cli`` in subprocesses, so these tests need no
installed package.  Where the ``mvfrac`` console script is on PATH, one
more test checks that it prints the same bytes.  Exit code contract:
0 success, 1 failed verification, 2 domain error, 64 usage error.
"""

import hashlib
import inspect
import json
import math
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mvfrac import (
    RectConfig,
    cli,
    pathway_det_limit,
    sample_matrix_gamma,
    sample_rect_exponential,
    sample_uniform_spd_unit,
)
from mvfrac.verify import SUITES

from conftest import run_cli as run
from conftest import run_python


def records(proc):
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_records(text):
    """JSON lines parsed with NaN and Infinity refused."""
    return [json.loads(line, parse_constant=_refuse_constant)
            for line in text.splitlines() if line]


def test_eval_gamma_frozen():
    proc = run("eval", "gamma", "--p", "2", "--alpha", "3.0")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["schema"] == "mvfrac/1"
    assert rec["log_value"] == pytest.approx(math.log(1.5 * math.pi), rel=1e-12)


def test_eval_beta():
    proc = run("eval", "beta", "--p", "1", "--alpha", "2", "--beta", "3")
    (rec,) = records(proc)
    assert rec["log_value"] == pytest.approx(math.log(1 / 12), rel=1e-12)


def test_eval_pochhammer():
    proc = run("eval", "pochhammer", "--a", "2.0", "--k", "2,1")
    (rec,) = records(proc)
    assert rec["value"] == pytest.approx(9.0)
    assert rec["sign"] == 1


def test_eval_zonal_with_eigs():
    proc = run("eval", "zonal", "--k", "2", "--eigs", "1.0,2.0")
    (rec,) = records(proc)
    assert rec["value"] == pytest.approx(5 + 4 / 3, rel=1e-12)


def test_eval_hyper():
    proc = run("eval", "hyper", "--num", "1.0,1.0", "--den", "2.0",
               "--eigs", "0.5", "--kmax", "25")
    (rec,) = records(proc)
    assert rec["schema"] == "mvfrac/1"
    assert rec["value"] == pytest.approx(2 * math.log(2), rel=1e-6)


@pytest.mark.parametrize("argv,value,ratio", [
    (["--num", "1", "--eigs", "0.5", "--kmax", "0"], 1.0, None),
    (["--num", "3,3", "--den", "1", "--eigs", "0.9", "--kmax", "5"],
     519.18859, pytest.approx(1.764, rel=1e-12)),
], ids=["kmax0", "no-decay"])
def test_eval_hyper_without_decay_writes_null(argv, value, ratio):
    # a series whose weight sums show no decay has an infinite tail
    # estimate; the finite value is still written, the diagnostic as null
    proc = run("eval", "hyper", *argv)
    assert proc.returncode == 0
    (rec,) = strict_records(proc.stdout)
    assert rec["value"] == pytest.approx(value, rel=1e-12)
    assert rec["tail_estimate"] is None
    assert rec["ratio"] == ratio


def test_eval_fracint_power_inline_matrix():
    proc = run("eval", "fracint-power", "--r", "1", "--alpha", "1.0",
               "--z", "[[2.0]]")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["value"] == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert rec["sign"] == 1


def test_eval_fracint_zonal():
    proc = run("eval", "fracint-zonal", "--r", "1", "--alpha", "1.0",
               "--k", "1", "--z", "[[1.0]]")
    (rec,) = records(proc)
    assert rec["value"] == pytest.approx(2 / 3, rel=1e-12)


@pytest.mark.parametrize("r, k, z", [("1", "1,1,1,1", "[[1.3]]"),
                                     ("2", "1,1,1,1,1", "[[1.3,0.1],[0.1,0.8]]")])
def test_eval_fracint_zonal_longer_than_p_is_zero(r, k, z):
    # (alpha + r/2)_K has a zero factor at K's last row; C_K(Z) = 0 decides
    proc = run("eval", "fracint-zonal", "--r", r, "--alpha", "1.0", "--k", k,
               "--z", z)
    assert proc.returncode == 0, proc.stdout
    (rec,) = records(proc)
    assert (rec["sign"], rec["value"], rec["log_magnitude"]) == (0, 0.0, None)


def test_eval_saigo_collapse():
    base = ("eval", "saigo", "--r", "2", "--alpha", "1.5", "--b", "0.4",
            "--c", "2.5", "--z", "[[1.1,0.0],[0.0,0.7]]")
    zero_a = records(run(*base, "--a", "0.0"))[0]
    power = records(run("eval", "fracint-power", "--r", "2", "--alpha", "1.5",
                        "--z", "[[1.1,0.0],[0.0,0.7]]"))[0]
    assert zero_a["value"] == pytest.approx(power["value"], rel=1e-12)


def test_eval_pathway_both_modes():
    det = records(run("eval", "pathway", "--q", "1.01", "--eigs", "1.0"))[0]
    assert det["value"] == pytest.approx(1.01 ** -100, rel=1e-12)
    fac = records(run("eval", "pathway", "--q", "2.0", "--k", "2"))[0]
    assert fac["value"] == pytest.approx(2.0)


def test_eval_pathway_requires_one_mode():
    proc = run("eval", "pathway", "--q", "1.01")
    assert proc.returncode == 64
    both = run("eval", "pathway", "--q", "1.01", "--eigs", "1.0", "--k", "2")
    assert both.returncode == 64


def test_matrix_file_input(tmp_path):
    path = tmp_path / "z.json"
    path.write_text("[[2.0]]")
    proc = run("eval", "fracint-power", "--r", "1", "--alpha", "1.0",
               "--z-file", str(path))
    (rec,) = records(proc)
    assert rec["value"] == pytest.approx(2 * math.sqrt(2), rel=1e-12)


def test_usage_errors_are_64():
    assert run("eval", "gamma", "--p", "2").returncode == 64  # missing alpha
    assert run("no-such-command").returncode == 64
    assert run("eval", "fracint-power", "--r", "1", "--alpha", "1",
               "--z", "not json").returncode == 64
    assert run("eval", "fracint-power", "--r", "1",
               "--alpha", "1").returncode == 64  # no matrix at all


@pytest.mark.parametrize("argv", [
    ["eval", "beta", "--p", "1", "--a", "2", "--b", "3"],
    ["verify", "--suite", "beta", "--sam", "400", "--see", "7"],
    ["sample", "uniform-unit-cone", "--p", "1", "--n", "2", "--se", "1"],
    ["eval", "gam", "--p", "1", "--alpha", "2"],
])
def test_subcommands_refuse_abbreviated_flags(argv, capsys):
    # a prefix such as --a for --alpha is a usage error, not a silent match
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 64
    assert capsys.readouterr().out == ""


def test_eval_saigo_reads_its_own_a_and_b(capsys):
    argv = ["eval", "saigo", "--r", "1", "--alpha", "1.0", "--a", "0.3",
            "--b", "0.2", "--c", "1.5", "--z", "[[0.5]]"]
    assert cli.main(argv) == 0
    (rec,) = strict_records(capsys.readouterr().out)
    assert (rec["a"], rec["b"]) == (0.3, 0.2)


def test_domain_errors_are_2():
    proc = run("eval", "gamma", "--p", "3", "--alpha", "0.5")
    assert proc.returncode == 2
    (rec,) = records(proc)
    assert rec["schema"] == "mvfrac/1"
    assert rec["error"] == "ParameterDomainError"
    # non-positive-definite matrix input
    bad = run("eval", "fracint-power", "--r", "1", "--alpha", "1.0",
              "--z", "[[-1.0]]")
    assert bad.returncode == 2


def test_eval_pathway_nan_eigenvalue_is_domain_error():
    proc = run("eval", "pathway", "--q", "2", "--eigs", "nan")
    assert proc.returncode == 2
    (rec,) = records(proc)
    assert rec["error"] == "ParameterDomainError"
    assert "non-negative" in rec["message"]


def test_eval_pathway_infinite_eigenvalue_is_domain_error():
    # pathway_det_limit gives 0.0 here, but the record would echo the inf,
    # which used to be refused as "result is not finite"
    proc = run("eval", "pathway", "--q", "2", "--eigs", "0.5,inf")
    assert proc.returncode == 2
    (rec,) = records(proc)
    assert rec["error"] == "ParameterDomainError"
    assert "eigenvalues must be finite" in rec["message"]
    assert "[0.5, inf]" in rec["message"]
    assert pathway_det_limit(2.0, np.array([0.5, np.inf])) == 0.0


def test_verify_suite_runs_and_passes():
    proc = run("verify", "--suite", "pathway")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["schema"] == "mvfrac/1"
    assert rec["suite"] == "pathway"
    assert rec["pass"] is True


def test_verify_unknown_suite():
    assert run("verify", "--suite", "bogus").returncode == 64


def _must_not_run(fn):
    """A stand-in for the suite fn with its signature, failing if called."""
    def stand_in(*args, **kwargs):
        raise AssertionError("the suite ran")
    stand_in.__signature__ = inspect.signature(fn)
    return stand_in


@pytest.mark.parametrize("suite,flags,key", [
    ("euler", ["--p", "1", "--samples", "2000"], "p"),
    ("saigo", ["--kmax", "3"], "k_max"),
    ("pathway", ["--samples", "5"], "samples"),
])
def test_verify_refuses_a_flag_its_suite_does_not_read(capsys, monkeypatch,
                                                        suite, flags, key):
    # refused before the suite runs, with one record naming suite and flag
    monkeypatch.setitem(SUITES, suite, _must_not_run(SUITES[suite]))
    capsys.readouterr()
    assert cli.main(["verify", "--suite", suite, *flags]) == 2
    (rec,) = strict_records(capsys.readouterr().out)
    assert rec["error"] == "ParameterDomainError"
    assert f"suite {suite!r} does not take {key};" in rec["message"]


def test_verify_config_values_reach_only_suites_that_read_them(capsys,
                                                               tmp_path):
    # a config value is a default: euler reads samples and not p or kmax,
    # pathway reads none of the three; a flag given on the command line is
    # explicit even where the config sets the same key
    cfg = tmp_path / "defaults.conf"
    cfg.write_text("p=2\nkmax=3\nsamples=2000\n")
    runs = {}
    for name, argv in {
            "euler-config": ["--config", str(cfg), "verify", "--suite", "euler"],
            "euler-flags": ["verify", "--suite", "euler", "--samples", "2000"],
            "pathway-config": ["--config", str(cfg), "verify", "--suite",
                               "pathway"],
            "pathway": ["verify", "--suite", "pathway"],
            "euler-p": ["--config", str(cfg), "verify", "--suite", "euler",
                        "--p", "2"]}.items():
        capsys.readouterr()
        runs[name] = (cli.main(argv), capsys.readouterr().out)
    assert runs["euler-config"] == runs["euler-flags"]
    assert runs["euler-config"][0] == 0
    assert runs["pathway-config"] == runs["pathway"]
    code, out = runs["euler-p"]
    (rec,) = strict_records(out)
    assert (code, rec["error"]) == (2, "ParameterDomainError")
    assert "suite 'euler' does not take p;" in rec["message"]


def test_verify_byte_identical_across_runs():
    a = run("verify", "--suite", "sumdensity", "--samples", "20000",
            "--seed", "7")
    b = run("verify", "--suite", "sumdensity", "--samples", "20000",
            "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# In a fresh interpreter: importing the CLI loads no scipy module, and with
# scipy blocked (any later import of it raises ImportError) an eval and the
# sum-density suite, whose p = 1 case runs the Kolmogorov-Smirnov test,
# still succeed.  The report goes to stderr, the records to stdout.
_WITHOUT_SCIPY = """
import json, sys
import mvfrac.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.modules["scipy"] = None
codes = [mvfrac.cli.main(["eval", "gamma", "--p", "2", "--alpha", "3"]),
         mvfrac.cli.main(["verify", "--suite", "sumdensity",
                          "--samples", "2000"])]
sys.stderr.write(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_cli_runs_without_scipy():
    proc = run_python("-c", _WITHOUT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == {"loaded": [], "codes": [0, 0]}
    gamma, report = records(proc)
    assert gamma["op"] == "gamma"
    assert [c["name"] for c in report["cases"][0]["cases"]][-1] \
        == "ks-distribution"


def test_verify_sumdensity_half_integer_shape(capsys):
    # orders 1 and 2 give the matrix gamma shape 3/2, whose distribution
    # test starts from erf
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "sumdensity", "--p", "1",
                     "--r1", "1", "--r2", "2"]) == 0
    (rec,) = strict_records(capsys.readouterr().out)
    (case,) = rec["cases"]
    assert case["orders"] == [1, 2]
    ks = case["cases"][-1]
    assert ks["name"] == "ks-distribution" and ks["pass"]


@pytest.mark.parametrize("flags,flag", [(["--r1", "3"], "--r1"),
                                        (["--r2", "4"], "--r2"),
                                        (["--r1", "3", "--r2", "4"], "--r1")])
def test_verify_sumdensity_orders_need_dimension(capsys, flags, flag):
    # the canonical instances fix their own orders, so an order without
    # --p is refused before any draw instead of being dropped
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "sumdensity", *flags,
                     "--samples", "2000"]) == 2
    (rec,) = strict_records(capsys.readouterr().out)
    assert rec["error"] == "ParameterDomainError"
    assert rec["message"].startswith(f"{flag} needs --p")


@pytest.mark.parametrize("suite", ["beta", "euler", "fracpower", "fraczonal",
                                   "saigo", "sumdensity"])
def test_verify_one_sample_is_domain_error(suite):
    # one draw leaves no standard error, so the run is refused up front
    proc = run("verify", "--suite", suite, "--samples", "1", "--seed", "3")
    assert proc.returncode == 2
    (rec,) = strict_records(proc.stdout)
    assert rec["error"] == "ParameterDomainError"
    assert "Traceback" not in proc.stderr


def test_verify_grid_refuses_a_dimension_outside_it(capsys):
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "fracpower", "--p", "3"]) == 2
    (rec,) = strict_records(capsys.readouterr().out)
    assert rec["error"] == "ParameterDomainError"
    assert rec["message"] == "grid covers p in [1, 2], got 3"


def test_verify_nonfinite_result_is_domain_error():
    # seed 37 makes the constant-integrand grid point (p=2, r=3, alpha=1.5,
    # eta=0) accept both of its two proposals, so its stderr is 0 and its
    # z-score infinite; that is refused rather than printed as Infinity
    proc = run("verify", "--suite", "fracpower", "--p", "2", "--samples", "2",
               "--seed", "37")
    assert proc.returncode == 2
    (rec,) = strict_records(proc.stdout)
    assert rec["error"] == "DegenerateInputError"
    assert "Traceback" not in proc.stderr


def _main(argv):
    """cli.main in process, with argparse's SystemExit read as the code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


_Z2 = "[[1.1,0.2],[0.2,0.7]]"
_WA = "[[2.0,0.1],[0.1,1.0]]"
_WB = "[[1.0,0.0,0.0],[0.0,3.0,0.5],[0.0,0.5,2.0]]"

# (eval argv, exit code, SHA-256 of stdout), computed when each eval
# subcommand wrote its own record envelope, and those of the gamma-based
# cases 0, 9-13 and 18 again when log_gamma became math.lgamma, which moved
# their last digits; {zfile} holds [[1.2,-0.3],[-0.3,0.9]]
_EVAL_DIGESTS = [
    (["gamma", "--p", "2", "--alpha", "3.0"], 0,
     "5c53ecf085c77c69299ca91b3eedd3946d81baf50d8db5ae2fa05216af767713"),
    (["beta", "--p", "2", "--alpha", "2.5", "--beta", "1.5"], 0,
     "f02426089967187051357b02ba7ca7058b932c06e6ea62eff71b0a2a858ef901"),
    (["pochhammer", "--a", "2.0", "--k", "2,1"], 0,
     "3a04630522cefdf17d5f0fbe58a1ce1b10afaabbe68b63bbfaa7211edf33ad98"),
    (["pochhammer", "--a", "0.5", "--k", "1,1"], 0,  # sign 0
     "b92c884d3cad941c7f67439b2343b955f2ce2f8d1dc4d208dfea65c2b6aaf97f"),
    (["zonal", "--k", "2,1", "--eigs", "0.5,1.5"], 0,
     "4f30fa08f1bab6f6b8f8d9fdb28a5be633e4eb8c09d8b7d8165f7d16f481f915"),
    (["zonal", "--k", "2", "--z", _Z2], 0,
     "425de72bfc34a1b73c79392dc918ff36aff0c3bf44439e5b15e11e8610972950"),
    (["zonal", "--k", "3,1", "--z-file", "{zfile}"], 0,
     "7de742283508cb066706d9d5f9f69594a1227b9be26a3b3039ea24a61b2e2847"),
    (["hyper", "--num", "1.0,1.0", "--den", "2.0", "--eigs", "0.5",
      "--kmax", "25"], 0,
     "721df25b680882e30c5b04c1a397bf1ee218c752a996c0d2d9dbf6105925398c"),
    (["hyper", "--num", "0.5", "--z", "[[0.3,0.1],[0.1,0.2]]",
      "--kmax", "10"], 0,
     "638c764ea16b7ff68c589902ce07568b16dace9c60efe34faa748704f07b1723"),
    (["fracint-power", "--r", "1", "--alpha", "1.0", "--z", "[[2.0]]"], 0,
     "6f81c75949f4cc96dcf83b96b7099ff162d5c28e73058f276843fa4ee0739798"),
    (["fracint-power", "--r", "3", "--alpha", "1.5", "--eta", "0.3",
      "--z-file", "{zfile}", "--weight-a", _WA, "--weight-b", _WB], 0,
     "c46d25fc4425fe58074763093e3d92501b2b61aa522b291f5203acf88f645692"),
    (["fracint-zonal", "--r", "2", "--alpha", "1.5", "--k", "2,1",
      "--z", _Z2, "--weight-a", _WA], 0,
     "b6deb616807be6cf2351f159aac11be21b3a112825c64908ed0584447a106c15"),
    (["saigo", "--r", "2", "--alpha", "1.5", "--a", "0.0", "--b", "0.4",
      "--c", "2.5", "--z", _Z2], 0,
     "4cf6d6e602683bb6d216b0122df74014eac9ad2f41f5a9e7f0f0a89a7cdfdb11"),
    (["saigo", "--r", "3", "--alpha", "1.0", "--a", "0.3", "--b", "0.2",
      "--c", "2.0", "--eta", "0.5", "--kmax", "12", "--z", _Z2,
      "--weight-b", _WB], 0,
     "7c4728d498fea9fc0e4140baa63276659ef32f0ab8665ff54f0d8da8cf9d0175"),
    (["pathway", "--q", "1.01", "--eigs", "1.0,0.5"], 0,
     "229d204b6f76a7087e719671b0edc0d5870acda293a102624aa07f39c1455d59"),
    (["pathway", "--q", "2.0", "--k", "2,1"], 0,
     "d129f005004c260f9baea5ad0eb14371feef7ea96ac668e6107096045aa54cbd"),
    # domain errors
    (["gamma", "--p", "3", "--alpha", "0.5"], 2,
     "7fff0d1f400aeacc3b8edaf178d3f56c67d4894ebeb61cfd76ef15d4379761aa"),
    (["fracint-power", "--r", "1", "--alpha", "1.0", "--z", "[[-1.0]]"], 2,
     "877a7d406737ffda40f0977b8d3a87d519f8a98738b5e102c5bd955a0b7a3fe0"),
    (["fracint-power", "--r", "1", "--alpha", "2.0", "--z", "[[1e300]]"], 2,
     "722af105b9bdbde7c933837e598356f935951f4ebe0fd9a03d7d5450adfd8411"),
    (["fracint-zonal", "--r", "1", "--alpha", "1.0", "--k", "1",
      "--z", _Z2], 2,
     "d2ec9cacd3410b23e9070fb3a6eed76afcdc17ddb5298f7527ce337fddc384db"),
    (["saigo", "--r", "1", "--alpha", "1.0", "--a", "1.0", "--b", "0.2",
      "--c", "nan", "--z", "[[0.5]]"], 2,
     "1baac61263bc247763319fae3f291d759d20eaf0d0f57eaf91a810ed108dec60"),
    (["hyper", "--num", "1.0", "--den", "nan", "--eigs", "0.5"], 2,
     "9b393de4cc38534a8f7a0ecafaeafb838c30a78e45d28dd58d9dac61bf84f424"),
    (["pochhammer", "--a", "1.0", "--k", "1,2"], 2,
     "5c6f92430201dcdf989c3e4f5e056c365f0ec783c445ebfae0580eeffda7b020"),
    (["pathway", "--q", "0.5", "--k", "2"], 2,
     "8d88e5cd9dbb54de5c881b1ba299d0b49d469bb4911c7ecaa035b124da5f81ef"),
    # a partition longer than the argument's dimension gives exactly 0
    (["zonal", "--k", "2,1", "--eigs", "0.5"], 0,
     "ef9765e03ab17b0b7d51d0c1ca724a07e450e5700cb202d74edbecf154ccc653"),
    (["fracint-zonal", "--r", "1", "--alpha", "1.0", "--k", "1,1",
      "--z", "[[2.0]]"], 0,
     "155ee67618ff4d0217dd7c4404d877628cd50294dc35d4e0cc3cde1c74f868d0"),
    # ... and needs no table, even for a weight above the table ceiling
    (["fracint-zonal", "--r", "2", "--alpha", "1.5", "--k", "30,1,1",
      "--z", "[[1.1,0.3],[0.3,0.8]]"], 0,
     "3d05268ae57eac87f90c3e7a55b80228e2ab9246159ce36320d7a050fe0bd538"),
    # the series above p = 2, with several monomial passes per argument
    (["hyper", "--num", "0.7,1.3", "--den", "1.9", "--eigs", "0.3,0.2,0.1",
      "--kmax", "30"], 0,
     "b1845e359459fe5c39b193fcf6ce6efbc6ea556705673c6293eac925107eec1d"),
    (["hyper", "--num", "1.1", "--eigs", "0.3,0.2,0.1,0.05", "--kmax", "25"],
     0, "90e455be6b0a03711b2b6011854fe189868a4d2d746d471ccf2c68eb61e38207"),
    (["hyper", "--num", "0.8", "--den", "2.3", "--eigs",
      "0.25,0.2,0.15,0.1,0.05", "--kmax", "20"], 0,
     "d97fd313006cb9224183733fb3374975291a4742f3dc4b45839308b736dd99db"),
]


@pytest.mark.parametrize("argv,code,digest", _EVAL_DIGESTS,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _, _)
                              in enumerate(_EVAL_DIGESTS)])
def test_eval_output_pinned(capsys, tmp_path, argv, code, digest):
    zfile = tmp_path / "z.json"
    zfile.write_text("[[1.2,-0.3],[-0.3,0.9]]")
    capsys.readouterr()
    assert _main(["eval", *(a.replace("{zfile}", str(zfile))
                            for a in argv)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# explicit ids, so that a new row renames no other row
@pytest.mark.parametrize("argv", [
    pytest.param(["eval", "gamma", "--p", "2"], id="gamma---p"),
    pytest.param(["eval", "beta", "--p", "two", "--alpha", "1", "--beta", "1"],
                 id="beta---p"),
    pytest.param(["eval", "no-such-op"], id="no-such-op"),
    pytest.param(["eval", "pochhammer", "--a", "1", "--k", "1,x"],
                 id="pochhammer---a"),
    pytest.param(["eval", "zonal", "--k", "1"], id="zonal---k"),
    pytest.param(["eval", "hyper", "--num", "1", "--eigs", "0.5", "--z",
                  "[[0.5]]"], id="hyper---num"),
    pytest.param(["eval", "fracint-power", "--r", "1", "--alpha", "1", "--z",
                  "{"], id="fracint-power---r"),
    pytest.param(["eval", "fracint-zonal", "--r", "1", "--alpha", "1", "--z",
                  "[[1]]"], id="fracint-zonal---r"),
    pytest.param(["eval", "saigo", "--r", "1", "--alpha", "1", "--a", "0",
                  "--b", "0", "--z", "[[0.5]]"], id="saigo---r"),
    pytest.param(["eval", "pathway", "--q", "1.01"], id="pathway---q0"),
    pytest.param(["eval", "pathway", "--q", "1.01", "--eigs", "1.0", "--k",
                  "2"], id="pathway---q1"),
])
def test_eval_usage_errors_are_64(capsys, argv):
    capsys.readouterr()
    code = _main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "Traceback" not in captured.err


_SUBCOMMANDS = [["eval", name] for name in (
    "gamma", "beta", "pochhammer", "zonal", "hyper", "fracint-power",
    "fracint-zonal", "saigo", "pathway")] + [["verify"]] + [
    ["sample", kind] for kind in ("matrix-gamma", "rect-exponential",
                                  "uniform-unit-cone")]


@pytest.mark.parametrize("command", _SUBCOMMANDS, ids=lambda c: c[-1])
def test_every_subcommand_help_renders(capsys, command):
    # argparse %-formats help strings only when --help prints them
    capsys.readouterr()
    assert _main([*command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: mvfrac {' '.join(command)}")
    assert "--output OUTPUT" in out


# SHA-256 of `verify` stdout at seed 7 and small sizes, computed when each
# suite wrote its own pass records and the sum-density check lived with
# the samplers; fracpower's again when the operator's X took its lower
# triangle on both sides, which moved one p = 2 determinant by an ulp; and
# all but binomial's and pathway's, which read no gamma function, when
# log_gamma became math.lgamma; beta's again when it dropped the cases that
# re-estimated its type-1 integral through W (I - W)^(-1); euler's again
# when it became the operator on |X|^a |I-X|^(-b) against the power form
# times the series, on the same draws
_VERIFY_DIGESTS = {
    "beta": (["--samples", "4000"],
             "527701070dba70e37914b61e8646e017225b9fff12a9b3c0f4ce24539bbe988e"),
    "binomial": ([],
                 "8e1abf26afc0ffa3522a7d133b2b38ab4e9587775b61502af66d3c67faf40793"),
    "euler": (["--samples", "20000"],
              "864dfc583d288b920142fb4dfe0fc67074af8ccd44fe9a830defbb01e04b5d7a"),
    "fracpower": (["--samples", "4000"],
                  "f9fdf1d23692982f1f8accece33f4758c267526edbbb296743c2186e52117390"),
    "fraczonal": (["--samples", "2000"],
                  "b490aaf8eacac65b9b1aced80c2c3a93eb89427c740b52c404227385fbd86520"),
    "pathway": ([],
                "28c499909ad2c9d3e66083951812b4b2d492eda7ae6fc771d220a0fbfe1c30ad"),
    "saigo": (["--samples", "4000"],
              "4a9335469ee441d28ddc7207ef94315caebe87056bcd0c11454d28d491bc178f"),
    "sumdensity": (["--samples", "4000"],
                   "942e66fc1819969e7f9929b68c8a445d69c628593e96e4c3c6fd9c40e917a0e8"),
}


@pytest.mark.parametrize("suite", sorted(_VERIFY_DIGESTS))
def test_verify_output_pinned(capsys, suite):
    flags, digest = _VERIFY_DIGESTS[suite]
    capsys.readouterr()
    assert cli.main(["verify", "--suite", suite, *flags, "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the same at sizes that take the cone estimator through many blocks
# (fracpower runs 12 at p = 2), computed when each block's draws were
# gathered into one stack before the operand saw them, and again when
# log_gamma became math.lgamma; euler's again when it went through the
# operator
_VERIFY_MULTIBLOCK_DIGESTS = {
    "euler": (["--samples", "60000"],
              "878ec70e8e826225409b7cdbddf0b371042f1150506748419c23a18f9c67d230"),
    "fracpower": (["--samples", "50000"],
                  "dccd9e16dfadcab6fc42ef43a0f12eae81b2542cdf8f85885b95a02a0918614b"),
    "saigo": (["--samples", "60000"],
              "5ab42a319e51ac1b547fe3ec2eafc438afa463b8a55017344af12890a3fc0571"),
}


@pytest.mark.parametrize("suite", sorted(_VERIFY_MULTIBLOCK_DIGESTS))
def test_verify_multiblock_output_pinned(capsys, suite):
    flags, digest = _VERIFY_MULTIBLOCK_DIGESTS[suite]
    capsys.readouterr()
    assert cli.main(["verify", "--suite", suite, *flags, "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sum-density bytes above p = 2, where the rectangular transform's last
# product covers several rows and np.trace sums eight diagonal entries;
# computed when that product was an einsum over (n, p, r) stacks, and again
# when log_gamma became math.lgamma
_SUMDENSITY_DIGESTS = {
    "p3-r3-r5": (["--p", "3", "--r1", "3", "--r2", "5"],
                 "8dbedf11c411280c749807d967774be3ba9090de05130c3ab28ec6a5676e4813"),
    "p8-r8-r9": (["--p", "8", "--r1", "8", "--r2", "9"],
                 "3e164307dc9925b9ae17b5e5ed60deeab80f7753ca0cfb8e47ab2efc5103857a"),
}


@pytest.mark.parametrize("instance", sorted(_SUMDENSITY_DIGESTS))
def test_verify_sumdensity_output_pinned(capsys, instance):
    flags, digest = _SUMDENSITY_DIGESTS[instance]
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "sumdensity", *flags,
                     "--samples", "4000", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_BAD_FLAGS = (["--bogus"], ["--samples", "ten"], ["--samples", "-3"],
              ["--p", "9"], ["--kmax", "-1"], ["--kmax", "99"],
              ["--suite", "nope"])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(suite=st.sampled_from(sorted(SUITES)),
       samples=st.integers(min_value=0, max_value=50),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       extra=st.one_of(st.just([]), st.sampled_from(_BAD_FLAGS)))
def test_verify_fuzz_exits_cleanly(capsys, suite, samples, seed, extra):
    # in process: every exit is a documented code with strict JSON lines
    capsys.readouterr()
    argv = ["verify", "--suite", suite, "--samples", str(samples),
            "--seed", str(seed), *extra]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2, 64)
    recs = strict_records(out)
    assert all(r["schema"] == "mvfrac/1" for r in recs)
    assert len(recs) == (0 if code == 64 else 1)


def test_eval_beta_overflowing_gamma_names_its_arguments():
    # log Gamma_1(1e308) overflows; the value used to be inf - inf, a NaN
    # that the record refused as "result is not finite"
    proc = run("eval", "beta", "--p", "1", "--alpha", "1e308", "--beta", "1")
    assert proc.returncode == 2
    (rec,) = strict_records(proc.stdout)
    assert rec["error"] == "DegenerateInputError"
    assert rec["message"] == \
        "log Gamma_1 overflows at alpha = 1e+308, beta = 1.0"


def test_eval_overflowing_value_is_domain_error():
    # |Z|^(3/2) at Z = 1e300 is beyond the float range
    proc = run("eval", "fracint-power", "--r", "1", "--alpha", "2.0",
               "--z", "[[1e300]]")
    assert proc.returncode == 2
    (rec,) = strict_records(proc.stdout)
    assert rec["error"] == "DegenerateInputError"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("payload", [
    '[["a"]]', "[[1,2],[3]]", '{"a":1}', '[["1.5"]]', "[[true]]", "[[null]]",
    "[[1" + "0" * 400 + "]]"],
    ids=["string", "ragged", "object", "numeric-string", "bool", "null",
         "huge-int"])
@pytest.mark.parametrize("flag", ["--z", "--z-file", "--weight-a",
                                  "--weight-b"])
def test_malformed_matrix_is_dimension_error(capsys, tmp_path, flag, payload):
    # JSON that is not a matrix of numbers is a domain error, not a crash
    flags = {"--z": "[[0.5]]", flag: payload}
    if flag == "--z-file":
        del flags["--z"]
        path = tmp_path / "z.json"
        path.write_text(payload)
        flags[flag] = str(path)
    argv = ["eval", "fracint-power", "--r", "1", "--alpha", "1.0"]
    capsys.readouterr()
    code = cli.main(argv + [x for kv in flags.items() for x in kv])
    (rec,) = strict_records(capsys.readouterr().out)
    assert code == 2
    assert rec["error"] == "DimensionError"
    assert "equal-length rows of numbers" in rec["message"]


@pytest.mark.parametrize("payload,error,message", [
    ("[]", "DimensionError", "equal-length rows of numbers"),
    ("[[]]", "DimensionError", "equal-length rows of numbers"),
    ("[[NaN]]", "DegenerateInputError", "matrix entries must be finite"),
    ("[[-Infinity]]", "DegenerateInputError", "matrix entries must be finite")],
    ids=["empty", "empty-row", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--z", "--weight-a", "--weight-b"])
def test_empty_or_non_finite_matrix_is_domain_error(capsys, flag, payload,
                                                    error, message):
    # the library's reader refuses these as it does for every entry point
    flags = {"--z": "[[0.5]]", flag: payload}
    capsys.readouterr()
    code = cli.main(["eval", "fracint-power", "--r", "1", "--alpha", "1.0",
                     *[x for kv in flags.items() for x in kv]])
    (rec,) = strict_records(capsys.readouterr().out)
    assert code == 2
    assert rec["error"] == error and message in rec["message"]


@pytest.mark.parametrize("flag", ["--z", "--z-file"])
def test_deeply_nested_matrix_is_usage_error(capsys, tmp_path, flag):
    # deeper than the JSON decoder recurses: refused like unparseable text
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "z.json"
    path.write_text(deep)
    value = deep if flag == "--z" else str(path)
    capsys.readouterr()
    try:
        code = cli.main(["eval", "fracint-power", "--r", "1", "--alpha", "1.0",
                         flag, value])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "not valid JSON" in captured.err


@pytest.mark.parametrize("command", [["zonal", "--k", "1"],
                                     ["hyper", "--num", "1"]],
                         ids=["zonal", "hyper"])
@pytest.mark.parametrize("matrix", [["--z", "[[1]]"],
                                    ["--z-file", "unused.json"]],
                         ids=["z", "z-file"])
def test_eigs_with_matrix_is_usage_error(capsys, command, matrix):
    capsys.readouterr()
    code = cli.main(["eval", *command, "--eigs", "0.5", *matrix])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "mutually exclusive" in captured.err


@pytest.mark.parametrize("command", [["zonal", "--k", "1,1"],
                                     ["hyper", "--num", "0.5"]],
                         ids=["zonal", "hyper"])
def test_asymmetric_matrix_is_domain_error(capsys, command):
    capsys.readouterr()
    assert cli.main(["eval", *command, "--z", "[[1,5],[0,1]]"]) == 2
    (rec,) = strict_records(capsys.readouterr().out)
    assert rec["error"] == "DegenerateInputError"
    assert "not exactly symmetric" in rec["message"]


def test_series_take_indefinite_eigenvalues(capsys):
    # --eigs=-0.7,0.3, since argparse reads "--eigs -0.7,0.3" as a flag
    # with no value; 1F1 is entire, 1F0 needs max |lambda| < 1
    capsys.readouterr()
    assert cli.main(["eval", "zonal", "--k", "2,1", "--eigs=-0.7,0.3"]) == 0
    assert cli.main(["eval", "hyper", "--num", "0.6", "--den", "2.3",
                     "--eigs=-0.7,-0.3"]) == 0
    zonal, hyper = strict_records(capsys.readouterr().out)
    assert zonal["eigenvalues"] == [0.3, -0.7]
    assert zonal["value"] == pytest.approx(0.2016, rel=1e-12)
    assert hyper["eigenvalues"] == [-0.3, -0.7]
    assert cli.main(["eval", "hyper", "--num", "0.5",
                     "--eigs=-1.2,0.3"]) == 2
    (rec,) = strict_records(capsys.readouterr().out)
    assert rec["error"] == "ParameterDomainError"
    assert rec["message"] == ("spectral radius must be < 1 for this series, "
                              "got 1.2")


def test_series_at_spectrum_symmetric_about_zero(capsys):
    # every odd weight sum of diag(0.9, -0.9) is 0: 2F0 still diverges,
    # and 1F0 still reports the tail it leaves at k_max 25
    capsys.readouterr()
    assert cli.main(["eval", "hyper", "--num", "1,1",
                     "--eigs=0.9,-0.9"]) == 2
    assert cli.main(["eval", "hyper", "--num", "1", "--eigs=0.9,-0.9"]) == 0
    diverged, res = strict_records(capsys.readouterr().out)
    assert diverged["error"] == "NonConvergenceError"
    assert 1.0 / 0.19 - res["value"] <= res["tail_estimate"] * (1 + 1e-12)


@pytest.mark.parametrize("command", [["zonal", "--k", "1,1"],
                                     ["hyper", "--num", "0.5"]],
                         ids=["zonal", "hyper"])
def test_malformed_matrix_is_read_as_one_matrix(capsys, command):
    capsys.readouterr()
    assert cli.main(["eval", *command, "--z", "[[1,2,3],[4,5,6]]"]) == 2
    (rec,) = strict_records(capsys.readouterr().out)
    assert rec["error"] == "DimensionError"
    assert "(p, p)" in rec["message"]


@pytest.mark.parametrize("command", [["pathway", "--q", "1.5"],
                                     ["zonal", "--k", "1"],
                                     ["hyper", "--num", "1"]],
                         ids=["pathway", "zonal", "hyper"])
def test_empty_eigs_is_dimension_error(capsys, command):
    capsys.readouterr()
    assert cli.main(["eval", *command, "--eigs", ","]) == 2
    (rec,) = strict_records(capsys.readouterr().out)
    assert rec["error"] == "DimensionError"


def test_kmax_above_ceiling_is_resource_error(monkeypatch):
    # the table ceiling is the constant 30, which no environment variable
    # moves, and the message names no override
    monkeypatch.setenv("MVFRAC_KMAX_CEILING", "45")
    proc = run("eval", "hyper", "--num", "1,1", "--den", "2", "--eigs", "0.5",
               "--kmax", "31")
    assert proc.returncode == 2
    (rec,) = strict_records(proc.stdout)
    assert rec["error"] == "ResourceLimitError"
    assert "MVFRAC" not in rec["message"]


# each asks for at least 7 PiB, past a 47-bit address space, so numpy's
# allocation fails at once whatever the host's overcommit setting
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "euler", "--samples", "1000000000000000"],
    ["sample", "uniform-unit-cone", "--p", "2", "--n", "1000000000000000"],
    ["sample", "matrix-gamma", "--p", "2", "--shape", "2", "--n",
     "1000000000000000"],
    # the identity weight B is built as an r x r matrix
    ["eval", "fracint-power", "--r", "100000000", "--alpha", "1", "--z",
     "[[1.0]]"],
    ["sample", "rect-exponential", "--p", "2", "--r", "100000000", "--n", "1"],
], ids=["verify", "cone", "gamma", "fracint-power", "rect"])
def test_unallocatable_size_is_resource_error(capsys, argv):
    # exit 1 means a failed check; a size the host cannot allocate is a
    # resource limit, reported as one record with nothing on stderr
    capsys.readouterr()
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    (rec,) = strict_records(out)
    assert rec["error"] == "ResourceLimitError"
    assert "Unable to allocate" in rec["message"]
    assert err == ""


_EXTREME = st.sampled_from([0.0, -1.0, 1e-300, 5e-324, 1e300, 1e308])
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_SCALAR = st.one_of(st.floats(min_value=-5.0, max_value=5.0), _NONFINITE)
_PARAMS = st.lists(_SCALAR, max_size=2)


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def _with_extreme(draw, values):
    # one entry in two cases becomes an extreme or degenerate value
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_EXTREME)
    return values


def _partition_flag(draw, p):
    parts = sorted(draw(st.lists(st.integers(min_value=0, max_value=3),
                                 max_size=p)), reverse=True)
    return f"--k={','.join(map(str, parts))}"


@st.composite
def _eval_argv(draw):
    p = draw(st.integers(min_value=1, max_value=4))
    eigs = _with_extreme(draw, draw(st.lists(
        st.floats(min_value=0.0, max_value=1.5), min_size=p, max_size=p)))
    command = draw(st.sampled_from([
        "gamma", "beta", "pochhammer", "zonal", "hyper", "fracint-power",
        "fracint-zonal", "saigo", "pathway"]))

    def scalar(flag):
        return f"--{flag}={draw(_SCALAR)!r}"

    if command in ("gamma", "beta"):
        argv = ["eval", command, "--p", str(draw(st.integers(-1, 5))),
                scalar("alpha")]
        if command == "beta":
            argv.append(scalar("beta"))
        return argv
    if command == "pochhammer":
        return ["eval", "pochhammer", scalar("a"), _partition_flag(draw, p)]
    if command == "pathway":
        source = (f"--eigs={_csv(eigs)}" if draw(st.booleans())
                  else _partition_flag(draw, p))
        return ["eval", "pathway", scalar("q"), source]
    if command == "hyper":
        return ["eval", "hyper", f"--num={_csv(draw(_PARAMS))}",
                f"--den={_csv(draw(_PARAMS))}", f"--eigs={_csv(eigs)}",
                "--kmax", str(draw(st.integers(min_value=0, max_value=12)))]
    if command == "zonal":
        return ["eval", "zonal", _partition_flag(draw, p),
                f"--eigs={_csv(eigs)}"]
    # diagonally dominant unless an extreme entry lands on the diagonal
    off = _with_extreme(draw, draw(st.lists(
        st.floats(min_value=-0.05, max_value=0.05), min_size=p * p,
        max_size=p * p)))
    z = [[eigs[i] + 0.2 if i == j else off[min(i, j) * p + max(i, j)]
          for j in range(p)] for i in range(p)]
    argv = ["eval", command,
            "--r", str(p + draw(st.integers(min_value=-1, max_value=2))),
            f"--alpha={draw(st.floats(min_value=-1.0, max_value=5.0))!r}",
            "--z", json.dumps(z)]
    if command == "fracint-zonal":
        argv.append(_partition_flag(draw, p))
    elif command == "saigo":
        argv += [scalar("a"), scalar("b"), scalar("c"),
                 "--kmax", str(draw(st.integers(min_value=0, max_value=12)))]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_eval_argv())
# non-finite parameters that once escaped as tracebacks, always tried
@example(argv=["eval", "hyper", "--num=1.0", "--den=nan", "--eigs=0.5"])
@example(argv=["eval", "hyper", "--num=1.0", "--den=inf", "--eigs=0.5"])
@example(argv=["eval", "saigo", "--r", "1", "--alpha=1.0", "--a=1.0",
               "--b=0.2", "--c=nan", "--z", "[[0.5]]"])
def test_eval_fuzz_exits_cleanly(capsys, argv):
    # in process: every exit is a documented code with strict JSON lines
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2, 64)
    recs = strict_records(out)
    assert all(r["schema"] == "mvfrac/1" for r in recs)
    assert len(recs) == (0 if code == 64 else 1)


def test_sample_stream_shape_and_determinism():
    args = ("sample", "matrix-gamma", "--p", "2", "--shape", "2.5",
            "--n", "4", "--seed", "11")
    a = run(*args)
    assert a.returncode == 0
    recs = records(a)
    assert len(recs) == 4
    for i, rec in enumerate(recs):
        assert rec["schema"] == "mvfrac/1"
        assert rec["kind"] == "matrix-gamma"
        assert rec["index"] == i
        entries = rec["entries"]
        assert len(entries) == 2 and len(entries[0]) == 2
        assert entries[0][1] == entries[1][0]
    assert run(*args).stdout == a.stdout


def test_sample_rect_requires_r():
    proc = run("sample", "rect-exponential", "--p", "2", "--n", "2")
    assert proc.returncode == 64
    ok = run("sample", "rect-exponential", "--p", "2", "--r", "3", "--n", "2")
    assert ok.returncode == 0


@pytest.mark.parametrize("argv", [
    ["sample", "uniform-unit-cone", "--p", "2", "--n", "3", "--shape", "2"],
    ["sample", "uniform-unit-cone", "--p", "2", "--n", "3", "--r", "5"],
    ["sample", "matrix-gamma", "--p", "2", "--n", "3", "--shape", "2",
     "--r", "3"],
    ["sample", "rect-exponential", "--p", "2", "--n", "3", "--r", "3",
     "--shape", "2"],
    ["sample", "--p", "2", "matrix-gamma", "--shape", "2", "--n", "3"],
], ids=["cone-shape", "cone-r", "gamma-r", "rect-shape", "kind-after-p"])
def test_sample_refuses_a_flag_its_kind_does_not_take(capsys, argv):
    # each kind takes --p, --n, --seed and --output, plus --shape for the
    # matrix gamma and --r for the rectangular draws; the kind comes first
    capsys.readouterr()
    assert _main(argv) == 64
    assert capsys.readouterr().out == ""


def test_sample_unit_cone():
    recs = records(run("sample", "uniform-unit-cone", "--p", "1", "--n", "3"))
    assert all(0 < r["entries"][0][0] < 1 for r in recs)


# SHA-256 of stdout, computed when each draw was validated as its own
# SpdMatrix or RectMatrix and encoded by its own json.dumps call
_SAMPLE_DIGESTS = [
    (["uniform-unit-cone", "--p", "1"],
     "f3e92fbba9d64ea6029724115cfd331d5bebdeb4e5fabf7c1395eb8f26a19052"),
    (["uniform-unit-cone", "--p", "2"],
     "f23bbd922ae06ffee9a6e0612bf26e65ef40453046361a3bb41840dfb107f041"),
    (["uniform-unit-cone", "--p", "3"],
     "b4c119ec61c5a46c3b7c11c49a3dbb44542fe844feb6a74179d0483214d307f5"),
    (["matrix-gamma", "--p", "3", "--shape", "2.5"],
     "bed6c02b292d54df0af3751f5d91fa0229946a1910661a2f21499e3266e91188"),
    (["rect-exponential", "--p", "2", "--r", "3"],
     "18336c4fa2751ee434bb28a42f6aba69c435a2ebd85b95c03f5c4ad240ac746c"),
    (["matrix-gamma", "--p", "2", "--shape", "0.75"],
     "6647cbbe070061ebf4534f1e983da7aa47132fccc23c78fccadb2fb3f3b9be0f"),
]


@pytest.mark.parametrize("flags,digest", _SAMPLE_DIGESTS)
def test_sample_output_pinned(capsys, flags, digest):
    capsys.readouterr()
    assert cli.main(["sample", *flags, "--n", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sample_multiblock_output_pinned(capsys):
    # 30 000 distinct entries, several of the formatter's blocks; SHA-256
    # of the output when every entry was written by repr
    capsys.readouterr()
    assert cli.main(["sample", "uniform-unit-cone", "--p", "3", "--n", "5000",
                     "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "76ed72467eabd7a5323863ae74aae3b30b20b11292ee20232230a767ab61778e"


def test_formatter_loads_only_for_sample():
    proc = run_python("-c", "import sys, mvfrac.cli; "
                      "print('mvfrac._floatrepr' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("flags,draw,shape", [
    (["matrix-gamma", "--p", "3", "--shape", "2.5"],
     lambda: sample_matrix_gamma(3, 2.5, 50, 7), (50, 3, 3)),
    (["rect-exponential", "--p", "2", "--r", "3"],
     lambda: sample_rect_exponential(RectConfig.with_identity_weights(2, 3),
                                     50, 7), (50, 2, 3)),
    (["uniform-unit-cone", "--p", "3"],
     lambda: sample_uniform_spd_unit(3, 50, 7), (50, 3, 3)),
    (["matrix-gamma", "--p", "5", "--shape", "3.5"],
     lambda: sample_matrix_gamma(5, 3.5, 50, 7), (50, 5, 5)),
    (["rect-exponential", "--p", "3", "--r", "5"],
     lambda: sample_rect_exponential(RectConfig.with_identity_weights(3, 5),
                                     50, 7), (50, 3, 5)),
], ids=["matrix-gamma", "rect-exponential", "uniform-unit-cone",
        "matrix-gamma-p5", "rect-exponential-p3-r5"])
def test_sample_records_match_library_samplers(capsys, flags, draw, shape):
    # the CLI prints exactly the public sampler's array, one record per row
    capsys.readouterr()
    assert cli.main(["sample", *flags, "--n", "50", "--seed", "7"]) == 0
    recs = strict_records(capsys.readouterr().out)
    stack = draw()
    assert isinstance(stack, np.ndarray) and stack.shape == shape
    assert np.array_equal(np.array([r["entries"] for r in recs]), stack)


# finite floats, with the signed zero, subnormals and extremes spelled out
_ENTRIES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([-0.0, 5e-324, 1e-310, 2.0, 1e300]))


@st.composite
def _entry_stack(draw):
    """A symmetric (n, p, p) stack, as every SPD draw is, or a rectangular
    (n, p, r) one with r >= p.  A mirrored zero may differ in sign."""
    n = draw(st.integers(min_value=1, max_value=4))
    p = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        r = draw(st.integers(min_value=p, max_value=6))
        values = draw(st.lists(_ENTRIES, min_size=n * p * r,
                               max_size=n * p * r))
        return np.array(values).reshape(n, p, r)
    i, j = np.triu_indices(p)
    upper = np.array(draw(st.lists(_ENTRIES, min_size=n * i.size,
                                   max_size=n * i.size))).reshape(n, -1)
    flip = np.array(draw(st.lists(st.booleans(), min_size=upper.size,
                                  max_size=upper.size))).reshape(n, -1)
    stack = np.empty((n, p, p))
    stack[:, i, j] = upper
    stack[:, j, i] = np.where(flip & (upper == 0.0), -upper, upper)
    return stack


@settings(max_examples=300, deadline=None)
@given(stack=_entry_stack(),
       kind=st.sampled_from(["matrix-gamma", "rect-exponential",
                             "uniform-unit-cone"]),
       seed=st.integers(min_value=-2**63, max_value=2**64))
@example(stack=np.array([[[1.0, 0.0], [-0.0, 1.0]]]), kind="matrix-gamma",
         seed=42)
# entries whose repr takes exponent form
@example(stack=np.array([[[1e-05, 1.5e+16], [1.5e+16, -2.5e-300]],
                         [[1e+22, 1e-05], [1e-05, 1e+16]]]),
         kind="matrix-gamma", seed=0)
# a -0.0 mirrored off the diagonal of a 3x3 matrix, in either triangle
@example(stack=np.array([[[1.0, 0.5, -0.0], [0.5, 2.0, 0.25], [0.0, 0.25, 3.0]],
                         [[1.0, 0.0, 0.5], [-0.0, 2.0, 0.0], [0.5, 0.0, 3.0]]]),
         kind="uniform-unit-cone", seed=-1)
# one record
@example(stack=np.array([[[0.125]]]), kind="uniform-unit-cone", seed=2**64)
# an (n, 2, 3) rectangular stack
@example(stack=np.arange(-12.0, 12.0).reshape(4, 2, 3) / 7.0,
         kind="rect-exponential", seed=7)
# subnormals that repr writes with one digit
@example(stack=np.array([[[5e-324, 1e-323], [1e-323, 7e-323]]]),
         kind="matrix-gamma", seed=1)
@example(stack=np.array([[[-5e-324, 1e-323, -7e-323], [7e-323, -0.0, 0.0]]]),
         kind="rect-exponential", seed=1)
def test_sample_lines_match_records_encoded_alone(stack, kind, seed):
    # the README's promise: each record is the same bytes as encoding it
    # alone with sorted keys, one line each
    want = [cli._dumps({"entries": m.tolist(), "index": k, "kind": kind,
                        "schema": "mvfrac/1", "seed": seed}) + "\n"
            for k, m in enumerate(stack)]
    assert cli._sample_lines(stack, kind, seed) == "".join(want)


@pytest.mark.parametrize("flags,message", [
    (["matrix-gamma", "--p", "2", "--shape", "inf"],
     "matrix gamma shape must be finite, got inf"),
    (["matrix-gamma", "--p", "2", "--shape", "nan"],
     "matrix gamma shape must be finite, got nan"),
    (["uniform-unit-cone", "--p", "0"], "dimension must be positive, got 0"),
    (["uniform-unit-cone", "--p", "-2"], "dimension must be positive, got -2"),
    (["uniform-unit-cone", "--p", "4"],
     "rejection sampling is limited to dimensions 1..3, got 4; "
     "higher dimensions need the beta importance sampler"),
    (["matrix-gamma", "--p", "241", "--shape", "130"],
     "matrix gamma dimension must be at most 240, got 241"),
    (["matrix-gamma", "--p", "2", "--shape", "0.5"],
     "matrix gamma shape must exceed (p-1)/2 = 0.5 at p = 2, got 0.5"),
])
def test_sample_domain_messages(capsys, flags, message):
    # refused before any draw, with a message that names the bad value
    capsys.readouterr()
    assert cli.main(["sample", *flags, "--n", "3"]) == 2
    (rec,) = strict_records(capsys.readouterr().out)
    assert rec["error"] == "ParameterDomainError"
    assert rec["message"] == message


@pytest.mark.parametrize("flags,message", [
    (["gamma", "--p", "2", "--alpha", "inf"],
     "gamma argument must be finite, got inf"),
    (["pochhammer", "--a", "nan", "--k", "2"],
     "Pochhammer parameter must be finite, got nan"),
    (["pathway", "--q", "inf", "--k", "1"], "q must be finite, got inf"),
    (["fracint-power", "--r", "1", "--alpha", "inf", "--z", "[[1.0]]"],
     "order must be finite, got inf"),
    (["beta", "--p", "2", "--alpha", "inf", "--beta", "1.5"],
     "alpha must be finite, got inf"),
    (["fracint-power", "--r", "0", "--alpha", "1", "--z", "[[1]]"],
     "r must be positive, got 0"),
    (["fracint-zonal", "--r", "0", "--alpha", "1", "--k", "1", "--z",
      "[[1]]"], "r must be positive, got 0"),
    (["saigo", "--r", "0", "--alpha", "1", "--a", "0", "--b", "0", "--c", "1",
      "--z", "[[1]]"], "r must be positive, got 0"),
    (["fracint-power", "--r", "-1", "--alpha", "1", "--z", "[[1]]"],
     "r must be positive, got -1"),
], ids=["gamma", "pochhammer", "pathway", "fracint-power", "beta",
        "fracint-power-r0", "fracint-zonal-r0", "saigo-r0",
        "fracint-power-r-1"])
def test_eval_non_finite_parameters_are_named(capsys, flags, message):
    # a non-finite real parameter is refused as that input, not reported as
    # a result that is not finite; so is an order r below 1, not as the
    # dimension of the identity weight B built from it
    capsys.readouterr()
    assert cli.main(["eval", *flags]) == 2
    (rec,) = strict_records(capsys.readouterr().out)
    assert rec["error"] == "ParameterDomainError"
    assert rec["message"] == message


@pytest.mark.parametrize("shape,n,code", [("0.75", 1000, 0),
                                          ("0.51", 20_000, 2)])
def test_sample_matrix_gamma_near_boundary(capsys, shape, n, code):
    # a valid shape just above (p-1)/2 prints all its draws; a shape whose
    # gamma variate underflows is one DegenerateInputError record
    capsys.readouterr()
    assert cli.main(["sample", "matrix-gamma", "--p", "2", "--shape", shape,
                     "--n", str(n), "--seed", "1"]) == code
    recs = strict_records(capsys.readouterr().out)
    if code == 0:
        assert [r["index"] for r in recs] == list(range(n))
    else:
        (rec,) = recs
        assert rec["error"] == "DegenerateInputError"


@st.composite
def _sample_argv(draw):
    kind = draw(st.sampled_from(["matrix-gamma", "rect-exponential",
                                 "uniform-unit-cone"]))
    p = draw(st.integers(min_value=1, max_value=4))
    argv = ["sample", kind, "--p", str(p),
            "--n", str(draw(st.integers(min_value=0, max_value=50))),
            "--seed", str(draw(st.integers(min_value=0, max_value=2**63)))]
    if kind == "matrix-gamma" and draw(st.integers(0, 9)):
        shape = draw(st.one_of(
            st.floats(min_value=-1.0, max_value=8.0),
            st.sampled_from([0.0, 0.5 * (p - 1), 1e-300, 1e300, math.inf,
                             math.nan])))
        argv += ["--shape", repr(shape)]
    if kind == "rect-exponential" and draw(st.integers(0, 9)):
        argv += ["--r", str(draw(st.integers(min_value=-1, max_value=7)))]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_sample_argv())
def test_sample_fuzz_exits_cleanly(capsys, argv):
    # in process: a documented exit code with strict JSON lines, the draws
    # indexed 0..n-1 on success, and the p >= 4 cone refused as a domain error
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2, 64)
    recs = strict_records(out)
    assert all(r["schema"] == "mvfrac/1" for r in recs)
    n = int(argv[argv.index("--n") + 1])
    if code == 0:
        assert [r["index"] for r in recs] == list(range(n))
        assert all(r["kind"] == argv[1] for r in recs)
    else:
        assert len(recs) == (0 if code == 64 else 1)
    if argv[1] == "uniform-unit-cone" and argv[3] == "4":
        assert code == 2
        assert recs[0]["error"] == "ParameterDomainError"


def test_extreme_spectrum_keeps_its_small_eigenvalue():
    # the p = 2 closed form cancelled 0.5 to 0.0 next to 1e300; the
    # condition number 2e300 is still beyond the 1e-12 definiteness rule,
    # which the operators apply (the series take any symmetric argument)
    proc = run("eval", "fracint-power", "--r", "2", "--alpha", "2.0",
               "--z", "[[1e300,0],[0,0.5]]")
    assert proc.returncode == 2
    (rec,) = strict_records(proc.stdout)
    assert rec["error"] == "DegenerateInputError"
    reported = json.loads(rec["message"].partition("eigenvalues ")[2][:-1])
    assert reported == pytest.approx([1e300, 0.5], rel=1e-15)
    assert "Warning" not in proc.stderr


def test_huge_finite_matrix_is_positive_definite():
    # diag(1e308, 1e308) overflowed to eigenvalues [inf, inf] and was
    # refused as not positive definite; its value overflows instead
    proc = run("eval", "fracint-power", "--r", "2", "--alpha", "2.0",
               "--z", "[[1e308,0],[0,1e308]]")
    assert proc.returncode == 2
    (rec,) = strict_records(proc.stdout)
    assert rec["error"] == "DegenerateInputError"
    assert "positive definite" not in rec["message"]
    assert "overflows" in rec["message"]
    assert "Warning" not in proc.stderr


def test_domain_error_prints_no_numpy_warning():
    # the weight-2 monomials of 1e300 overflow; the result is reported as
    # a non-finite value, with nothing on stderr
    proc = run("eval", "zonal", "--k", "2", "--eigs", "1e300")
    assert proc.returncode == 2
    (rec,) = strict_records(proc.stdout)
    assert rec["error"] == "DegenerateInputError"
    assert "RuntimeWarning" not in proc.stderr


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "rec.json"
    proc = run("eval", "gamma", "--p", "1", "--alpha", "2.0",
               "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    rec = json.loads(out.read_text())
    assert rec["log_value"] == pytest.approx(0.0, abs=1e-12)


def test_config_file_defaults_and_precedence(tmp_path):
    cfg = tmp_path / "defaults.conf"
    cfg.write_text("# defaults for sampling\nseed=11\nn=4\n")
    base = run("--config", str(cfg), "sample", "matrix-gamma", "--p", "2",
               "--shape", "2.5")
    assert base.returncode == 0
    assert len(records(base)) == 4
    # explicit flag wins over the config value
    override = run("--config", str(cfg), "sample", "matrix-gamma", "--p", "2",
                   "--shape", "2.5", "--n", "2")
    assert len(records(override)) == 2
    # same settings as an all-flags run: byte identical
    flags = run("sample", "matrix-gamma", "--p", "2", "--shape", "2.5",
                "--n", "4", "--seed", "11")
    assert base.stdout == flags.stdout


@pytest.mark.parametrize("line", ["func=x", "sample=5"])
def test_config_unknown_key_is_usage_error(capsys, tmp_path, line):
    # only a flag of some subcommand may be set; the error names the key
    # and its line
    cfg = tmp_path / "defaults.conf"
    cfg.write_text(f"# defaults\nseed=11\n{line}\n")
    capsys.readouterr()
    code = _main(["--config", str(cfg), "eval", "gamma", "--p", "2",
                  "--alpha", "3.0"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert f"{cfg}:3:" in captured.err
    assert repr(line.partition("=")[0]) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", [
    ["eval", "gamma", "--p", "2", "--alpha", "3.0"],
    ["verify", "--suite", "pathway"],
    ["sample", "uniform-unit-cone", "--p", "2", "--n", "3"],
], ids=["eval", "verify", "sample"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, command, target):
    path = tmp_path / "no-such-dir" / "x.json" if target == "missing-dir" \
        else tmp_path
    capsys.readouterr()
    code = _main([*command, "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert f"cannot write {path}" in captured.err
    assert "Traceback" not in captured.err


def test_parser_reuse_keeps_configs_apart(capsys, tmp_path):
    # each in-process call prints what a fresh process prints: neither
    # config's defaults nor its lifted required flags reach a later call
    cfg_a, cfg_b = tmp_path / "a.conf", tmp_path / "b.conf"
    cfg_a.write_text("seed=11\nn=4\n")
    cfg_b.write_text("p=3\nalpha=2.5\nshape=1.5\n")
    gamma_sample = ["sample", "matrix-gamma", "--p", "2", "--shape", "2.5"]
    calls = [
        ["--config", str(cfg_a), *gamma_sample],
        ["--config", str(cfg_b), "eval", "gamma"],
        ["--config", str(cfg_b), "sample", "matrix-gamma", "--n", "2"],
        gamma_sample,                                   # --n is required
        [*gamma_sample, "--n", "4"],                    # seed 42, not 11
        ["eval", "gamma"],                              # --p, --alpha required
        ["eval", "gamma", "--p", "2", "--alpha", "3"],
        ["--config", str(cfg_a), *gamma_sample],
    ]
    for argv in calls:
        capsys.readouterr()
        code = _main(argv)
        out = capsys.readouterr().out
        fresh = run(*argv)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


@pytest.fixture
def fresh_shared_parser():
    cli._shared_parsers.cache_clear()
    yield
    cli._shared_parsers.cache_clear()


def test_parser_built_once_per_process(monkeypatch, capsys,
                                       fresh_shared_parser):
    built = []

    def counting_build():
        built.append(1)
        return real_build()

    real_build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", counting_build)
    for argv in (["eval", "gamma", "--p", "2", "--alpha", "3"],
                 ["eval", "beta", "--p", "2", "--alpha", "3", "--beta", "2"],
                 ["verify", "--suite", "pathway"],
                 ["sample", "uniform-unit-cone", "--p", "2", "--n", "3"],
                 ["eval", "gamma", "--p", "2"]):
        _main(argv)
    assert len(built) == 1


@pytest.mark.parametrize("source", ["config", "flag"])
def test_suite_outside_choices_is_usage_error(capsys, tmp_path, source):
    # a config value is checked against the flag's choices as the flag is:
    # both exit 64 with nothing on stdout
    cfg = tmp_path / "defaults.conf"
    cfg.write_text("suite=bogus\n")
    argv = (["--config", str(cfg), "verify"] if source == "config"
            else ["verify", "--suite", "bogus"])
    capsys.readouterr()
    code = _main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "'bogus'" in captured.err
    assert "Traceback" not in captured.err


def test_package_runs_as_module():
    # python -m mvfrac is the command line of python -m mvfrac.cli
    args = ("eval", "gamma", "--p", "2", "--alpha", "3")
    package = run_python("-m", "mvfrac", *args)
    assert package.returncode == 0
    assert package.stdout == run(*args).stdout


def test_config_flag_without_value_is_usage_error():
    proc = run("eval", "gamma", "--p", "2", "--alpha", "3", "--config")
    assert proc.returncode == 64
    assert proc.stderr.startswith("mvfrac: error:")


def test_config_file_malformed():
    proc = run("--config", "/no/such/file", "eval", "gamma", "--p", "1",
               "--alpha", "1.0")
    assert proc.returncode == 64


@pytest.mark.parametrize("argv,message", [
    (["--config", "/nonexistent/x.conf", "eval", "gamma", "--p", "2",
      "--alpha", "3"], "cannot read config /nonexistent/x.conf: "),
    (["eval", "zonal", "--k", "1", "--z-file", "/nonexistent.json"],
     "cannot read /nonexistent.json: "),
    (["eval", "hyper", "--num", "a,b", "--eigs", "0.5"],
     "argument --num: not a comma-separated float list: 'a,b'"),
], ids=["config", "z-file", "num"])
def test_unreadable_inputs_are_named(capsys, argv, message):
    # the usage-error table's checks plus the message
    capsys.readouterr()
    assert _main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.skipif(shutil.which("mvfrac") is None,
                    reason="console script not installed")
def test_console_script_matches_module():
    args = ("eval", "gamma", "--p", "2", "--alpha", "3.0")
    script = subprocess.run([shutil.which("mvfrac"), *args],
                            capture_output=True, text=True)
    assert script.returncode == 0
    assert script.stdout == run(*args).stdout
