"""Command-line interface: record shapes, exit codes, determinism.

Runs ``python -m mvfrac.cli`` in subprocesses, so these tests need no
installed package.  Where the ``mvfrac`` console script is on PATH, one
more test checks that it prints the same bytes.  Exit code contract:
0 success, 1 failed verification, 2 domain error, 64 usage error.
"""

import hashlib
import json
import math
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mvfrac import (
    MatrixGammaSpec,
    RectConfig,
    cli,
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


def test_verify_suite_runs_and_passes():
    proc = run("verify", "--suite", "pathway")
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["schema"] == "mvfrac/1"
    assert rec["suite"] == "pathway"
    assert rec["pass"] is True


def test_verify_unknown_suite():
    assert run("verify", "--suite", "bogus").returncode == 64


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
# subcommand wrote its own record envelope; {zfile} holds
# [[1.2,-0.3],[-0.3,0.9]]
_EVAL_DIGESTS = [
    (["gamma", "--p", "2", "--alpha", "3.0"], 0,
     "4ed71dbf23eaee342f8aeaf5efc7993de85ff9b063265b442bc1313e5fe49fc3"),
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
     "139aa42d454d4e72707fa01e49a5878f7b4a3d8fe0c56c155250c2e793bc663d"),
    (["fracint-power", "--r", "3", "--alpha", "1.5", "--eta", "0.3",
      "--z-file", "{zfile}", "--weight-a", _WA, "--weight-b", _WB], 0,
     "a54c4deccc592ce527413938fad62be3afd5fce88a06e0030af767e758f6d715"),
    (["fracint-zonal", "--r", "2", "--alpha", "1.5", "--k", "2,1",
      "--z", _Z2, "--weight-a", _WA], 0,
     "f3b98849c1b479cec986527be2cb25d41633c965baacb097bb6b96e5f4e35fc7"),
    (["saigo", "--r", "2", "--alpha", "1.5", "--a", "0.0", "--b", "0.4",
      "--c", "2.5", "--z", _Z2], 0,
     "7e04121827b24be3283eaa0beb618c4e9ec1be1475d4b8c396a45defe478cbe0"),
    (["saigo", "--r", "3", "--alpha", "1.0", "--a", "0.3", "--b", "0.2",
      "--c", "2.0", "--eta", "0.5", "--kmax", "12", "--z", _Z2,
      "--weight-b", _WB], 0,
     "8b1cb8ff4c65ef6d45034f71e979aeb2f2ee53c607632fd2f404c6791dfacd59"),
    (["pathway", "--q", "1.01", "--eigs", "1.0,0.5"], 0,
     "229d204b6f76a7087e719671b0edc0d5870acda293a102624aa07f39c1455d59"),
    (["pathway", "--q", "2.0", "--k", "2,1"], 0,
     "d129f005004c260f9baea5ad0eb14371feef7ea96ac668e6107096045aa54cbd"),
    # domain errors
    (["gamma", "--p", "3", "--alpha", "0.5"], 2,
     "3d76772cea6659348c0f36df3fda46d29fae4731d80b9dafe41658158592b239"),
    (["fracint-power", "--r", "1", "--alpha", "1.0", "--z", "[[-1.0]]"], 2,
     "877a7d406737ffda40f0977b8d3a87d519f8a98738b5e102c5bd955a0b7a3fe0"),
    (["fracint-power", "--r", "1", "--alpha", "2.0", "--z", "[[1e300]]"], 2,
     "b4b76b916aa3973cfcd39b0261175938c12756933673a802cd14efdae6b8ff05"),
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


@pytest.mark.parametrize("argv", [
    ["eval", "gamma", "--p", "2"],
    ["eval", "beta", "--p", "two", "--alpha", "1", "--beta", "1"],
    ["eval", "no-such-op"],
    ["eval", "pochhammer", "--a", "1", "--k", "1,x"],
    ["eval", "zonal", "--k", "1"],
    ["eval", "hyper", "--num", "1", "--eigs", "0.5", "--z", "[[0.5]]"],
    ["eval", "fracint-power", "--r", "1", "--alpha", "1", "--z", "{"],
    ["eval", "fracint-zonal", "--r", "1", "--alpha", "1", "--z", "[[1]]"],
    ["eval", "saigo", "--r", "1", "--alpha", "1", "--a", "0", "--b", "0",
     "--z", "[[0.5]]"],
    ["eval", "pathway", "--q", "1.01"],
    ["eval", "pathway", "--q", "1.01", "--eigs", "1.0", "--k", "2"],
], ids=lambda argv: "-".join(argv[1:3]))
def test_eval_usage_errors_are_64(capsys, argv):
    capsys.readouterr()
    code = _main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "Traceback" not in captured.err


_SUBCOMMANDS = [["eval", name] for name in (
    "gamma", "beta", "pochhammer", "zonal", "hyper", "fracint-power",
    "fracint-zonal", "saigo", "pathway")] + [["verify"], ["sample"]]


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
# the samplers
_VERIFY_DIGESTS = {
    "beta": (["--samples", "4000"],
             "6da7ce08288ab112ed6412fd1a5fd68a09113db52a05d395549de4dc462358f3"),
    "binomial": ([],
                 "8e1abf26afc0ffa3522a7d133b2b38ab4e9587775b61502af66d3c67faf40793"),
    "euler": (["--samples", "20000"],
              "4b0c0d11f666d60fdf994821e0ce847837b7fe444699c2fa37eb3cd68e332100"),
    "fracpower": (["--samples", "4000"],
                  "5da2e91728552ff648f1c7e0c3ee2932186b9acb8d627e09cf1eb06f9031d675"),
    "fraczonal": (["--samples", "2000"],
                  "98cf019b1c3aedd90ff847c9b4fc1e7139d1550aa88dc7bc6821cc637d089ab9"),
    "pathway": ([],
                "28c499909ad2c9d3e66083951812b4b2d492eda7ae6fc771d220a0fbfe1c30ad"),
    "saigo": (["--samples", "4000"],
              "dd3d571baf7865a8ed9b3031437ce15a3ac735eb04b42ccdce56280f4e6198d2"),
    "sumdensity": (["--samples", "4000"],
                   "e7a4a1966eb8987c52e6c7beb30921f6f6f00ea122e918f4f776c0281fe36122"),
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
# gathered into one stack before the operand saw them
_VERIFY_MULTIBLOCK_DIGESTS = {
    "euler": (["--samples", "60000"],
              "4ae2dbdff8a41619056aee58d8877bdcbc42377a32483885164f23fb2f1fd1a0"),
    "fracpower": (["--samples", "50000"],
                  "fb81aa9126c70d32dc653844373c91feb2e62b5a804a356697be0e16a7a1c141"),
    "saigo": (["--samples", "60000"],
              "58ae70217a8f55f58c1099fd33aa6423d1d24f4b70e7d892359fa919b7a9a88a"),
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
# computed when that product was an einsum over (n, p, r) stacks
_SUMDENSITY_DIGESTS = {
    "p3-r3-r5": (["--p", "3", "--r1", "3", "--r2", "5"],
                 "f429a3660829606f4682f6783269ff1574ad17100d089aabb6d968effeab340a"),
    "p8-r8-r9": (["--p", "8", "--r1", "8", "--r2", "9"],
                 "0b340baeb9f1229fa4996904aa76a9489e353d1a04d2a708fcba5b4fa59d1f47"),
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


@pytest.mark.parametrize("flags,draw,shape", [
    (["matrix-gamma", "--p", "3", "--shape", "2.5"],
     lambda: sample_matrix_gamma(MatrixGammaSpec(3, 2.5), 50, 7), (50, 3, 3)),
    (["rect-exponential", "--p", "2", "--r", "3"],
     lambda: sample_rect_exponential(RectConfig.with_identity_weights(2, 3),
                                     50, 7), (50, 2, 3)),
    (["uniform-unit-cone", "--p", "3"],
     lambda: sample_uniform_spd_unit(3, 50, 7), (50, 3, 3)),
    (["matrix-gamma", "--p", "5", "--shape", "3.5"],
     lambda: sample_matrix_gamma(MatrixGammaSpec(5, 3.5), 50, 7), (50, 5, 5)),
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
def test_sample_lines_match_records_encoded_alone(stack, kind, seed):
    # the README's promise: each record is the same bytes as encoding it
    # alone with sorted keys
    want = [cli._dumps({"entries": m.tolist(), "index": k, "kind": kind,
                        "schema": "mvfrac/1", "seed": seed})
            for k, m in enumerate(stack)]
    assert cli._sample_lines(stack, kind, seed) == want


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
])
def test_sample_domain_messages(capsys, flags, message):
    # refused before any draw, with a message that names the bad value
    capsys.readouterr()
    assert cli.main(["sample", *flags, "--n", "3"]) == 2
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
    # condition number 2e300 is still beyond the 1e-12 definiteness rule
    proc = run("eval", "hyper", "--num=", "--eigs", "1e300,0.5")
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


def test_config_flag_without_value_is_usage_error():
    proc = run("eval", "gamma", "--p", "2", "--alpha", "3", "--config")
    assert proc.returncode == 64
    assert proc.stderr.startswith("mvfrac: error:")


def test_config_file_malformed():
    proc = run("--config", "/no/such/file", "eval", "gamma", "--p", "1",
               "--alpha", "1.0")
    assert proc.returncode == 64


@pytest.mark.skipif(shutil.which("mvfrac") is None,
                    reason="console script not installed")
def test_console_script_matches_module():
    args = ("eval", "gamma", "--p", "2", "--alpha", "3.0")
    script = subprocess.run([shutil.which("mvfrac"), *args],
                            capture_output=True, text=True)
    assert script.returncode == 0
    assert script.stdout == run(*args).stdout
