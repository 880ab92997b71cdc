"""Every verification record's pass flag follows from its own numbers.

Walks the cases of each suite at the pinned CLI flags and re-derives each
flag from the fields the record prints, so a record can never pass on a
number that says it fails, or the other way round.
"""

import json
import re

import numpy as np
import pytest

from mvfrac import ParameterDomainError, RectConfig, cli
from mvfrac.verify import SUITES, run_suite, suite_binomial, verify_sum_density

from test_cli import _VERIFY_DIGESTS


def _leaf_passes(leaf, group, report):
    """The pass flag the leaf's printed numbers imply."""
    if "z" in leaf:
        limit = 4.0 if group.get("check") == "sum-density" else 3.0
        return abs(leaf["z"]) <= limit
    if "rel_error" in leaf:
        return leaf["rel_error"] <= 1e-12
    if "statistic" in leaf:
        return leaf["statistic"] < leaf["critical"]
    if "abs_error" in leaf:
        return leaf["abs_error"] < report["tolerance"]
    if leaf["name"].endswith("-decay"):
        return (all(5.0 < r < 20.0 for r in leaf["ratios"])
                and leaf["final_error"] < 1e-3)
    if leaf["name"] == "degenerate-exact":
        return (leaf["empty_partition_factor"] == 1.0
                and leaf["zero_spectrum_limit"] == 1.0)
    raise AssertionError(f"no rule for case {leaf['name']!r}")


def _check_flags(group, report):
    """Assert every flag under group; return its leaves' flags."""
    flags = []
    for case in group["cases"]:
        if "cases" in case:
            flags += _check_flags(case, report)
        else:
            assert case["pass"] == _leaf_passes(case, group, report), case
            flags.append(case["pass"])
    assert group["pass"] == all(c["pass"] for c in group["cases"])
    return flags


@pytest.mark.parametrize("suite", sorted(_VERIFY_DIGESTS))
def test_pass_flags_follow_numbers_pinned(capsys, suite):
    flags, _ = _VERIFY_DIGESTS[suite]
    capsys.readouterr()
    assert cli.main(["verify", "--suite", suite, *flags, "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(_check_flags(report, report))


def test_pass_flags_follow_numbers_short_binomial():
    # at k_max = 12 the truncation error exceeds the tolerance at the larger
    # powers, so the flags of failing cases are checked too
    report = suite_binomial(k_max=12, seed=7)
    assert sorted(_check_flags(report, report)) == [False] * 4 + [True] * 2
    assert not report["pass"]


@pytest.mark.parametrize("seed", [1.5, 2.0, True])
def test_suites_refuse_non_integer_seeds(seed):
    # the pathway suite draws nothing, and used to report int(seed)
    with pytest.raises(ParameterDomainError, match="seed must be an integer"):
        run_suite("pathway", seed=seed)
    cfg = RectConfig.with_identity_weights(1, 1)
    with pytest.raises(ParameterDomainError, match="seed must be an integer"):
        verify_sum_density(cfg, cfg, 100, seed)


def test_run_suite_refuses_a_keyword_its_suite_does_not_take():
    # the pathway suite reads only its seed; samples is refused, not dropped
    with pytest.raises(ParameterDomainError,
                       match="suite 'pathway' does not take samples;"):
        run_suite("pathway", samples=5)


def test_run_suite_refuses_an_unknown_suite():
    # the command line refuses --suite bogus and suite=bogus before this
    with pytest.raises(ParameterDomainError, match=re.escape(
            f"unknown suite 'bogus'; choose from {sorted(SUITES)}")):
        run_suite("bogus", seed=7)


def test_negative_and_numpy_seeds_are_reported_as_ints(capsys):
    assert run_suite("pathway", seed=np.int64(-4))["seed"] == -4
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "pathway", "--seed", "-1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == -1
