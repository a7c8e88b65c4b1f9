"""Driver-level tests: exit codes, report schema, determinism.

Everything but the closed-stdout test runs in-process through
console_main(argv), so coverage of the failure paths is exact (argparse
usage problems surface as SystemExit(3), everything else as a returned
code).
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from equifix.cli import EXAMPLES, REPORT_SCHEMA, console_main

FAMILY_NAMES = sorted(EXAMPLES)  # chain-3, dropping-tap, tap, trivial


def run(capsys, *argv):
    code = console_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(path):
    """Read a report file and insist it matches the published schema."""
    report = json.loads(path.read_text())
    jsonschema.validate(instance=report, schema=REPORT_SCHEMA)
    return report


def family_config(tmp_path, capsys, name):
    path = tmp_path / f"{name}.yaml"
    code, _, _ = run(capsys, "gen-example", name, "--config", str(path))
    assert code == 0
    return path


EXPECTED_TAP_YAML = """\
# bundled action family: tap
label: tap
p: 2
d: 2
seed:
  - {in: [1, 0], out: [2, 0], coeff: 1}
precision: 4
l_max: 3
n_max: 3
rng_seed: 0
"""


def test_report_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


# ---------------------------------------------------------------- gen-example


def test_gen_example_prints_config_to_stdout(capsys):
    code, out, err = run(capsys, "gen-example", "tap")
    assert code == 0
    assert out == EXPECTED_TAP_YAML
    assert err == ""


def test_gen_example_empty_seed_family(capsys):
    code, out, _ = run(capsys, "gen-example", "trivial")
    assert code == 0
    assert "seed: []" in out
    assert "p: 2\nd: 1\n" in out


def test_gen_example_writes_file_and_report(tmp_path, capsys):
    cfg = tmp_path / "tap.yaml"
    rpt = tmp_path / "tap.json"
    code, out, _ = run(
        capsys, "gen-example", "tap", "--config", str(cfg), "--json", str(rpt)
    )
    assert code == 0
    assert out == f"wrote {cfg}\n"
    assert cfg.read_text() == EXPECTED_TAP_YAML
    report = load_report(rpt)
    assert report["status"] == "ok"
    assert report["result"]["config"] == EXPECTED_TAP_YAML
    assert report["action"]["label"] == "tap"


def test_gen_example_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        console_main(["gen-example", "moebius"])
    assert info.value.code == 3


# ---------------------------------------------------------------- validate


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_validate_bundled_families(tmp_path, capsys, name):
    cfg = family_config(tmp_path, capsys, name)
    rpt = tmp_path / "report.json"
    code, out, err = run(capsys, "validate", "--config", str(cfg), "--json", str(rpt))
    assert code == 0, err
    assert "certified" in out
    report = load_report(rpt)
    assert report["status"] == "ok"
    assert report["result"]["certificates"]["nilpotency"]["ok"]
    assert report["result"]["certificates"]["commutation"]["ok"]
    assert report["result"]["equivariance"]["ok"]
    if name == "trivial":
        assert report["result"]["trivial"] and report["result"]["modulus"] == []
    else:
        ks = [k for k, _ in report["result"]["modulus"]]
        assert ks == sorted(ks) and -3 in ks


def test_validate_rejects_swap_seed(tmp_path, capsys):
    cfg = tmp_path / "swap.yaml"
    cfg.write_text(
        "p: 2\nd: 2\nseed:\n"
        "  - {in: [1, 0], out: [2, 0], coeff: 1}\n"
        "  - {in: [2, 0], out: [1, 0], coeff: 1}\n"
    )
    rpt = tmp_path / "swap.json"
    code, _, err = run(capsys, "validate", "--config", str(cfg), "--json", str(rpt))
    assert code == 1
    assert "not-order-p" in err
    report = load_report(rpt)
    assert report["status"] == "validation-failure"
    assert report["reason"] == "not-order-p"
    assert report["result"]["witness_power"] == 2


def test_validate_rejects_cross_level_chain(tmp_path, capsys):
    cfg = tmp_path / "cross.yaml"
    cfg.write_text(
        "p: 2\nd: 3\nseed:\n"
        "  - {in: [1, 0], out: [2, 1], coeff: 1}\n"
        "  - {in: [2, 0], out: [3, 0], coeff: 1}\n"
    )
    rpt = tmp_path / "cross.json"
    code, _, err = run(capsys, "validate", "--config", str(cfg), "--json", str(rpt))
    assert code == 1
    assert "non-commuting" in err
    report = load_report(rpt)
    assert report["reason"] == "non-commuting"
    assert len(report["result"]["offsets"]) == 2


def test_validate_oracle_flag(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "validate", "--config", str(cfg), "--json", str(rpt), "--oracle"
    )
    assert code == 0
    assert "oracle window-matrix order check: match" in out
    assert load_report(rpt)["result"]["oracle"]["order_check"] == "match"


# ---------------------------------------------------------------- bad input

# Configs the strict check rejects, with the key the message must name.
STRICT_CONFIG_CASES = [
    ("p: 2\nd: 2\nseed: []\nlmax: 9\n", "lmax"),  # unknown top-level key
    ("p: 2\nd: 2\nseed:\n  - {in: [1, 0], out: [2, 0], coef: 1}\n", "coef"),  # unknown tap key
    ("p: 2\nd: 2\nseed:\n  - {in: [1, 0], out: [2, 0], coeff: 1.7}\n", "coeff"),
    ("p: 2\nd: 2\nseed:\n  - {in: [1, '0'], out: [2, 0], coeff: 1}\n", "in"),
    ("p: 2.0\nd: 2\nseed: []\n", "p"),
    ("p: 2\nd: 2\nseed: []\nl_max: '3'\n", "l_max"),
    ("p: 2\nd: true\nseed: []\n", "d"),
    ("p: 2\nd: 2\nseed: []\nwindow: [-1.5, 3]\n", "window"),
    ("p: 2\nd: 2\nseed: 5\n", "seed"),
    ("p: 2\nd: 2\nseed: 0\n", "seed"),
    ("p: 2\nd: 2\nseed: false\n", "seed"),
    ("p: 2\nd: 2\nseed: ''\n", "seed"),
    ("p: 2\nd: 2\nseed: {}\n", "seed"),
    ("p: 2\nd: 2\nseed: []\nlabel: 5\n", "label"),
    ("p: 2\nd: 2\nseed: []\nlabel: [a, b]\n", "label"),
    ("p: 2\nd: 2\nseed: []\nlabel: true\n", "label"),
    ("d: 2\nseed: []\n", "p"),  # p missing
    ("p: 2\nd: 2\nseed:\n  - {in: [1], out: [2, 0], coeff: 1}\n", "in"),  # short pair
    ("p: null\nd: 2\nseed: []\n", "p"),
    ("p: 2\nd: null\nseed: []\n", "d"),
    ("p: 2\nd: 2\nseed:\n  - {in: [], out: [2, 0], coeff: 1}\n", "in"),
    ("p: 2\nd: 2\nseed:\n  - {in: [1, 0, 3], out: [2, 0], coeff: 1}\n", "in"),
    ("p: 2\nd: 2\nseed:\n  - {in: 5, out: [2, 0], coeff: 1}\n", "in"),
    ("p: 2\nd: 2\nseed:\n  - {in: [1, 0], out: 3, coeff: 1}\n", "out"),
    ("p: 2\nd: 2\nseed:\n  - {in: [1, 0], out: [2, 0], coeff: [1, 1]}\n", "coeff"),
    ("p: 2\nd: 2\nseed:\n  - {out: [2, 0], coeff: 1}\n", "in"),
    ("p: 2\nd: 2\nseed:\n  - {in: [1, 0], coeff: 1}\n", "out"),
    ("p: 2\nd: -1\nseed: []\n", "d"),
    ("p: 2\nd: 2\nseed: []\nwindow: [2, 2]\n", "window"),
    ("p: 2\nd: 2\nseed: []\nwindow: [0, 1, 2]\n", "window"),
    ("p: 2\nd: 2\nseed: []\nwindow: '3:1'\n", "window"),
    ("p: 2\nd: 2\nseed: []\nwindow: '0:x'\n", "window"),
    ("p: 2\nd: 2\nseed: []\nwindow: 5\n", "window"),
    ("p: 2\nd: 2\nseed: []\nwindow: 1:3\n", "window"),  # YAML 1.1 reads 1:3 as 63
    ("p: 2\nd: 2\nseed: []\nwindow: -1:3\n", "window"),  # and -1:3 as -63
]
# Python exception texts a parse-error message must never show.
EXCEPTION_TEXTS = ("unpack", "KeyError(", "TypeError(", "int() argument")


@pytest.mark.parametrize(
    "text",
    [
        "p: 4\nd: 2\nseed: []\n",  # modulus not prime
        "p: 2\nd: 2\nseed: []\nwindow: [3, 1]\n",  # inverted window
        *(text for text, _ in STRICT_CONFIG_CASES),
    ],
)
def test_malformed_config_contents_exit_one(tmp_path, capsys, text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    rpt = tmp_path / "bad.json"
    code, _, err = run(capsys, "validate", "--config", str(cfg), "--json", str(rpt))
    assert code == 1
    assert "parse-error" in err
    report = load_report(rpt)
    assert report["status"] == "validation-failure"
    assert report["reason"] == "parse-error"


@pytest.mark.parametrize("text,key", STRICT_CONFIG_CASES)
def test_strict_config_message_names_the_key(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    rpt = tmp_path / "bad.json"
    code, _, _ = run(capsys, "find-fixed", "--config", str(cfg), "--json", str(rpt))
    assert code == 1
    report = load_report(rpt)
    message = report["result"]["message"]
    assert f"'{key}'" in message
    assert not any(t in message for t in EXCEPTION_TEXTS), message
    assert report["action"]["label"] == ""  # none of these configs has a string label


@pytest.mark.parametrize(
    "text,p,d",
    [
        ("p: 2.0\nd: 2\nseed: []\n", 0, 2),
        ("p: 7.9\nd: 2\nseed: []\n", 0, 2),
        ("p: '3'\nd: 2\nseed: []\n", 0, 2),
        ("p: 2\nd: true\nseed: []\n", 2, 0),  # the valid p is reported as given
    ],
)
def test_rejected_config_reports_only_checked_values(tmp_path, capsys, text, p, d):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    rpt = tmp_path / "bad.json"
    code, _, _ = run(capsys, "validate", "--config", str(cfg), "--json", str(rpt))
    assert code == 1
    action = load_report(rpt)["action"]
    assert (action["p"], action["d"], action["label"]) == (p, d, "")


def test_null_seed_and_label_mean_the_defaults(tmp_path, capsys):
    cfg = tmp_path / "nulls.yaml"
    cfg.write_text("p: 2\nd: 2\nseed: null\nlabel: null\n")
    rpt = tmp_path / "nulls.json"
    code, _, _ = run(capsys, "validate", "--config", str(cfg), "--json", str(rpt))
    assert code == 0
    action = load_report(rpt)["action"]
    assert (action["label"], action["seed"]) == ("", [])


def test_unreadable_config_exits_three(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--config", str(tmp_path / "nope.yaml"))
    assert code == 3
    assert "cannot read config" in err


def test_non_mapping_yaml_exits_three(tmp_path, capsys):
    cfg = tmp_path / "list.yaml"
    cfg.write_text("- 1\n- 2\n")
    code, _, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 3
    assert "mapping" in err


def test_broken_yaml_exits_three(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("p: [unclosed\n")
    code, _, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 3
    assert "not valid YAML" in err


def test_config_that_is_not_utf8_exits_three(tmp_path, capsys):
    cfg = tmp_path / "binary.yaml"
    cfg.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 3
    assert "cannot read config" in err


@pytest.mark.parametrize("target", ["missing/report.json", "."])  # no such directory; a directory
def test_unwritable_report_exits_three(tmp_path, capsys, target):
    cfg = family_config(tmp_path, capsys, "tap")
    for argv in (["validate", "--config", str(cfg)], ["gen-example", "tap"]):
        code, _, err = run(capsys, *argv, "--json", str(tmp_path / target))
        assert code == 3, argv
        assert "cannot write" in err


def test_missing_subcommand_exits_three(capsys):
    with pytest.raises(SystemExit) as info:
        console_main([])
    assert info.value.code == 3


def test_bad_window_argument_exits_three(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    with pytest.raises(SystemExit) as info:
        console_main(["find-fixed", "--config", str(cfg), "--window", "3"])
    assert info.value.code == 3


# ---------------------------------------------------------------- find-fixed


def test_find_fixed_bundled_families(tmp_path, capsys):
    expected = {
        "trivial": ("(1 + O(t^4))", False),
        "tap": ("(0 + O(t^4), 1 + O(t^4))", False),
        "dropping-tap": ("(0 + O(t^4), 1 + O(t^4))", True),
        "chain-3": ("(0 + O(t^4), 0 + O(t^4), 1 + O(t^4))", False),
    }
    for name in FAMILY_NAMES:
        cfg = family_config(tmp_path, capsys, name)
        rpt = tmp_path / f"{name}-ff.json"
        code, out, err = run(
            capsys, "find-fixed", "--config", str(cfg), "--json", str(rpt)
        )
        assert code == 0, (name, err)
        witness, strictly_smaller = expected[name]
        assert f"witness {witness}" in out
        report = load_report(rpt)
        assert report["status"] == "ok"
        # the report stores the witness one component per entry
        assert report["result"]["certificate"]["witness"] == witness[1:-1].split(", ")
        assert report["result"]["m_hat_smaller_than_lattice"] is strictly_smaller


def test_find_fixed_narrow_window_exits_two(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "narrow.json"
    code, _, err = run(
        capsys,
        "find-fixed", "--config", str(cfg), "--window", "0:2", "--json", str(rpt),
    )
    assert code == 2
    assert "window-too-narrow" in err
    report = load_report(rpt)
    assert report["status"] == "window-too-small"
    assert report["result"]["suggestion"] == "retry with window [-2,4)"
    assert report["params"]["window"] == {"lo": 0, "hi": 2}


@pytest.mark.parametrize(
    "name,command,window,extra",
    [("dropping-tap", "find-fixed", "0:3", ()), ("tap", "lemma-check", "-1:3", ()),
     # precision 9 needs a top of 9: one doubling of [-2,4) reaches only 8
     ("tap", "find-fixed", "-2:4", ("--precision", "9"))],
    ids=["dropping-tap-find-fixed-0:3", "tap-lemma-check--1:3", "tap-find-fixed--2:4-precision-9"],
)
def test_soft_failure_suggests_a_window_that_runs(tmp_path, capsys, name, command, window, extra):
    cfg = family_config(tmp_path, capsys, name)
    rpt = tmp_path / "narrow.json"
    code, _, err = run(capsys, command, "--config", str(cfg), f"--window={window}", *extra,
                       "--json", str(rpt))
    assert code == 2, err
    suggestion = load_report(rpt)["result"]["suggestion"]
    lo, hi = suggestion.removeprefix("retry with window [").removesuffix(")").split(",")
    code, _, err = run(capsys, command, "--config", str(cfg), f"--window={lo}:{hi}", *extra)
    assert code == 0, (suggestion, err)


def test_soft_failure_beside_the_dimension_cap_keeps_its_reason(tmp_path, capsys):
    # Widening [-129,1) passes the 512 cap; the suggestion is the join
    # with the policy window instead, and the failure stays soft.
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "narrow.json"
    code, _, err = run(capsys, "find-fixed", "--config", str(cfg), "--window=-129:1",
                       "--l-max", "0", "--json", str(rpt))
    assert code == 2, err
    report = load_report(rpt)
    assert report["reason"] == "window-too-narrow"
    suggestion = report["result"]["suggestion"]
    assert suggestion == "retry with window [-129,4)"
    code, _, err = run(capsys, "find-fixed", "--config", str(cfg), "--window=-129:4",
                       "--l-max", "0")
    assert code == 0, err


def test_find_fixed_negative_window_flag(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "wide.json"
    code, _, _ = run(
        capsys,
        "find-fixed", "--config", str(cfg), "--window=-3:4", "--json", str(rpt),
    )
    assert code == 0
    assert load_report(rpt)["params"]["window"] == {"lo": -3, "hi": 4}


def test_find_fixed_oracle_verdicts(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    small = tmp_path / "small.json"
    code, out, _ = run(
        capsys,
        "find-fixed", "--config", str(cfg), "--precision", "3",
        "--window", "0:3", "--json", str(small), "--oracle",
    )
    assert code == 0
    assert load_report(small)["result"]["oracle"]["m_hat_check"] == "match"
    big = tmp_path / "big.json"
    code, out, _ = run(
        capsys, "find-fixed", "--config", str(cfg), "--json", str(big), "--oracle"
    )
    assert code == 0  # 417,199 subspaces of the 8-dim lattice image: checked
    assert load_report(big)["result"]["oracle"]["m_hat_check"] == "match"
    drop = family_config(tmp_path, capsys, "dropping-tap")
    huge = tmp_path / "huge.json"
    code, out, _ = run(
        capsys, "find-fixed", "--config", str(drop), "--json", str(huge), "--oracle"
    )
    assert code == 0  # too large to enumerate: honest skip, not a guess
    assert load_report(huge)["result"]["oracle"]["m_hat_check"] == "skipped-budget"


WIDENED_CONFIG = (
    "p: 2\nd: 4\nseed:\n"
    "  - {in: [1, 3], out: [3, -2]}\n"
    "  - {in: [2, 0], out: [3, -2]}\n"
    "  - {in: [1, -2], out: [3, -1]}\n"
)


def test_find_fixed_widens_the_policy_window_its_certificate_cannot_read(tmp_path, capsys):
    """The seed reads t^3 and writes t^-2: at precision 2 the certificate
    cannot read its taps on the policy window [-7,4), so find-fixed runs
    on the doubled window [-14,8) and certifies there, with the result
    --window=-14:8 gives."""
    cfg = tmp_path / "widened.yaml"
    cfg.write_text(WIDENED_CONFIG)
    reports = []
    for window in ([], ["--window=-14:8"]):
        rpt = tmp_path / f"widened{len(reports)}.json"
        code, _, err = run(capsys, "find-fixed", "--config", str(cfg), "--precision", "2",
                           "--l-max", "5", *window, "--json", str(rpt))
        assert code == 0, err
        reports.append(load_report(rpt))
    chain = reports[0]["result"]["chain"]
    assert chain["window"] == {"lo": -14, "hi": 8}
    assert chain["dims"] == [30, 29, 28, 27, 27, 27]
    assert reports[0]["result"]["certificate"]["ok"] is True
    assert reports[0]["result"] == reports[1]["result"]


def test_find_fixed_certifies_where_a_factor_writes_above_the_precision(tmp_path, capsys):
    """The tap [1@5 -> 3@2] of g_k writes t^(2+k) from t^(5+k).  Mod t^2
    the certificate's g_1 may skip it: its write t^3 vanishes, so its read
    t^6 above the window [-6,6) is never needed, and find-fixed certifies
    there as on [-6,7)."""
    cfg = tmp_path / "high-read.yaml"
    cfg.write_text("p: 2\nd: 3\nseed:\n"
                   "  - {in: [1, 0], out: [2, 0]}\n"
                   "  - {in: [1, 5], out: [3, 2]}\n")
    for window in ("-6:6", "-6:7"):
        rpt = tmp_path / f"high-read{window}.json"
        code, _, err = run(capsys, "find-fixed", "--config", str(cfg), "--precision", "2",
                           "--l-max", "6", f"--window={window}", "--json", str(rpt))
        assert code == 0, err
        assert load_report(rpt)["result"]["certificate"]["ok"] is True


# ---------------------------------------------------------------- chain/lemma


def test_invariant_chain_table(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "chain.json"
    code, out, _ = run(
        capsys,
        "invariant-chain", "--config", str(cfg), "--window=-1:2", "--json", str(rpt),
    )
    assert code == 0
    report = load_report(rpt)
    assert [r["dim"] for r in report["result"]["rows"]] == [4, 4, 4, 4]
    assert report["result"]["chain"]["l_stable"] == 0
    assert report["result"]["t_stable"] is True
    assert "stable from ell = 0" in out


def test_invariant_chain_on_a_window_with_codim_beyond_half_the_cap(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "deep.json"
    code, _, err = run(
        capsys,
        "invariant-chain", "--config", str(cfg), "--window=-129:1", "--l-max", "0",
        "--json", str(rpt),
    )
    assert code == 0, err
    assert load_report(rpt)["result"]["chain"]["dims"] == [2]


def test_invariant_chain_deep_on_a_window_at_the_cap(tmp_path, capsys):
    """241 depths on a dim-512 window: R grows only at depth 0, so every
    later member is the depth-0 one."""
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "deep.json"
    code, _, err = run(
        capsys,
        "invariant-chain", "--config", str(cfg), "--window=-250:6", "--l-max", "240",
        "--json", str(rpt),
    )
    assert code == 0, err
    result = load_report(rpt)["result"]
    assert [r["dim"] for r in result["rows"]] == [12] * 241
    assert result["chain"]["l_stable"] == 0


@pytest.mark.parametrize(
    "command, window, dim",
    [("invariant-chain", "-150:100", 500), ("find-fixed", "-250:4", 508)],
)
def test_tap_runs_on_a_window_near_the_dimension_cap(tmp_path, capsys, command, window, dim):
    """A dim-500 chain and a dim-508 fixed point finish: each generator
    is checked on its few changed columns, not by an n x n elimination."""
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "cap.json"
    code, _, err = run(
        capsys, command, "--config", str(cfg), f"--window={window}", "--l-max", "0",
        "--json", str(rpt),
    )
    assert code == 0, err
    report = load_report(rpt)
    assert report["status"] == "ok"
    lo, hi = (int(x) for x in window.split(":"))
    assert 2 * (hi - lo) == dim
    assert report["result"]["chain"]["window"] == {"lo": lo, "hi": hi}


def test_find_fixed_with_more_fixed_conditions_than_the_cap(tmp_path, capsys):
    """Three taps on a dim-400 window give 597 fixed-space conditions:
    more rows than the cap, on spaces within it."""
    cfg = tmp_path / "three.yaml"
    cfg.write_text(
        "p: 2\nd: 2\nseed:\n"
        + "".join(f"  - {{in: [1, 0], out: [2, {k}]}}\n" for k in range(3))
    )
    rpt = tmp_path / "three.json"
    code, _, err = run(
        capsys, "find-fixed", "--config", str(cfg), "--window=-100:100", "--l-max", "0",
        "--json", str(rpt),
    )
    assert code == 0, err
    report = load_report(rpt)
    assert report["status"] == "ok"
    assert report["result"]["certificate"]["ok"] is True


def test_invariant_chain_respects_config_window_key(tmp_path, capsys):
    cfg = tmp_path / "windowed.yaml"
    cfg.write_text("p: 2\nd: 2\nwindow: [0, 3]\nseed:\n  - {in: [1, 0], out: [2, 0], coeff: 1}\n")
    rpt = tmp_path / "windowed.json"
    code, _, _ = run(capsys, "invariant-chain", "--config", str(cfg), "--json", str(rpt))
    assert code == 0
    assert load_report(rpt)["params"]["window"] == {"lo": 0, "hi": 3}


def test_config_window_string_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "windowed.yaml"
    cfg.write_text("p: 2\nd: 2\nwindow: '-1:3'\nseed:\n  - {in: [1, 0], out: [2, 0], coeff: 1}\n")
    for flags, window in (((), {"lo": -1, "hi": 3}), (("--window=0:2",), {"lo": 0, "hi": 2})):
        rpt = tmp_path / "windowed.json"
        code, _, _ = run(capsys, "invariant-chain", "--config", str(cfg), *flags, "--json", str(rpt))
        assert code == 0
        assert load_report(rpt)["params"]["window"] == window


@pytest.mark.parametrize("text,read", [("1:3", 63), ("-1:3", -63)])
def test_unquoted_config_window_is_told_to_quote(tmp_path, capsys, text, read):
    cfg = tmp_path / "windowed.yaml"
    cfg.write_text(f"p: 2\nd: 2\nwindow: {text}\nseed: []\n")
    rpt = tmp_path / "windowed.json"
    code, _, _ = run(capsys, "invariant-chain", "--config", str(cfg), "--json", str(rpt))
    assert code == 1
    report = load_report(rpt)
    assert report["reason"] == "parse-error"
    message = report["result"]["message"]
    assert f"the integer {read};" in message and 'quoted string "lo:hi"' in message


@pytest.mark.parametrize(
    "line,flags,key",
    [
        ("window: [3, 1]", ("--window=-2:4",), "window"),
        ("precision: '4'", ("--precision", "3"), "precision"),
    ],
    ids=["window", "precision"],
)
def test_bad_config_value_is_rejected_when_a_flag_overrides_it(tmp_path, capsys, line, flags, key):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"p: 2\nd: 2\n{line}\nseed:\n  - {{in: [1, 0], out: [2, 0], coeff: 1}}\n")
    rpt = tmp_path / "bad.json"
    code, _, err = run(capsys, "find-fixed", "--config", str(cfg), *flags, "--json", str(rpt))
    assert code == 1
    assert "parse-error" in err
    report = load_report(rpt)
    assert report["reason"] == "parse-error"
    assert f"config key '{key}'" in report["result"]["message"]


@pytest.mark.parametrize(
    "text,message",
    [
        ("p: 2\nd: 0\nseed: []\n", "config key 'd' must be at least 1, got 0"),
        ("p: 2\nd: 2\nseed:\n  - {in: [3, 0], out: [2, 0], coeff: 1}\n",
         "seed[0] key 'in' component 3 outside 1..2"),
        ("p: 2\nd: 2\nseed:\n  - {in: [1, 0], out: [2, 0]}\n  - {in: [1, 0], out: [0, 1]}\n",
         "seed[1] key 'out' component 0 outside 1..2"),
    ],
    ids=["d", "in", "out"],
)
def test_reader_names_the_key_of_a_bad_dimension_or_component(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    rpt = tmp_path / "bad.json"
    code, _, err = run(capsys, "validate", "--config", str(cfg), "--json", str(rpt))
    assert code == 1
    assert f"validate: parse-error: {message}" in err
    report = load_report(rpt)
    assert (report["reason"], report["result"]["message"]) == ("parse-error", message)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_lemma_check_bundled_families(tmp_path, capsys, name):
    cfg = family_config(tmp_path, capsys, name)
    rpt = tmp_path / "lemma.json"
    code, out, err = run(capsys, "lemma-check", "--config", str(cfg), "--json", str(rpt))
    assert code == 0, (name, err)
    assert "bound holds along the chain: True" in out
    report = load_report(rpt)
    probe = report["result"]["probe"]
    assert probe["ok"] is True
    for row in probe["rows"]:
        assert row["bound_ok"]
        assert Fraction(row["lower_bound"]) <= row["fixed_dim"]


def test_lemma_check_oracle_checks_the_fixed_space(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    plain, checked = tmp_path / "plain.json", tmp_path / "checked.json"
    code, out, _ = run(capsys, "lemma-check", "--config", str(cfg), "--json", str(plain))
    assert code == 0
    assert "oracle" not in load_report(plain)["result"]
    code, out, _ = run(
        capsys, "lemma-check", "--config", str(cfg), "--json", str(checked), "--oracle"
    )
    assert code == 0
    assert "oracle fixed_space check: match" in out
    report = load_report(checked)
    assert report["result"]["oracle"] == {"fixed_space_check": "match"}
    del report["result"]["oracle"]
    assert report == json.loads(plain.read_text())


def test_lemma_check_oracle_reports_mismatch_and_skip(tmp_path, capsys, monkeypatch):
    import equifix.cli
    from equifix.errors import BudgetExceeded
    from equifix.linalg import Subspace

    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "oracle.json"
    monkeypatch.setattr(equifix.cli, "brute_fixed", lambda p, dim, gens: Subspace.zero(p, dim))
    code, _, _ = run(capsys, "lemma-check", "--config", str(cfg), "--json", str(rpt), "--oracle")
    assert code == 1
    report = load_report(rpt)
    assert (report["status"], report["reason"]) == ("validation-failure", "oracle-mismatch")
    assert report["result"]["oracle"] == {"fixed_space_check": "mismatch"}

    def over_budget(p, dim, gens):
        raise BudgetExceeded("too many vectors")

    monkeypatch.setattr(equifix.cli, "brute_fixed", over_budget)
    code, _, _ = run(capsys, "lemma-check", "--config", str(cfg), "--json", str(rpt), "--oracle")
    assert code == 0
    assert load_report(rpt)["result"]["oracle"] == {"fixed_space_check": "skipped-budget"}


def test_lemma_check_without_quotient_room_exits_two(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "lemma-narrow.json"
    code, _, err = run(
        capsys,
        "lemma-check", "--config", str(cfg), "--window=-3:3", "--json", str(rpt),
    )
    assert code == 2
    assert load_report(rpt)["reason"] == "window-too-narrow"


def test_lemma_check_policy_window_hosts_deep_shifts(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "chain-3")  # precision 4 < n_max + 1
    rpt = tmp_path / "lemma-deep.json"
    code, _, err = run(
        capsys, "lemma-check", "--config", str(cfg), "--n-max", "6", "--json", str(rpt)
    )
    assert code == 0, err
    report = load_report(rpt)
    assert report["result"]["lemma"]["nested_dims"] == [3, 6, 9, 12, 15, 18]
    assert report["result"]["probe"]["ok"] is True


def test_too_many_lemma_generators_is_limit_exceeded(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "chain-3")
    rpt = tmp_path / "lemma-cap.json"
    code, _, err = run(
        capsys,
        "lemma-check", "--config", str(cfg), "--n-max", "7", "--precision", "10",
        "--json", str(rpt),
    )
    assert code == 1
    assert "limit-exceeded" in err and "cap of 6" in err
    report = load_report(rpt)
    assert report["status"] == "validation-failure"
    assert report["reason"] == "limit-exceeded"


def test_window_beyond_dimension_cap_is_limit_exceeded(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    rpt = tmp_path / "huge.json"
    code, _, err = run(
        capsys, "find-fixed", "--config", str(cfg), "--window=-300:300", "--json", str(rpt)
    )
    assert code == 1
    assert "limit-exceeded" in err and "beyond 512" in err
    report = load_report(rpt)
    assert report["status"] == "validation-failure"
    assert report["reason"] == "limit-exceeded"


@pytest.mark.parametrize(
    "command, seed, extra",
    [
        # a sampled series spans past the exponent cap
        ("validate", "{in: [1, 0], out: [2, 0], coeff: 1}", "precision: 10000000\n"),
        # a sampled vector does
        ("validate", "{in: [1, 999999], out: [2, 999999], coeff: 1}", ""),
        # so does this one, once the commutation check sweeps its two offsets, ±999999
        ("validate", "{in: [1, 999999], out: [2, 0], coeff: 1}", ""),
        # the config check refuses these before the seed is certified
        ("find-fixed", "{in: [1, 1000001], out: [2, 0], coeff: 1}", ""),
        ("validate", "{in: [1, 1000000000], out: [2, 0], coeff: 1}", ""),
        ("invariant-chain", "{in: [1, 0], out: [2, -1000001], coeff: 1}", ""),
    ],
)
def test_exponent_beyond_the_cap_is_limit_exceeded(tmp_path, capsys, command, seed, extra):
    cfg = tmp_path / "far.yaml"
    cfg.write_text(f"p: 2\nd: 2\n{extra}seed:\n  - {seed}\n")
    rpt = tmp_path / "far.json"
    code, _, err = run(capsys, command, "--config", str(cfg), "--json", str(rpt))
    assert code == 1, err
    assert "limit-exceeded" in err and "1000000" in err
    report = load_report(rpt)
    assert (report["status"], report["reason"]) == ("validation-failure", "limit-exceeded")


# ---------------------------------------------------------------- params


def test_seed_flag_overrides_config_value(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")  # rng_seed: 0 inside
    rpt = tmp_path / "seeded.json"
    code, _, _ = run(
        capsys, "validate", "--config", str(cfg), "--seed", "7", "--json", str(rpt)
    )
    assert code == 0
    assert load_report(rpt)["params"]["rng_seed"] == 7


def test_precision_flag_overrides_config_value(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")  # precision: 4 inside
    rpt = tmp_path / "prec.json"
    code, _, _ = run(
        capsys,
        "find-fixed", "--config", str(cfg), "--precision", "2", "--json", str(rpt),
    )
    assert code == 0
    report = load_report(rpt)
    assert report["params"]["precision"] == 2
    parts = report["result"]["certificate"]["witness"]
    assert parts and all(s.endswith("O(t^2)") for s in parts)


def test_nonpositive_precision_is_parse_error(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    code, _, err = run(capsys, "validate", "--config", str(cfg), "--precision", "0")
    assert code == 1
    assert "precision must be >= 1" in err


@pytest.mark.parametrize("command", ["validate", "invariant-chain"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_l_max_beyond_the_exponent_cap_is_limit_exceeded(tmp_path, capsys, command, how):
    """The chain depth is capped like a tap exponent: the reader refuses it
    before any generator or modulus table is built."""
    cfg = family_config(tmp_path, capsys, "tap")
    flags = ["--window=-3:4"] if command == "invariant-chain" else []
    if how == "flag":
        flags += ["--l-max", "1000001"]
    else:
        cfg.write_text(cfg.read_text().replace("l_max: 3", "l_max: 1000001"))
    rpt = tmp_path / "deep.json"
    code, out, err = run(capsys, command, "--config", str(cfg), *flags, "--json", str(rpt))
    assert code == 1 and out == ""
    assert "limit-exceeded: l_max 1000001 beyond 1000000" in err
    report = load_report(rpt)
    assert (report["status"], report["reason"]) == ("validation-failure", "limit-exceeded")
    assert report["result"] == {"message": "l_max 1000001 beyond 1000000"}


@pytest.mark.parametrize("command", ["validate", "find-fixed", "invariant-chain"])
def test_d_beyond_the_dimension_cap_is_limit_exceeded(tmp_path, capsys, command):
    """No window of more than 512 components fits the cap, so the reader
    refuses such a d before validate samples equivariance on it."""
    cfg = tmp_path / "wide.yaml"
    cfg.write_text("p: 2\nd: 100000\nseed: []\n")
    rpt = tmp_path / "wide.json"
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--config", str(cfg), "--json", str(rpt))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert f"{command}: limit-exceeded: d 100000 beyond 512" in err
    report = load_report(rpt)
    assert (report["status"], report["reason"]) == ("validation-failure", "limit-exceeded")
    assert report["result"] == {"message": "d 100000 beyond 512"}
    assert report["action"]["d"] == 100000
    cfg.write_text("p: 2\nd: 512\nseed: []\n")  # the reader lets the cap itself through
    _, _, err = run(capsys, command, "--config", str(cfg))
    assert "limit-exceeded: d " not in err


# ---------------------------------------------------------------- determinism


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    cfg = family_config(tmp_path, capsys, "tap")
    verbs = ["validate", "find-fixed", "invariant-chain", "lemma-check"]
    for verb in verbs:
        paths = [tmp_path / f"{verb}-{i}.json" for i in (1, 2)]
        outs = []
        for path in paths:
            code, out, _ = run(capsys, verb, "--config", str(cfg), "--json", str(path))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command", ["find-fixed", "invariant-chain"])
@pytest.mark.parametrize("window", [(3, 4), (-4, -3)])
def test_window_without_exponent_zero_is_a_soft_failure(tmp_path, capsys, how, command, window):
    cfg = family_config(tmp_path, capsys, "trivial")
    lo, hi = window
    flags = []
    if how == "flag":
        flags = [f"--window={lo}:{hi}"]
    else:
        cfg.write_text(cfg.read_text() + f"window: [{lo}, {hi}]\n")
    rpt = tmp_path / "no-zero.json"
    code, _, err = run(capsys, command, "--config", str(cfg), *flags, "--json", str(rpt))
    assert code == 2, err
    report = load_report(rpt)
    assert report["status"] == "window-too-small"
    assert report["reason"] == "window-too-narrow"
    assert "leaves out exponent 0" in report["result"]["message"]
    suggestion = report["result"]["suggestion"]
    lo, hi = suggestion.removeprefix("retry with window [").removesuffix(")").split(",")
    code, _, err = run(capsys, command, "--config", str(cfg), f"--window={lo}:{hi}")
    assert code == 0, (suggestion, err)


LMAX_CONFIG = "p: 5\nd: 3\nseed:\n  - {in: [3, 2], out: [1, -2], coeff: 4}\n"


@pytest.mark.parametrize("l_max", ["0", "1"])
@pytest.mark.parametrize("command", ["find-fixed", "invariant-chain", "lemma-check"])
def test_l_max_below_the_stabilizing_depth_is_a_soft_failure(tmp_path, capsys, command, l_max):
    cfg = tmp_path / "lmax.yaml"
    cfg.write_text(LMAX_CONFIG)
    rpt = tmp_path / "lmax.json"
    code, _, err = run(capsys, command, "--config", str(cfg), "--l-max", l_max, "--json", str(rpt))
    assert code == 2, err
    report = load_report(rpt)
    assert report["status"] == "window-too-small"
    assert report["reason"] == "l-max-too-small"
    assert "t * m_hat is not contained in m_hat" in report["result"]["message"]
    suggestion = report["result"]["suggestion"]
    assert suggestion == "retry with l_max 2"
    code, _, err = run(capsys, command, "--config", str(cfg), "--l-max",
                       suggestion.removeprefix("retry with l_max "))
    assert code == 0, err


READ_AHEAD_CONFIG = "p: 2\nd: 3\nseed: [{in: [2, 1], out: [3, 0], coeff: 1}]\n"


def test_lemma_check_below_the_read_ahead_is_l_max_too_small(tmp_path, capsys):
    """m_hat at l_max 0 is not closed under g_-1, which reads it through
    the tap at exponent 1: an l_max to raise, not an invariant violation."""
    cfg = tmp_path / "ahead.yaml"
    cfg.write_text(READ_AHEAD_CONFIG)
    rpt = tmp_path / "ahead.json"
    code, _, err = run(capsys, "lemma-check", "--config", str(cfg), "--l-max", "0",
                       "--n-max", "1", "--json", str(rpt))
    assert code == 2, err
    report = load_report(rpt)
    assert report["status"] == "window-too-small"
    assert report["reason"] == "l-max-too-small"
    assert "below the seed's read-ahead 1" in report["result"]["message"]
    assert report["result"]["suggestion"] == "retry with l_max 1"
    code, _, err = run(capsys, "lemma-check", "--config", str(cfg), "--l-max", "1", "--n-max", "1")
    assert code == 0, err


def test_closed_stdout_is_an_io_error_without_a_traceback(tmp_path):
    """A reader that stops early (`| head -1`) makes a write to stdout fail:
    exit 3 with one line on stderr, and no report."""
    cfg = tmp_path / "tap.yaml"
    cfg.write_text(EXPECTED_TAP_YAML)
    rpt = tmp_path / "tap.json"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), *filter(None, [env.get("PYTHONPATH")])])
    # 20,000 modulus lines, about 400 kB: more than any pipe buffer holds.
    proc = subprocess.Popen(
        [sys.executable, "-m", "equifix.cli", "validate", "--config", str(cfg),
         "--l-max", "20000", "--json", str(rpt)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"action tap:")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 3, err
    assert err.splitlines() == ["equifix: standard output was closed; no report written"]
    assert not rpt.exists()
