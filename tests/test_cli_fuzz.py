"""Fuzz gate for the command line: drawn configs and flags, all five
commands.  Every run exits with a documented code (0-3) and raises
nothing; with --json it writes a schema-valid report whose status
matches the exit code, and exit 3 writes no report.  A parse-error
message names the config key, never a Python exception's text.  Any
value of p, d, the optional keys and the tap fields is now and then
junk, and a tap now and then lacks a key.

Runs are in-process through console_main and without --oracle (the
oracle has its own tests; an 8-dim F_2 lattice image alone takes about
15 s).  The draws are derandomized, so the gate is the same every run.
"""

import argparse
import contextlib
import io
import json

import jsonschema
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equifix.cli import COMMANDS, EXAMPLES, REPORT_SCHEMA, build_parser, console_main

STATUS_OF_CODE = {0: "ok", 1: "validation-failure", 2: "window-too-small"}
# Python exception texts a parse-error message must never show.
EXCEPTION_TEXTS = ("unpack", "KeyError(", "TypeError(", "int() argument")
JUNK = st.sampled_from([None, -1, 0, 7, 1.5, "x", True, [], {"a": 1}, [1, 2, 3]])


# lo < hi with |lo|, |hi| <= 6; inverted windows are junk here and have their own tests
WINDOWS = st.integers(-6, 5).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 6)))


# True about once in 16 draws (the middle value: Hypothesis favours the ends)
RARELY = st.integers(0, 15).map(lambda i: i == 7)


def mostly(values):
    """values, with an occasional junk value in their place."""
    return RARELY.flatmap(lambda junk: JUNK if junk else values)


def lossy(tap):
    """tap, rarely without one of its keys."""
    return RARELY.flatmap(lambda lose: st.sampled_from(sorted(tap)).map(
        lambda key: {k: v for k, v in tap.items() if k != key}) if lose else st.just(tap))


@st.composite
def configs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 3))
    pair = st.tuples(st.integers(1, d), st.integers(-2, 2)).map(list)
    tap = st.fixed_dictionaries(
        {"in": mostly(pair), "out": mostly(pair), "coeff": mostly(st.integers(1, p - 1))}
    ).flatmap(lossy)
    data = {"p": draw(mostly(st.just(p))), "d": draw(mostly(st.just(d))),
            "seed": draw(mostly(st.lists(tap, max_size=3)))}
    optional = {
        "label": st.sampled_from(["", "fuzz"]),
        "precision": st.integers(1, 4),
        "l_max": st.integers(0, 3),
        "n_max": st.integers(1, 3),
        "rng_seed": st.integers(0, 9),
        "window": st.one_of(WINDOWS.map(list), WINDOWS.map(lambda w: f"{w[0]}:{w[1]}")),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            data[key] = draw(mostly(values))
    if draw(RARELY):
        data[draw(st.sampled_from(["lmax", "windw", "seeds"]))] = 1
    return data


@st.composite
def flags(draw, command):
    argv = []
    for flag, values in (("--precision", st.integers(1, 4)), ("--l-max", st.integers(0, 3)),
                         ("--seed", st.integers(0, 9))):
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"{flag}={draw(values)}")
    if command == "lemma-check" and draw(st.booleans()):
        argv.append(f"--n-max={draw(st.integers(1, 3))}")
    if draw(st.integers(0, 3)) == 0:
        argv.append("--window={}:{}".format(*draw(WINDOWS)))
    return argv


@st.composite
def invocations(draw, tmp):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["gen-example"]))
    if command == "gen-example":
        name = draw(st.sampled_from(sorted(EXAMPLES) + ["moebius"]))
        return command, ["gen-example", name, "--config", str(tmp / "out.yaml")]
    config = tmp / "fuzz.yaml"
    config.write_text(yaml.safe_dump(draw(configs())))
    return command, [command, "--config", str(config), *draw(flags(command))]


def test_commands_agree_across_parser_table_and_schema():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    schema_commands = set(REPORT_SCHEMA["properties"]["command"]["enum"])
    assert set(sub.choices) == set(COMMANDS) | {"gen-example"} == schema_commands


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_run_exits_with_a_documented_code_and_a_matching_report(tmp_path, data):
    command, argv = data.draw(invocations(tmp_path))
    report = tmp_path / "report.json"
    report.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = console_main(argv + ["--json", str(report)])
        except SystemExit as exc:  # argparse usage errors exit with 3
            code = exc.code
    assert code in (0, 1, 2, 3), sink.getvalue()
    if code == 3:
        assert not report.exists()
        return
    body = json.loads(report.read_text())
    jsonschema.validate(instance=body, schema=REPORT_SCHEMA)
    assert body["command"] == command
    assert body["status"] == STATUS_OF_CODE[code], body
    assert ("reason" in body) == (code != 0)
    if body.get("reason") == "parse-error":
        message = body["result"]["message"]
        assert not any(t in message for t in EXCEPTION_TEXTS), message
