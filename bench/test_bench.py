"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

if not run.use_checkout_src():
    pytest.skip("needs the checkout's src/", allow_module_level=True)

import equifix as E  # noqa: E402
from equifix import cli, fixpoint, linalg, oracle, replab  # noqa: E402


def test_tracer_restores_every_original():
    rref, intersect = linalg.rref, linalg.Subspace.__dict__["intersect"]
    from_rows = linalg.Subspace.__dict__["from_rows"]
    chain, enum = cli.m_ell_chain, oracle.enumerate_subspaces
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fixpoint.rref.__wrapped__ is rref
        assert replab.rref.__wrapped__ is rref and E.rref.__wrapped__ is rref
        assert cli.m_ell_chain.__wrapped__ is chain
        assert linalg.Subspace.__dict__["intersect"] is not intersect
    finally:
        tracer.restore()
    assert linalg.rref is rref and fixpoint.rref is rref and replab.rref is rref
    assert E.rref is rref and cli.m_ell_chain is chain and oracle.enumerate_subspaces is enum
    assert linalg.Subspace.__dict__["intersect"] is intersect
    assert linalg.Subspace.__dict__["from_rows"] is from_rows


def test_input_digest_follows_the_seed(tmp_path):
    for build in (workloads.build_solve, workloads.build_probe):
        a, b, c = (workloads.inputs_digest(build(E, s)) for s in (3, 3, 4))
        assert a == b != c
    digests = [workloads.inputs_digest(workloads.build_cli(E, s, tmp_path, run.SRC, cli))
               for s in (3, 3, 4)]
    assert digests[0] == digests[1] != digests[2]


def _small_probe():
    instances = workloads.build_probe(E, 0)
    return [instances[0]] + [i for i in instances if i.name.startswith("brute-fixed")][:2]


def test_spans_nest_and_self_times_sum_to_traced_wall():
    instances = _small_probe()
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_pass(instances, run.Checker({}, strict=False), tracer)
    finally:
        tracer.restore()
    roots = [s for s in tracer.spans if s[4] < 0]
    assert [s[1] for s in roots] == ["pass"]
    for layer, name, start, end, parent, _ in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][2] <= start and end <= tracer.spans[parent][3]
    wall = roots[0][3] - roots[0][2]
    assert sum(tracer.self_times()) == pytest.approx(wall, rel=1e-9)
    metrics = spans.layer_metrics(tracer)
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    harness = sum(t for s, t in zip(tracer.spans, tracer.self_times()) if s[0] == "bench")
    assert layers + harness == pytest.approx(wall, rel=1e-9)
    assert metrics["linalg.rref.calls"] > 0 and metrics["oracle.vectors_enumerated"] > 0


def test_corrupted_golden_is_a_failure():
    inst = _small_probe()[0]
    output, problems = inst.run()
    good = {inst.key: {"name": inst.name, "output": workloads.output_digest(output)}}
    bad = {inst.key: {"name": inst.name, "output": "0" * 64}}
    for goldens, failures in ((good, 0), (bad, 1)):
        checker = run.Checker(goldens, strict=True)
        checker.record(inst, output, problems)
        assert len(checker.failures) == failures


def test_changed_inputs_at_a_recorded_seed_are_failures():
    instances = _small_probe()
    outputs, results = {}, []
    for inst in instances:
        results.append(inst.run())
        outputs[inst.key] = {"name": inst.name,
                             "output": workloads.output_digest(results[-1][0])}
    goldens = {"seeds": {"0": workloads.inputs_digest(instances)}, "outputs": outputs}
    changed = [dataclasses.replace(instances[0], key="f" * 16)] + instances[1:]
    for seed, expected in ((0, ["inputs", changed[0].name]), (7, [])):
        checker = run.make_checker(goldens, seed, changed)
        for inst, (output, problems) in zip(changed, results):
            checker.record(inst, output, problems)
        assert [name for name, _ in checker.failures] == expected
    unchanged = run.make_checker(goldens, 0, instances)
    for inst, (output, problems) in zip(instances, results):
        unchanged.record(inst, output, problems)
    assert unchanged.failures == [] and unchanged.strict


def test_unexpected_cli_exit_code_is_a_failure(tmp_path):
    name, _, call = workloads.cli_calls(0, tmp_path)[0]
    assert name == "validate-trivial"
    assert call.check(1)[1] == ["exit code 1, expected 0", "no report written"]


def test_tail_level_leaves_ten_samples_above():
    for n in (11, 27, 29, 31, 200):
        q = run.tail_level(n)
        assert n * (100 - q) / 100 >= run.TAIL_SAMPLES
        assert n * (100 - q - 1) / 100 < run.TAIL_SAMPLES


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
