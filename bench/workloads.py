"""The three workloads as ordered lists of instances.

An instance is one closed-loop call: the benchmark runs it, waits for it,
and only then starts the next.  Each instance returns its canonical
output (compared against the goldens) and the problems it found itself
(a failed certificate, an oracle mismatch, a violated bound, an
unexpected exit code).  Builders do everything a caller would do before
the first call: generate the inputs and certify every action with
build_action; that work is the workload's set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs


@dataclass(frozen=True)
class Instance:
    name: str
    key: str  # digest of the inputs; goldens are keyed by it
    run: Callable[[], tuple[dict, list[str]]]


def output_digest(output: dict) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def inputs_digest(instances) -> str:
    return hashlib.sha256(",".join(i.key for i in instances).encode()).hexdigest()[:16]


# --------------------------------------------------------------------- solve


def _solve_instance(E, name, desc, precision, l_max):
    action = inputs.make_action(E, desc)

    def run():
        chain, cert = E.find_fixed_point(action, precision, l_max)
        out = {"chain": chain.to_dict(), "certificate": cert.to_dict()}
        return out, [] if cert.ok else ["certificate not ok"]

    key = inputs.digest({"solve": desc, "precision": precision, "l_max": l_max})
    return Instance(name, key, run)


def build_solve(E, seed: int) -> list[Instance]:
    out = []
    for prec, l_max in inputs.LADDER:
        for fam, (p, d, taps) in inputs.FAMILIES.items():
            desc = inputs.action_desc(p, d, taps)
            out.append(_solve_instance(E, f"{fam}@({prec},{l_max})", desc, prec, l_max))
    rng = random.Random(f"solve:{seed}")
    for i, (p, d, prec, l_max, drop, shape) in enumerate(inputs.SOLVE_SLOTS):
        desc = inputs.draw_action(E, rng, p, d, drop, shape)
        name = f"rand{i:02d}-p{p}d{d}@({prec},{l_max})-{shape}"
        out.append(_solve_instance(E, name, desc, prec, l_max))
    return out


# --------------------------------------------------------------------- probe


def _lemma_instance(E, fam, desc, n_max):
    action = inputs.make_action(E, desc)

    def run():
        w = E.default_window(action, n_max + 2, 0, n_max=n_max)
        chain = E.m_ell_chain(action, 0, w)
        lemma = E.lemma_chain_from_action(action, chain, n_max)
        probe = E.dichotomy_probe(lemma.rep, lemma.nested)
        out = {"chain": chain.to_dict(), "lemma": lemma.to_dict(), "probe": probe.to_dict()}
        return out, [] if probe.ok else ["p^r bound violated along the lemma chain"]

    key = inputs.digest({"lemma": desc, "n_max": n_max})
    return Instance(f"lemma-{fam}-n{n_max}", key, run)


def _rep_instance(E, name, p, mats):
    gens = [E.FpMatrix(p, m) for m in mats]
    dim = mats[0].shape[0]

    def run():
        rep = E.FiniteRep(p, dim, gens)
        bound = E.fixed_bound_check(rep)
        filts = [E.kernel_filtration(g, p) for g in gens]
        problems = [] if bound.ok else ["p^r bound violated"]
        problems += [f"generator {i}: filtration breaks a law" for i, f in enumerate(filts)
                     if not (f.exhausts and f.concave and f.bound_ok)]
        return {"bound": bound.to_dict(), "filtrations": [f.to_dict() for f in filts]}, problems

    return Instance(name, inputs.digest({"rep": inputs.tuple_desc(p, mats)}), run)


def _fixed_oracle_instance(E, name, p, mats):
    gens = [E.FpMatrix(p, m) for m in mats]
    dim = mats[0].shape[0]

    def run():
        fast = E.fixed_space(E.FiniteRep(p, dim, gens))
        brute = E.brute_fixed(p, dim, gens)
        ok = brute == fast
        out = {"fixed": fast.row_strings(), "oracle": "match" if ok else "mismatch"}
        return out, [] if ok else ["fixed_space disagrees with brute_fixed"]

    return Instance(name, inputs.digest({"brute_fixed": inputs.tuple_desc(p, mats)}), run)


def _maxinv_oracle_instance(E, name, desc, ell):
    action = inputs.make_action(E, desc)
    w = E.LatticeWindow(*inputs.MAXINV_WINDOW, desc["d"], desc["p"])
    mats = [m for _, m in E.generator_matrices(action, ell, w)]

    def run():
        b_img = E.window_b_image(w)
        fast = E.max_invariant_subspace(mats, w, b_img)
        brute = E.brute_max_invariant(w.p, w.dim, mats, ambient=b_img)
        ok = brute == fast
        out = {"max_invariant": fast.row_strings(), "oracle": "match" if ok else "mismatch"}
        return out, [] if ok else ["max_invariant_subspace disagrees with brute_max_invariant"]

    key = inputs.digest({"brute_max_invariant": desc, "ell": ell, "window": inputs.MAXINV_WINDOW})
    return Instance(name, key, run)


def _draw_maxinv_action(E, rng, ell):
    """A seeded F_2((t))^2 action whose generators fit the oracle window."""
    w = E.LatticeWindow(*inputs.MAXINV_WINDOW, 2, 2)
    while True:
        desc = inputs.draw_action(E, rng, 2, 2, 0, None)
        try:
            E.generator_matrices(inputs.make_action(E, desc), ell, w)
        except E.WindowTooNarrow:
            continue
        return desc


def build_probe(E, seed: int) -> list[Instance]:
    out = []
    for n_max in inputs.LEMMA_N_MAX:
        for fam, (p, d, taps) in inputs.FAMILIES.items():
            out.append(_lemma_instance(E, fam, inputs.action_desc(p, d, taps), n_max))
    rng = random.Random(f"probe:{seed}")
    for i, (p, dim, r) in enumerate(inputs.REP_SLOTS):
        mats = inputs.draw_commuting_tuple(rng, p, dim, r)
        out.append(_rep_instance(E, f"rep{i:02d}-p{p}n{dim}r{r}", p, mats))
    for i, (p, dim, r) in enumerate(inputs.FIXED_ORACLE_SLOTS):
        mats = inputs.draw_commuting_tuple(rng, p, dim, r)
        out.append(_fixed_oracle_instance(E, f"brute-fixed{i:02d}-p{p}n{dim}r{r}", p, mats))
    for i, (fam, ell) in enumerate(inputs.MAXINV_SLOTS):
        if fam is None:
            desc, label = _draw_maxinv_action(E, rng, ell), f"rand{i:02d}"
        else:
            desc, label = inputs.action_desc(*inputs.FAMILIES[fam]), fam
        out.append(_maxinv_oracle_instance(E, f"brute-maxinv-{label}-l{ell}", desc, ell))
    return out


# ----------------------------------------------------------------------- cli

CLI_FAMILIES = ("trivial", "tap", "dropping-tap", "chain-3")
CLI_COMMANDS = ("validate", "find-fixed", "invariant-chain", "lemma-check")
SWAP_YAML = ("p: 2\nd: 2\nseed:\n  - {in: [1, 0], out: [2, 0], coeff: 1}\n"
             "  - {in: [2, 0], out: [1, 0], coeff: 1}\n")
CROSS_YAML = ("p: 2\nd: 3\nseed:\n  - {in: [1, 0], out: [2, 1], coeff: 1}\n"
              "  - {in: [2, 0], out: [3, 0], coeff: 1}\n")
# Documented rejections: (name, argv with {dir} for the config directory,
# exit code, reason in the report, suggestion in the report).
CLI_REJECTIONS = (
    ("swap", ("validate", "--config", "{dir}/swap.yaml"), 1, "not-order-p", None),
    ("swap", ("find-fixed", "--config", "{dir}/swap.yaml"), 1, "not-order-p", None),
    ("cross", ("validate", "--config", "{dir}/cross.yaml"), 1, "non-commuting", None),
    ("cross", ("find-fixed", "--config", "{dir}/cross.yaml"), 1, "non-commuting", None),
    ("tap-narrow", ("find-fixed", "--config", "{dir}/tap.yaml", "--window", "0:2"), 2,
     "window-too-narrow", "retry with window [-2,4)"),
    ("unreadable", ("validate", "--config", "{dir}/missing.yaml"), 3, None, None),
    ("unreadable", ("find-fixed", "--config", "{dir}/missing.yaml"), 3, None, None),
)


@dataclass(frozen=True)
class CliCall:
    """One CLI invocation and what a correct run of it looks like."""

    argv: tuple[str, ...]
    report: Path
    code: int = 0
    reason: str | None = None
    suggestion: str | None = None

    def check(self, code: int) -> tuple[dict, list[str]]:
        """Read the report left by a finished run and compare it with the
        expected outcome; the output holds the exit code and report bytes."""
        data = self.report.read_bytes() if self.report.exists() else None
        out = {"code": code, "report": hashlib.sha256(data).hexdigest() if data else None}
        problems = [] if code == self.code else [f"exit code {code}, expected {self.code}"]
        if self.code == 3:
            if data is not None:
                problems.append("usage error wrote a report")
            return out, problems
        if data is None:
            return out, problems + ["no report written"]
        report = json.loads(data)
        if report.get("reason") != self.reason:
            problems.append(f"reason {report.get('reason')!r}, expected {self.reason!r}")
        if (report.get("status") == "ok") != (self.code == 0):
            problems.append(f"status {report.get('status')!r} with exit code {code}")
        if self.suggestion and report["result"].get("suggestion") != self.suggestion:
            problems.append(f"suggestion {report['result'].get('suggestion')!r}")
        return out, problems

    def run_subprocess(self, env: dict) -> tuple[dict, list[str]]:
        self.report.unlink(missing_ok=True)
        done = subprocess.run([sys.executable, "-m", "equifix.cli", *self.argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
        return self.check(done.returncode)

    def run_in_process(self, console_main) -> tuple[dict, list[str]]:
        self.report.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = console_main(list(self.argv))
            except SystemExit as exc:  # argparse usage errors exit with 3
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        return self.check(code)


def cli_calls(seed: int, out_dir: Path) -> list[tuple[str, str, CliCall]]:
    """(name, key, call) for every invocation of one pass, in order."""
    rng = random.Random(f"cli:{seed}")
    cfg_dir, rpt_dir = out_dir / "cli", out_dir / "cli" / "reports"
    calls = []

    def add(name, template, **expect):
        key = inputs.digest({"cli": list(template)})
        report = rpt_dir / f"{len(calls):02d}.json"
        real = tuple(a.format(dir=cfg_dir) for a in template) + ("--json", str(report))
        calls.append((name, key, CliCall(real, report, **expect)))

    for fam in CLI_FAMILIES:
        for cmd in CLI_COMMANDS:
            extra = ("--seed", str(rng.randrange(1 << 31))) if cmd == "validate" else ()
            add(f"{cmd}-{fam}", (cmd, "--config", f"{{dir}}/{fam}.yaml") + extra)
        add(f"gen-example-{fam}", ("gen-example", fam, "--config", f"{{dir}}/gen-{fam}.yaml"))
    for label, template, code, reason, suggestion in CLI_REJECTIONS:
        add(f"{template[0]}-{label}", template, code=code, reason=reason, suggestion=suggestion)
    return calls


def write_cli_configs(E, cli, out_dir: Path) -> None:
    """Config files of the cli workload, each certified with build_action:
    the bundled families through `gen-example`, the two rejected seeds as
    text (their certification failure is the documented outcome)."""
    import yaml

    cfg_dir = out_dir / "cli"
    (cfg_dir / "reports").mkdir(parents=True, exist_ok=True)
    (cfg_dir / "missing.yaml").unlink(missing_ok=True)
    for fam in CLI_FAMILIES:
        path = cfg_dir / f"{fam}.yaml"
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.console_main(["gen-example", fam, "--config", str(path)]) != 0:
                raise RuntimeError(f"gen-example {fam} failed")
    (cfg_dir / "swap.yaml").write_text(SWAP_YAML)
    (cfg_dir / "cross.yaml").write_text(CROSS_YAML)
    for name, rejected in [(f, None) for f in CLI_FAMILIES] + [
            ("swap", E.NotOrderP), ("cross", E.NonCommuting)]:
        data = yaml.safe_load((cfg_dir / f"{name}.yaml").read_text())
        taps = [(*t["in"], *t["out"], t["coeff"]) for t in data["seed"] or ()]
        desc = inputs.action_desc(data["p"], data["d"], taps)
        try:
            inputs.make_action(E, desc)
        except (E.NotOrderP, E.NonCommuting) as exc:
            if rejected is None or not isinstance(exc, rejected):
                raise
        else:
            if rejected is not None:
                raise RuntimeError(f"{name} seed was certified; its rejection is expected")


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def build_cli(E, seed: int, out_dir: Path, src: Path, cli) -> list[Instance]:
    write_cli_configs(E, cli, out_dir)
    env = cli_env(src)
    return [Instance(name, key, lambda c=call: c.run_subprocess(env))
            for name, key, call in cli_calls(seed, out_dir)]
