"""Command line driver: validate actions, compute invariant chains,
extract certified fixed points, probe the representation bound.

Subcommands
    validate         certify an action and spot-check equivariance
    find-fixed       full pipeline: chain, fixed space, certified witness
    invariant-chain  per-depth invariant subspace table
    lemma-check      shifted-quotient growth probe
    gen-example      write a ready-to-run config for a bundled family

Configs are YAML with keys p, d, seed (a list of
{in: [comp, exp], out: [comp, exp], coeff: c} taps), and optional
label, precision, l_max, n_max, window ([lo, hi] or quoted "lo:hi") and
rng_seed.  A tap's in and out are integer pairs [component, exponent];
its coeff is an integer, 1 when the key is missing.  Any other key, a
missing p or d, an integer field holding anything but a YAML integer, a
d below 1, a tap component outside 1..d, a seed that is not a list of
such taps, a label that is not a string and a window without lo < hi
are parse errors whose message names the key; a null seed or label
means the empty default.  A tap exponent beyond ±MAX_EXPONENT (laurent),
a precision or an l_max above it is limit-exceeded, and so is a d above
MAX_DIM (linalg): a window holds d coordinates per exponent, so no
window of such an action fits the cap.  The report of a rejected config
shows only values that passed their check.  Flags override config
values.  Exit codes: 0 success, 1 validation failure, 2 soft
failure (window, precision or l_max too small), 3 I/O or usage error,
a standard output closed early among them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

import yaml

from .action import Action, ActionSpec, build_action, equivariance_check, generator_matrices
from .errors import (
    BudgetExceeded,
    ChainInvariantViolation,
    DimensionMismatch,
    EmptyFixedSpace,
    EquifixError,
    ExponentOverflow,
    InsufficientPrecision,
    LimitExceeded,
    LMaxTooSmall,
    NonCommuting,
    NotOrderP,
    WindowTooNarrow,
)
from .fixpoint import (
    default_window,
    find_fixed_point,
    lemma_chain_from_action,
    m_ell_chain,
    widen_window,
    window_b_image,
)
from .laurent import MAX_EXPONENT, LatticeWindow, format_vector, random_series, random_vector
from .linalg import MAX_DIM, FpMatrix
from .oracle import brute_fixed, brute_max_invariant
from .replab import dichotomy_probe, fixed_space
from .taps import SparsePerturbation, TapEntry, induced_matrix

DEFAULT_PRECISION = 4
DEFAULT_L_MAX = 3
DEFAULT_N_MAX = 3
EQUIVARIANCE_SAMPLES = 25

# Bundled families: name -> (label, p, d, taps as ((in_c, in_e), (out_c, out_e), coeff)).
EXAMPLES: dict[str, dict] = {
    "trivial": {"label": "trivial", "p": 2, "d": 1, "seed": []},
    "tap": {"label": "tap", "p": 2, "d": 2, "seed": [((1, 0), (2, 0), 1)]},
    "dropping-tap": {
        "label": "dropping-tap",
        "p": 2,
        "d": 2,
        "seed": [((1, 0), (2, -1), 1)],
    },
    "chain-3": {
        "label": "chain-3",
        "p": 3,
        "d": 3,
        "seed": [((1, 0), (2, 0), 1), ((2, 0), (3, 0), 1)],
    },
}

_CONFIG_KEYS = ("p", "d", "seed", "label", "precision", "l_max", "n_max", "window", "rng_seed")
_INT_KEYS = ("p", "d", "precision", "l_max", "n_max", "rng_seed")

_TAP_SCHEMA = {
    "type": "object",
    "required": ["in", "out", "coeff"],
    "properties": {
        "in": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
        "out": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
        "coeff": {"type": "integer"},
    },
    "additionalProperties": False,
}

_ORACLE_VERDICTS = ["match", "mismatch", "skipped-budget"]

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "equifix run report",
    "type": "object",
    "required": ["schema", "command", "status", "action", "params", "result"],
    "properties": {
        "schema": {"const": 1},
        "command": {
            "enum": ["validate", "find-fixed", "invariant-chain", "lemma-check", "gen-example"]
        },
        "status": {"enum": ["ok", "validation-failure", "window-too-small"]},
        "reason": {"type": "string"},
        "action": {
            "type": "object",
            "required": ["p", "d", "label", "seed"],
            "properties": {
                "p": {"type": "integer"},
                "d": {"type": "integer"},
                "label": {"type": "string"},
                "seed": {"type": "array", "items": _TAP_SCHEMA},
            },
            "additionalProperties": False,
        },
        "params": {"type": "object"},
        "result": {
            "type": "object",
            "properties": {
                "oracle": {
                    "type": "object",
                    "properties": {
                        "order_check": {"enum": ["match", "mismatch"]},
                        "m_hat_check": {"enum": _ORACLE_VERDICTS},
                        "fixed_space_check": {"enum": _ORACLE_VERDICTS},
                    },
                    "additionalProperties": False,
                },
            },
        },
    },
    "additionalProperties": False,
}


class _UsageError(Exception):
    """Anything that prevents a run from starting: I/O, YAML, bad args."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 3, not argparse's 2
        self.exit(3, f"{self.prog}: error: {message}\n")


def _window_arg(text: str):
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    if hi <= lo:
        raise argparse.ArgumentTypeError("window needs lo < hi")
    return (lo, hi)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="equifix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="action config file (YAML)")
        sp.add_argument("--precision", type=int, default=None, help="series order t^N")
        sp.add_argument("--l-max", dest="l_max", type=int, default=None, help="chain depth")
        sp.add_argument(
            "--window",
            type=_window_arg,
            default=None,
            help="explicit window LO:HI (write --window=-3:4 for a negative floor)",
        )
        sp.add_argument("--json", default=None, help="write the JSON report to this path")
        sp.add_argument(
            "--seed", type=int, default=None, help="sampling seed (overrides config rng_seed)"
        )
        sp.add_argument(
            "--oracle",
            action="store_true",
            help="cross-check with the brute-force oracle where budgets permit",
        )

    common(sub.add_parser("validate", help="certify an action config"))
    common(sub.add_parser("find-fixed", help="compute a certified nonzero fixed vector"))
    common(sub.add_parser("invariant-chain", help="per-depth invariant subspace table"))
    sp = sub.add_parser("lemma-check", help="growth probe on the shifted quotient chain")
    common(sp)
    sp.add_argument("--n-max", dest="n_max", type=int, default=None, help="shift depth")

    sp = sub.add_parser("gen-example", help="write a bundled family config")
    sp.add_argument("name", choices=sorted(EXAMPLES))
    sp.add_argument("--config", default=None, help="destination path (default: stdout)")
    sp.add_argument("--json", default=None, help="write the JSON report to this path")
    return parser


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise _UsageError(f"config {path} is not valid YAML: {exc}")
    if not isinstance(data, dict):
        raise _UsageError(f"config {path} must hold a mapping at the top level")
    return data


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _optional(data: dict, key: str, default):
    """A config value; a missing key and null both mean the default."""
    value = data.get(key)
    return default if value is None else value


def _read_tap(i: int, item, d: int) -> TapEntry:
    """seed[i] as a TapEntry: `in` and `out` integer pairs [component in
    1..d, exponent within the cap], `coeff` an integer (1 when missing);
    each key is checked once, in the tap's own order."""
    if not isinstance(item, dict):
        raise ValueError(f"seed[{i}] must be a mapping with keys in, out, coeff")
    for key, value in item.items():
        if key not in _TAP_SCHEMA["properties"]:
            raise ValueError(f"unknown key {key!r} in seed[{i}]")
        parts = value if isinstance(value, list) else [value]
        if not all(_is_int(x) for x in parts):
            raise ValueError(f"seed[{i}] key {key!r} must hold integers, got {value!r}")
        if key == "coeff":
            if isinstance(value, list):
                raise ValueError(f"seed[{i}] key 'coeff' must be an integer, got {value!r}")
        elif not isinstance(value, list) or len(value) != 2:
            raise ValueError(f"seed[{i}] key {key!r} must be a pair [component, exponent], "
                             f"got {value!r}")
        elif not 1 <= value[0] <= d:
            raise ValueError(f"seed[{i}] key {key!r} component {value[0]} outside 1..{d}")
        elif abs(value[1]) > MAX_EXPONENT:
            raise LimitExceeded(f"seed[{i}] key {key!r} exponent {value[1]} beyond "
                                f"±{MAX_EXPONENT}")
    for key in ("in", "out"):
        if key not in item:
            raise ValueError(f"seed[{i}] is missing key {key!r}")
    return TapEntry(*item["in"], *item["out"], item.get("coeff", 1))


def _read_window(value) -> tuple[int, int]:
    """The config window: a pair [lo, hi] of integers or a string "lo:hi",
    with lo < hi.  YAML 1.1 reads an unquoted lo:hi such as 1:3 as the
    base-60 integer 63, so an integer window is told to quote the form."""
    if isinstance(value, str):
        try:
            return _window_arg(value)
        except argparse.ArgumentTypeError:
            pass
    elif (isinstance(value, list) and len(value) == 2 and all(_is_int(x) for x in value)
          and value[0] < value[1]):
        return value[0], value[1]
    elif _is_int(value):
        raise ValueError(f"config key 'window' got the integer {value}; YAML reads an unquoted "
                         f"lo:hi as a base-60 integer, so write the pair [lo, hi] or the "
                         f"quoted string \"lo:hi\"")
    raise ValueError(f"config key 'window' must be a pair [lo, hi] or a string 'lo:hi' "
                     f"of integers with lo < hi, got {value!r}")


def _read_config(data: dict) -> tuple[ActionSpec, tuple[int, int] | None]:
    """The action spec and window of a config, from checked values; each
    key is checked once, in the order below, and a ValueError names it."""
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    for key in _INT_KEYS:
        value = data.get(key)
        if value is None and key in ("p", "d"):
            raise ValueError(f"config key {key!r} is required")
        if value is not None and not _is_int(value):
            raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
        if key == "d" and value < 1:
            raise ValueError(f"config key 'd' must be at least 1, got {value}")
        if key == "d" and value > MAX_DIM:
            raise LimitExceeded(f"d {value} beyond {MAX_DIM}")
    seed = _optional(data, "seed", [])
    if not isinstance(seed, list):
        raise ValueError(f"config key 'seed' must be a list of taps, got {seed!r}")
    p, d = data["p"], data["d"]
    entries = [_read_tap(i, item, d) for i, item in enumerate(seed)]
    label = _optional(data, "label", "")
    if not isinstance(label, str):
        raise ValueError(f"config key 'label' must be a string, got {label!r}")
    window = data.get("window")
    if window is not None:
        window = _read_window(window)
    return ActionSpec(p=p, d=d, seed=SparsePerturbation(p, d, entries), label=label), window


def _action_dict(spec: ActionSpec) -> dict:
    return {
        "p": spec.p,
        "d": spec.d,
        "label": spec.label,
        "seed": [
            {
                "in": [e.in_comp, e.in_exp],
                "out": [e.out_comp, e.out_exp],
                "coeff": e.coeff,
            }
            for e in spec.seed.entries
        ],
    }


def _fallback_action_dict(data: dict) -> dict:
    """The action of a rejected config: only values that pass their check."""
    p, d, label = data.get("p"), data.get("d"), data.get("label")
    return {"p": p if _is_int(p) else 0, "d": d if _is_int(d) else 0,
            "label": label if isinstance(label, str) else "", "seed": []}


def _resolve_params(args, data: dict, window: tuple[int, int] | None) -> dict:
    """The run's params: each flag given overrides its checked config value."""
    def pick(flag_value, key, default):
        return _optional(data, key, default) if flag_value is None else flag_value

    params = {
        "precision": pick(args.precision, "precision", DEFAULT_PRECISION),
        "l_max": pick(args.l_max, "l_max", DEFAULT_L_MAX),
        "rng_seed": pick(args.seed, "rng_seed", 0),
    }
    if hasattr(args, "n_max"):
        params["n_max"] = pick(args.n_max, "n_max", DEFAULT_N_MAX)
    params["window"] = window if args.window is None else args.window
    if params["precision"] < 1:
        raise ValueError("precision must be >= 1")
    if params["precision"] > MAX_EXPONENT:
        raise LimitExceeded(f"precision {params['precision']} beyond {MAX_EXPONENT}")
    if params["l_max"] < 0:
        raise ValueError("l_max must be >= 0")
    if params["l_max"] > MAX_EXPONENT:
        raise LimitExceeded(f"l_max {params['l_max']} beyond {MAX_EXPONENT}")
    if params.get("n_max", 1) < 1:
        raise ValueError("n_max must be >= 1")
    return params


def _params_for_report(params: dict, w: LatticeWindow | None) -> dict:
    out = {k: v for k, v in params.items() if k != "window"}
    out["window"] = {"lo": w.lo, "hi": w.hi} if w is not None else None
    return out


# ---------------------------------------------------------------------------
# report plumbing


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


def _emit(args, command, status, action_dict, params, result, reason=None, human=()):
    for line in human:
        print(line)
    sys.stdout.flush()  # a closed stdout fails here, before any report is written
    if getattr(args, "json", None):
        report = {
            "schema": 1,
            "command": command,
            "status": status,
            "action": action_dict,
            "params": params,
            "result": result,
        }
        if reason is not None:
            report["reason"] = reason
        _write(args.json, json.dumps(report, sort_keys=True, indent=2) + "\n")


def _classify(exc: Exception) -> tuple[int, str, str]:
    """(exit code, report status, machine-readable reason) for a failure.
    A plain ValueError is a config value no action can be built from."""
    if isinstance(exc, NotOrderP):
        return 1, "validation-failure", "not-order-p"
    if isinstance(exc, NonCommuting):
        return 1, "validation-failure", "non-commuting"
    if isinstance(exc, ChainInvariantViolation):
        return 1, "validation-failure", "invariant-violation"
    if isinstance(exc, (LimitExceeded, ExponentOverflow)):
        return 1, "validation-failure", "limit-exceeded"
    if isinstance(exc, DimensionMismatch) or not isinstance(exc, EquifixError):
        return 1, "validation-failure", "parse-error"
    if isinstance(exc, EmptyFixedSpace):
        return 2, "window-too-small", "empty-fixed-space"
    if isinstance(exc, WindowTooNarrow):
        return 2, "window-too-small", "window-too-narrow"
    if isinstance(exc, InsufficientPrecision):
        return 2, "window-too-small", "insufficient-precision"
    if isinstance(exc, LMaxTooSmall):
        return 2, "window-too-small", "l-max-too-small"
    raise exc


def _policy_suggestion(action: Action, params: dict, tried: dict | None) -> str | None:
    """Retry window for a soft failure that names none: the window tried
    joined with the policy window, or the tried window widened when the
    join adds nothing.  No window tried means find_fixed_point chose its
    own; start from the widened policy window, the larger of the two it
    chooses between."""
    try:
        policy = default_window(action, params["precision"], params["l_max"],
                                n_max=params.get("n_max", 0))
        if tried is None:
            w = widen_window(policy)
        else:
            w = LatticeWindow(tried["lo"], tried["hi"], action.d, action.p)
        retry = LatticeWindow(min(w.lo, policy.lo), max(w.hi, policy.hi), action.d, action.p)
        if retry == w:
            retry = widen_window(w)
    except LimitExceeded:  # no window under the dimension cap to suggest
        return None
    return f"retry with window [{retry.lo},{retry.hi})"


# How many larger l_max values an l-max-too-small failure tries, each a
# full run of the command, before it gives up on a suggestion.
L_MAX_TRIES = 8


def _l_max_suggestion(command: str, action: Action, params: dict) -> str | None:
    """The smallest larger l_max (at most L_MAX_TRIES above) on which the
    command runs, with its window resolved as _run resolves it."""
    compute, policy_window = COMMANDS[command]
    for l_max in range(params["l_max"] + 1, params["l_max"] + 1 + L_MAX_TRIES):
        trial = dict(params, l_max=l_max)
        try:
            *_, reason = compute(action, trial, _window(action, trial, policy_window), False)
        except LMaxTooSmall:
            continue
        except EquifixError:  # e.g. an explicit window too narrow for the depth
            return None
        return f"retry with l_max {l_max}" if reason is None else None
    return None


def _fail(args, command, action_dict, params_dict, exc, action=None, params=None) -> int:
    """Emit the failure report.  Given the action and the run's params, a
    soft failure without a suggestion of its own gets the policy's: a
    larger l_max for l-max-too-small, else a window."""
    code, status, reason = _classify(exc)
    result = {"message": str(exc)}
    suggestion = getattr(exc, "suggestion", None)
    if not suggestion and code == 2 and action is not None:
        if isinstance(exc, LMaxTooSmall):
            suggestion = _l_max_suggestion(command, action, params)
        else:
            suggestion = _policy_suggestion(action, params, params_dict["window"])
    if suggestion:
        result["suggestion"] = suggestion
    witness_power = getattr(exc, "witness_power", None)
    if witness_power is not None:
        result["witness_power"] = witness_power
    offsets = getattr(exc, "offsets", None)
    if offsets is not None:
        result["offsets"] = list(offsets)
    print(f"{command}: {reason}: {exc}", file=sys.stderr)
    _emit(args, command, status, action_dict, params_dict, result, reason=reason)
    return code


# ---------------------------------------------------------------------------
# commands: each compute takes (action, params, window, oracle) and returns
# (result, human lines, oracle (key, verdict, line) or None, failure reason
# or None)


def _validate(action: Action, params: dict, _window, oracle: bool):
    precision, l_max = params["precision"], params["l_max"]
    rng = random.Random(params["rng_seed"])
    x_prec = precision + action.drop + 1
    u_prec = precision + action.drop + max(0, action.max_in_exp) + 1
    samples = [
        (
            random_series(rng, action.p, prec=x_prec, min_val=-2),
            random_vector(rng, action.p, action.d, prec=u_prec, min_val=-2),
        )
        for _ in range(EQUIVARIANCE_SAMPLES)
    ]
    eq = equivariance_check(action, samples, precision=precision)
    trivial = action.seed.is_zero
    ks = action.modulus.visible(-l_max, precision)
    table = [[k, action.modulus.mu(k)] for k in ks]
    result = {
        "trivial": trivial,
        "certificates": action.certificates(),
        "modulus": table,
        "equivariance": {"samples": len(samples), "ok": eq.ok},
    }
    human = [f"action {action.spec.label or '(unlabeled)'}: order-p and commutation certified"]
    if trivial:
        human.append("trivial action (empty seed): every vector is fixed")
    else:
        human.append(
            f"modulus mu(k) = k + ({action.modulus.min_out}) for k in [{-l_max}, {ks.stop}):"
        )
        human.extend(f"  mu({k}) = {mu}" for k, mu in table)
    human.append(f"equivariance holds on {len(samples)} samples: {eq.ok}")
    check = None
    if oracle and not trivial:
        w = default_window(action, precision, l_max)
        g = induced_matrix(action.seed, w)
        match = g**action.p == FpMatrix.identity(action.p, w.dim)
        check = ("order_check", "match" if match else "mismatch",
                 f"oracle window-matrix order check: {'match' if match else 'MISMATCH'}")
    return result, human, check, None if eq.ok else "equivariance-failure"


def _verdict(key: str, brute, fast) -> tuple[str, str, str]:
    """Oracle triple for brute() against the fast answer: 'match',
    'mismatch' or 'skipped-budget'."""
    try:
        verdict = "match" if brute() == fast else "mismatch"
    except BudgetExceeded:
        verdict = "skipped-budget"
    return key, verdict, f"oracle {key.replace('_check', ' check')}: {verdict}"


def _m_hat_verdict(action: Action, chain) -> tuple[str, str, str]:
    """Oracle triple for the deepest member, enumerated in the lattice image."""
    w = chain.window
    mats = [m for _, m in generator_matrices(action, chain.l_max, w)]
    return _verdict(
        "m_hat_check",
        lambda: brute_max_invariant(action.p, w.dim, mats, ambient=window_b_image(w)),
        chain.m_hat,
    )


def _find_fixed(action: Action, params: dict, window, oracle: bool):
    chain, cert = find_fixed_point(action, params["precision"], params["l_max"], window)
    b_dim = window_b_image(chain.window).dim
    result = {
        "chain": chain.to_dict(),
        "certificate": cert.to_dict(),
        "m_hat_smaller_than_lattice": chain.m_hat.dim < b_dim,
    }
    human = [
        f"witness {format_vector(cert.witness)}",
        "certified against {} generator exponents, residuals all zero: {}".format(
            len(cert.checked_generators), all(z for _, z in cert.checked_generators)
        ),
        "window [{}, {}): m_hat dim {} of lattice-image dim {}{}".format(
            chain.window.lo,
            chain.window.hi,
            chain.m_hat.dim,
            b_dim,
            " (strictly smaller)" if chain.m_hat.dim < b_dim else "",
        ),
        f"witness in m_hat: {cert.in_m_hat}; outside t*m_hat: {cert.outside_t_m_hat}",
    ]
    check = _m_hat_verdict(action, chain) if oracle else None
    return result, human, check, None if cert.ok else "certificate-failed"


def _invariant_chain(action: Action, params: dict, w: LatticeWindow, oracle: bool):
    chain = m_ell_chain(action, params["l_max"], w)
    rows = [
        {"ell": i, "dim": s.dim, "meets_shell": True, "nested": True}
        for i, s in enumerate(chain.subspaces)
    ]
    result = {"chain": chain.to_dict(), "rows": rows, "t_stable": True}
    human = [f"window [{w.lo}, {w.hi}), lattice-image dim {window_b_image(w).dim}"]
    human += [
        f"  ell {r['ell']}: dim {r['dim']}, meets shell: yes, nested: yes" for r in rows
    ]
    human.append(f"stable from ell = {chain.l_stable}; t*m_hat inside m_hat: yes")
    return result, human, _m_hat_verdict(action, chain) if oracle else None, None


def _lemma_check(action: Action, params: dict, w: LatticeWindow, oracle: bool):
    chain = m_ell_chain(action, params["l_max"], w)
    lemma = lemma_chain_from_action(action, chain, params["n_max"])
    probe = dichotomy_probe(lemma.rep, lemma.nested)
    result = {"lemma": lemma.to_dict(), "probe": probe.to_dict()}
    human = [
        "quotient dim {} on window [{}, {}); {} acting generator(s)".format(
            lemma.space.dim, lemma.window.lo, lemma.window.hi, lemma.rep.r
        )
    ]
    human += [
        "  n={}: dim {}, fixed {}, quotient-fixed {}, bound {}, ok: {}".format(
            r.n, r.total_dim, r.fixed_dim, r.quotient_fixed_dim, r.lower_bound, r.ok
        )
        for r in probe.rows
    ]
    human.append(f"bound holds along the chain: {probe.ok}")
    check = None
    if oracle:
        rep = lemma.rep
        check = _verdict("fixed_space_check", lambda: brute_fixed(rep.p, rep.dim, rep.generators),
                         fixed_space(rep))
    return result, human, check, None if probe.ok else "bound-violated"


# name -> (compute, policy_window).  policy_window True: the explicit window,
# else the policy's; False: the explicit window or None (find_fixed_point
# sizes its own); None: the command takes no window.
COMMANDS = {
    "validate": (_validate, None),
    "find-fixed": (_find_fixed, False),
    "invariant-chain": (_invariant_chain, True),
    "lemma-check": (_lemma_check, True),
}


def _window(action: Action, params: dict, policy_window: bool | None) -> LatticeWindow | None:
    """The window a command runs on (see COMMANDS)."""
    if policy_window is not None and params["window"] is not None:
        return LatticeWindow(*params["window"], action.d, action.p)
    if policy_window:
        return default_window(action, params["precision"], params["l_max"],
                              n_max=params.get("n_max", 0))
    return None


def _run(args, command: str) -> int:
    """The route of every COMMANDS entry: load and check the config,
    build the action, resolve the window, compute, then record the oracle
    verdict and emit `ok` or the command's validation failure."""
    compute, policy_window = COMMANDS[command]
    data = _load_config(args.config)
    try:
        spec, window = _read_config(data)
        params = _resolve_params(args, data, window)
    except ValueError as exc:
        return _fail(args, command, _fallback_action_dict(data), {"window": None}, exc)
    action_dict = _action_dict(spec)
    report_params = _params_for_report(params, None)
    action = None
    try:
        action = build_action(spec)
        window = _window(action, params, policy_window)
        report_params = _params_for_report(params, window)
        result, human, check, reason = compute(action, params, window, args.oracle)
    except EquifixError as exc:
        return _fail(args, command, action_dict, report_params, exc, action, params)
    if check is not None:
        key, verdict, line = check
        result["oracle"] = {key: verdict}
        human.append(line)
        if verdict == "mismatch":
            reason = "oracle-mismatch"
    status = "ok" if reason is None else "validation-failure"
    _emit(args, command, status, action_dict, report_params, result, reason=reason, human=human)
    return 0 if reason is None else 1


def _example_yaml(name: str) -> str:
    fam = EXAMPLES[name]
    lines = [
        f"# bundled action family: {name}",
        f"label: {fam['label']}",
        f"p: {fam['p']}",
        f"d: {fam['d']}",
    ]
    if fam["seed"]:
        lines.append("seed:")
        for (in_c, in_e), (out_c, out_e), coeff in fam["seed"]:
            lines.append(
                f"  - {{in: [{in_c}, {in_e}], out: [{out_c}, {out_e}], coeff: {coeff}}}"
            )
    else:
        lines.append("seed: []")
    lines += [
        f"precision: {DEFAULT_PRECISION}",
        f"l_max: {DEFAULT_L_MAX}",
        f"n_max: {DEFAULT_N_MAX}",
        "rng_seed: 0",
        "",
    ]
    return "\n".join(lines)


def cmd_gen_example(args) -> int:
    text = _example_yaml(args.name)
    human = []
    if args.config:
        _write(args.config, text)
        human.append(f"wrote {args.config}")
    else:
        sys.stdout.write(text)
    _emit(
        args,
        "gen-example",
        "ok",
        _action_dict(_read_config(yaml.safe_load(text))[0]),
        {"name": args.name, "window": None},
        {"config": text},
        human=human,
    )
    return 0


def console_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-example":
            return cmd_gen_example(args)
        return _run(args, args.command)
    except _UsageError as exc:
        print(f"equifix: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`).  Point stdout at
        # devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("equifix: standard output was closed; no report written",
              file=sys.stderr)
        return 3


def main() -> None:  # convenience for `python -m equifix.cli`
    sys.exit(console_main())


if __name__ == "__main__":
    main()
