"""In-memory span recorder for the traced run.

`Tracer.install` wraps the public functions of each equifix module (the
table below) in place: the module attribute, every other equifix module
that bound the same function at import time (`fixpoint.rref`,
`cli.m_ell_chain`, ...), and class attributes for methods.  Each call
records a span (layer, name, start, end, parent, attrs).  `restore` puts
every original back.  Spans stay in memory until `dump`.

laurent has no spans: its entry points run once per coefficient, so its
time is counted in its caller's self time.  errors has no behaviour.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# layer -> (module-level functions, {class: methods}).  Besides the names
# the per-layer metrics count, every public entry point that other layers
# call is wrapped, so that each layer's self time holds only its own work.
WRAPPED = {
    "linalg": (
        ("rref", "kernel", "map_image", "map_preimage", "inverse", "quotient"),
        {
            "FpMatrix": ("__matmul__", "__pow__", "__add__", "__sub__", "apply", "scale",
                         "transpose"),
            "Subspace": ("from_rows", "contains", "contains_vector", "coordinates", "sum",
                         "constraints", "intersect"),
            "QuotientSpace": ("__init__", "project", "lift", "induced"),
        },
    ),
    "taps": (
        ("induced_matrix", "compose", "inverse_perturbation", "commutation_range_check",
         "power_check_nilpotent"),
        {"SeedAutomorphism": ("__init__", "apply")},
    ),
    "action": (
        ("build_action", "generator_matrices", "apply_phi", "phi", "equivariance_check",
         "fixed_condition_rows"),
        {},
    ),
    "fixpoint": (
        ("m_ell_chain", "max_invariant_subspace", "extract_witness", "lemma_chain_from_action",
         "find_fixed_point", "fixed_vectors", "window_b_image", "monomial_transfer",
         "shift_matrix"),
        {},
    ),
    "replab": (
        ("fixed_space", "kernel_filtration", "fixed_bound_check", "restrict_rep", "quotient_rep",
         "dichotomy_probe"),
        {"FiniteRep": ("__init__",)},
    ),
    "oracle": (("brute_fixed", "brute_max_invariant"), {}),
    "cli": (("console_main",), {}),
}
LAYERS = tuple(WRAPPED)
PACKAGE = "equifix"


def gaussian_binomial_total(p: int, n: int) -> int:
    """Number of subspaces of F_p^n (all dimensions)."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def _rref_attrs(args, kwargs, result):
    rows, cols = args[0].shape
    return {"p": args[0].p, "ops": result.rank * rows * cols, "side": max(rows, cols)}


def _window_attrs(args, kwargs, result):
    return {"dim": args[2].dim}


def _brute_fixed_attrs(args, kwargs, result):
    return {"vectors": args[0] ** args[1]}


def _brute_max_invariant_attrs(args, kwargs, result):
    p, dim = args[0], args[1]
    ambient = kwargs.get("ambient", args[3] if len(args) > 3 else None)
    return {"useful": gaussian_binomial_total(p, dim if ambient is None else ambient.dim)}


ATTRS = {
    "linalg.rref": _rref_attrs,
    "fixpoint.m_ell_chain": _window_attrs,
    "oracle.brute_fixed": _brute_fixed_attrs,
    "oracle.brute_max_invariant": _brute_max_invariant_attrs,
}


class Tracer:
    """Span recorder; spans are [layer, name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def open(self, layer: str, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        observe = ATTRS.get(full)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if observe is not None:
                spans[idx][5] = observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_generator(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------- install/restore

    def install(self) -> None:
        """Wrap every entry point in WRAPPED across the loaded package
        (a layer whose module was never imported has nothing to wrap)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, (funcs, classes) in WRAPPED.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            if home is None:
                continue
            for name in funcs:
                self._replace_everywhere(mods, getattr(home, name),
                                         self._wrap(layer, name, getattr(home, name)))
            for cls_name, methods in classes.items():
                cls = getattr(home, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, f"{cls_name}.{meth}", raw.__func__))
                    else:
                        new = self._wrap(layer, f"{cls_name}.{meth}", raw)
                    self._set(cls, meth, new)
        oracle = sys.modules[f"{PACKAGE}.oracle"]
        fn = oracle.enumerate_subspaces
        self._replace_everywhere(mods, fn, self._wrap_generator("oracle.subspaces_enumerated", fn))

    def _set(self, obj, attr, new) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def _replace_everywhere(self, mods, original, new) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, new)

    def restore(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for layer, name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([layer, name, start, end, parent, attrs]) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics over every span of the tracer (set-up and passes)."""
    own = tr.self_times()
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for span, s_own in zip(tr.spans, own):
        layer, name = span[0], span[1]
        if layer in LAYERS:
            m[f"{layer}.self_s"] += s_own
        full = f"{layer}.{name}"
        calls[full] = calls.get(full, 0) + 1
        total[full] = total.get(full, 0.0) + span[3] - span[2]

    def observed(layer, name):  # finished calls (a call that raised has no attrs)
        return [s for s in tr.spans if s[0] == layer and s[1] == name and s[5] is not None]

    rrefs = observed("linalg", "rref")
    m["linalg.rref.calls"] = calls.get("linalg.rref", 0)
    m["linalg.rref.ops"] = sum(s[5]["ops"] for s in rrefs)
    m["linalg.rref.s.p2"] = sum(s[3] - s[2] for s in rrefs if s[5]["p"] == 2)
    m["linalg.rref.s.podd"] = sum(s[3] - s[2] for s in rrefs if s[5]["p"] != 2)
    m["linalg.rref.max_side"] = max((s[5]["side"] for s in rrefs), default=0)
    m["linalg.kernel.calls"] = calls.get("linalg.kernel", 0)
    m["linalg.intersect.calls"] = calls.get("linalg.Subspace.intersect", 0)
    m["taps.induced_matrix.calls"] = calls.get("taps.induced_matrix", 0)
    m["action.build_action.calls"] = calls.get("action.build_action", 0)
    m["action.generator_matrices.calls"] = calls.get("action.generator_matrices", 0)
    m["action.apply_phi.calls"] = calls.get("action.apply_phi", 0)
    m["fixpoint.m_ell_chain.s"] = total.get("fixpoint.m_ell_chain", 0.0)
    m["fixpoint.max_invariant_subspace.calls"] = calls.get("fixpoint.max_invariant_subspace", 0)
    m["fixpoint.extract_witness.s"] = total.get("fixpoint.extract_witness", 0.0)
    m["fixpoint.lemma_chain.s"] = total.get("fixpoint.lemma_chain_from_action", 0.0)

    chains_under: dict[int, int] = {}
    for s in tr.spans:
        if s[0] == "fixpoint" and s[1] == "m_ell_chain" and s[4] >= 0:
            chains_under[s[4]] = chains_under.get(s[4], 0) + 1
    finds = [i for i, s in enumerate(tr.spans) if s[0] == "fixpoint" and s[1] == "find_fixed_point"]
    retried = sum(1 for i in finds if chains_under.get(i, 0) > 1)
    m["fixpoint.retry_frac"] = retried / len(finds) if finds else 0.0
    m["fixpoint.window_dim.max"] = max(
        (s[5]["dim"] for s in observed("fixpoint", "m_ell_chain")), default=0)

    m["replab.fixed_space.calls"] = calls.get("replab.fixed_space", 0)
    m["replab.dichotomy_probe.s"] = total.get("replab.dichotomy_probe", 0.0)

    enumerated = tr.counts.get("oracle.subspaces_enumerated", 0)
    useful = sum(s[5]["useful"] for s in observed("oracle", "brute_max_invariant"))
    m["oracle.subspaces_enumerated"] = enumerated
    m["oracle.useful_frac"] = useful / enumerated if enumerated else 0.0
    m["oracle.vectors_enumerated"] = sum(s[5]["vectors"] for s in observed("oracle", "brute_fixed"))
    return m
