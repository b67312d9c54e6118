"""Span recorder that times calls into each gamedecomp layer from outside.

Every public function of a layer is wrapped, and the wrapper is bound to
every ``gamedecomp.*`` module attribute that holds the original: ``cli`` and
``decomposition`` import names directly, so patching only the defining
module would miss their calls. The values of ``laws.LAWS`` are wrapped too.
Spans stay in memory with their parent id and are written out once.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

# metric -> (module, attribute) pairs; "Game.__add__" names a method.
LAYERS = {
    "cli.self_s": [("cli", "main")],
    "gamedoc.parse_s": [("gamedoc", "parse_game")],
    "gamedoc.serialize_s": [("gamedoc", "serialize_game")],
    "games.validate_s": [("games", "validate_parameters")],
    "games.inner_product_s": [
        ("games", "inner_product_game"),
        ("games", "game_norm_sq"),
        ("games", "inner_product_c0"),
    ],
    "games.arith_s": [
        ("games", "Game.__add__"),
        ("games", "Game.__sub__"),
        ("games", "Game.__eq__"),
    ],
    "operators.poisson_s": [("operators", "solve_poisson")],
    "operators.divergence_s": [("operators", "deviation_divergence")],
    "operators.projection_s": [("operators", "lambda_project"), ("operators", "pi_project")],
    "decomposition.decompose_self_s": [("decomposition", "decompose")],
    "decomposition.predicate_s": [
        ("decomposition", "is_nonstrategic"),
        ("decomposition", "is_mu_normalized"),
        ("decomposition", "is_gamma_potential"),
        ("decomposition", "is_harmonic"),
        ("decomposition", "extract_potential"),
    ],
    "decomposition.bound_s": [
        ("decomposition", "closest_potential"),
        ("decomposition", "epsilon_bound"),
    ],
    "equilibrium.best_response_s": [
        ("equilibrium", "best_response_epsilon"),
        ("equilibrium", "expected_payoff"),
    ],
    "equilibrium.construct_s": [
        ("equilibrium", "harmonic_equilibrium"),
        ("equilibrium", "map_equilibrium_under_scaling"),
        ("equilibrium", "pure_equilibrium_from_potential"),
    ],
    "transforms.self_s": [
        ("transforms", name)
        for name in (
            "permute", "permute_params", "translate_nonstrategic", "scale",
            "co_measure_quotient", "co_measure_inverse", "extend_duplicate",
            "reduce_duplicate", "reduce_redundant",
        )
    ],
    "laws.run_law_s": [("laws", "run_law")],
}

# count -> span names it counts
COUNTS = {
    "decomposition.decompose_calls": {"decomposition.decompose"},
    "operators.poisson_calls": {"operators.solve_poisson"},
    "laws.trials": {"laws.LAWS"},
    "equilibrium.calls": {f"equilibrium.{attr}" for _, attr in
                          LAYERS["equilibrium.best_response_s"] + LAYERS["equilibrium.construct_s"]},
}


class SpanRecorder:
    """Wraps layer functions; records [key, parent, start, end] while active."""

    def __init__(self):
        self.keys: list[str] = []
        self.metric_of: list[str] = []
        self.spans: list[list] = []
        self.phis: list = []
        self.texts: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, key: str, metric: str):
        index = len(self.keys)
        self.keys.append(key)
        self.metric_of.append(metric)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = {"operators.solve_poisson": self.phis, "gamedoc.serialize_game": self.texts}.get(key)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [index, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "gamedecomp" or name.startswith("gamedecomp.")
        }
        wrappers = {}
        for metric, targets in LAYERS.items():
            for module, attr in targets:
                owner = modules[f"gamedecomp.{module}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self._wrap(original, f"{module}.{attr}", metric))
                else:
                    original = getattr(owner, attr)
                    wrappers[id(original)] = (original, self._wrap(original, f"{module}.{attr}", metric))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        laws = modules["gamedecomp.laws"].LAWS
        for law, check in list(laws.items()):
            self._undo.append((laws, law, check))
            laws[law] = self._wrap(check, "laws.LAWS", f"laws.{law}_s")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def take_round(self) -> dict:
        """Self times and counts of the spans recorded since the last call."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for key, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_times: dict[str, float] = {}
        counts = {name: 0 for name in COUNTS}
        root_total = 0.0
        nesting_ok = True
        for sid, (key, parent, start, end) in enumerate(spans):
            metric = self.metric_of[key]
            self_times[metric] = self_times.get(metric, 0.0) + (end - start) - child_time[sid]
            name = self.keys[key]
            if parent < 0:
                root_total += end - start
                nesting_ok &= name == "cli.main"
            else:
                p = spans[parent]
                nesting_ok &= p[2] <= start and end <= p[3]
            for count, targets in COUNTS.items():
                if name in targets:
                    counts[count] += 1
        counts["gamedoc.bytes_out"] = sum(len(t.encode()) for t in self.texts)
        counts["operators.phi_max_bits"] = max((phi_bits(phi) for phi in self.phis), default=0)
        result = {
            "self": self_times,
            "counts": counts,
            "root_total": root_total,
            "nesting_ok": nesting_ok,
            "spans": [[self.keys[k], p, s, e] for k, p, s, e in spans],
        }
        self.spans.clear()
        self.phis.clear()
        self.texts.clear()
        return result


def phi_bits(phi) -> int:
    """Largest numerator or denominator bit length of an exact phi, else 0."""
    values = phi.values.reshape(-1).tolist()
    if not values or not isinstance(values[0], Fraction):
        return 0
    return max(max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values)


def write_spans(path: str, header: dict, rounds: list[list]) -> None:
    """Write every round's spans once, one JSON line per span."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for number, spans in enumerate(rounds):
            for sid, (name, parent, start, end) in enumerate(spans):
                handle.write(json.dumps([number, sid, parent, name, start, end]) + "\n")
