"""Output checks for CLI calls, in the benchmark's own exact arithmetic.

Each check returns None when the output is right, or a message. Exact mode
checks the algebra directly: the components sum back to the game, every
pairwise (mu,gamma) inner product is exactly 0, the reported norms match,
and the components equal those of the independent exact decomposition in
oracle.py; classify must agree with the components, and closest-potential's
d^2 must be the harmonic norm. Float mode compares with the same exact
reference, with a tolerance scaled to the data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import oracle
from inputs import GameInput

FLOAT_RTOL = 1e-7
CLASS_NAMES = (
    "nonstrategic (NSG)",
    "mu-normalized (muNG)",
    "gamma-potential (gammaPG)",
    "(mu,gamma)-harmonic (HG)",
)


@dataclass
class Reference:
    """Exact components of one game and the quantities derived from them."""

    nonstrategic: list[list[Fraction]]
    potential: list[list[Fraction]]
    harmonic: list[list[Fraction]]
    weights: list[list[Fraction]]
    harmonic_norm_sq: Fraction
    bound_sq: Fraction

    def classes(self) -> list[bool]:
        """Membership in NSG, muNG, gammaPG and HG, in classify's order."""
        ns, pot, har = (_is_zero(p) for p in (self.nonstrategic, self.potential, self.harmonic))
        return [pot and har, ns, har, pot]


def _is_zero(part) -> bool:
    return all(v == 0 for row in part for v in row)


def reference(game: GameInput) -> Reference:
    """The oracle's decomposition, ||harmonic||^2 and B^2 = 4 d^2 / min_i,s w_i(s)."""
    parts = oracle.decompose(game)
    weights = inner_weights(game)
    norm = inner(weights, parts[2], parts[2])
    return Reference(*parts, weights, norm, 4 * norm / min(min(row) for row in weights))


def inner_weights(game: GameInput) -> list[list[Fraction]]:
    """w_i(s) = mu^i(S^i) mu(s) gamma^i(s^-i)^2, so <a, b> = sum_i,s w_i(s) a_i(s) b_i(s)."""
    mu_prod = [math.prod(ws) for ws in itertools.product(*game.mu)]
    return [
        [sum(game.mu[i]) * m * g * g for m, g in zip(mu_prod, oracle.expand_gamma(game, i))]
        for i in range(game.players)
    ]


def inner(weights, a, b):
    return sum(
        w * x * y for wi, ai, bi in zip(weights, a, b) for w, x, y in zip(wi, ai, bi)
    )


def _rows(text: str, key: str, convert) -> list[list]:
    return [
        [convert(tok) for tok in line.split(":", 1)[1].split()]
        for line in text.splitlines()
        if line.startswith(key + " ")
    ]


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        name, sep, value = line.partition(": ")
        if sep:
            out[name] = value
    return out


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _close(a, b, scale) -> bool:
    return abs(a - b) <= FLOAT_RTOL * max(1.0, scale)


def _rows_close(got, want, scale) -> bool:
    return all(
        len(rg) == len(rw) and all(_close(x, float(y), scale) for x, y in zip(rg, rw))
        for rg, rw in zip(got, want)
    ) and len(got) == len(want)


def _magnitude(*parts) -> float:
    return max(abs(float(v)) for part in parts for row in part for v in row)


def check_exact_decompose(game: GameInput, out: str, ref: Reference) -> str | None:
    n = game.players
    rows = _rows(out, "payoffs", Fraction)
    if len(rows) != 3 * n:
        return f"expected {3 * n} payoff rows, got {len(rows)}"
    parts = [rows[:n], rows[n:2 * n], rows[2 * n:]]
    if _add(_add(parts[0], parts[1]), parts[2]) != game.payoffs:
        return "components do not sum back to the game"
    names = ("nonstrategic", "potential", "harmonic")
    fields = _fields(out)
    for (a, pa), (b, pb) in itertools.combinations(zip(names, parts), 2):
        if inner(ref.weights, pa, pb) != 0:
            return f"<{a}, {b}> is not exactly 0"
        if fields.get(f"orthogonality {a}/{b}") != "0":
            return f"report orthogonality {a}/{b} is not 0"
    for name, part, want in zip(names, parts, (ref.nonstrategic, ref.potential, ref.harmonic)):
        if part != want:
            return f"{name} component differs from the independent exact decomposition"
        norm = inner(ref.weights, part, part)
        if fields.get(f"norm2 {name}") != str(norm):
            return f"report norm2 {name} != {norm}"
    if fields.get("reconstruction exact") != "True":
        return "report does not say the reconstruction is exact"
    phi_lines = out.split("\nphi:\n", 1)[-1].split("decomposition report", 1)[0]
    if len(phi_lines.splitlines()) != game.num_profiles:
        return "phi does not list every profile"
    return None


def check_float_decompose(game: GameInput, out: str, ref: Reference) -> str | None:
    n = game.players
    rows = _rows(out, "payoffs", float)
    if len(rows) != 3 * n:
        return f"expected {3 * n} payoff rows, got {len(rows)}"
    want = [ref.nonstrategic, ref.potential, ref.harmonic]
    scale = _magnitude(game.payoffs, *want)
    for k, name in enumerate(("nonstrategic", "potential", "harmonic")):
        if not _rows_close(rows[k * n:(k + 1) * n], want[k], scale):
            return f"float {name} component is off the exact one"
    fields = _fields(out)
    norm_scale = scale * scale * max(float(w) for row in ref.weights for w in row) * game.num_profiles
    for key, value in fields.items():
        if key.startswith("orthogonality ") and not _close(float(value), 0.0, norm_scale):
            return f"float {key} residual {value} too large"
    if not _close(float(fields.get("norm2 harmonic", "nan")), float(ref.harmonic_norm_sq), norm_scale):
        return "float norm2 harmonic is off the exact one"
    return None


def check_classify(out: str, ref: Reference) -> str | None:
    fields = _fields(out)
    expected = ["yes" if member else "no" for member in ref.classes()]
    got = [fields.get(name) for name in CLASS_NAMES]
    if got != expected or len(out.splitlines()) != len(CLASS_NAMES):
        return f"classify answered {got}, components say {expected}"
    return None


def check_closest(game: GameInput, out: str, ref: Reference, exact: bool) -> str | None:
    closest = _add(ref.nonstrategic, ref.potential)
    fields = _fields(out)
    try:
        dist = fields["d^2"].split()[0]
        bound = fields["B^2"].split()[0]
    except (KeyError, IndexError):
        return "missing d^2 or B^2 line"
    if exact:
        if _rows(out, "payoffs", Fraction) != closest:
            return "closest game is not nonstrategic + potential"
        if Fraction(dist) != ref.harmonic_norm_sq:
            return f"d^2 = {dist}, harmonic norm is {ref.harmonic_norm_sq}"
        if Fraction(bound) != ref.bound_sq:
            return f"B^2 = {bound}, expected {ref.bound_sq}"
        return None
    if not _rows_close(_rows(out, "payoffs", float), closest, _magnitude(game.payoffs, closest)):
        return "float closest game is off nonstrategic + potential"
    norm_scale = float(ref.harmonic_norm_sq)
    if not _close(float(dist), norm_scale, norm_scale):
        return f"float d^2 = {dist}, exact {norm_scale}"
    # the float 'B^2:' line prints B at the seed commit; accept B or B^2
    b_sq = float(ref.bound_sq)
    value = float(bound)
    if not (_close(value, b_sq, b_sq) or _close(value, math.sqrt(b_sq), math.sqrt(b_sq))):
        return f"float B^2 line {bound} is neither B nor B^2 of {b_sq}"
    return None


def check_verify(law: str, trials: str, seed: str, out: str) -> str | None:
    expected = f"{law}: pass ({trials} trials, seed {seed})\n"
    if out != expected:
        return f"verify output {out.strip()!r}, expected {expected.strip()!r}"
    return None
