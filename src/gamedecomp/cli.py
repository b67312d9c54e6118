"""Command-line surface.

Exit codes: 0 success, 1 input or validation error, 2 law violation found.
Every error is a ``GameDecompError`` (or an ``OSError``), printed as one
``error:`` line; a float result out of range is among them, since the
library refuses it with a ``ValidationError``.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

from .errors import GameDecompError, ParseError
from .numeric import format_scalar, parse_scalar
from .games import CoMeasureVector, MeasureVector, validate_parameters
from .gamedoc import GameDocument, _number, parse_game, serialize_game
from .decomposition import (
    decompose,
    is_gamma_potential,
    is_harmonic,
    is_mu_normalized,
    is_nonstrategic,
)
from .equilibrium import best_response_epsilon, is_no_gain
from .laws import LAWS, run_law
from .transforms import (
    DuplicationSpec,
    PermutationSpec,
    RedundancySpec,
    co_measure_quotient,
    extend_duplicate,
    permute,
    permute_params,
    reduce_duplicate,
    reduce_redundant,
    scale,
    translate_nonstrategic,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GameDecompError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamedecomp",
        description=(
            "Decompose finite normal-form games into nonstrategic, potential, "
            "and harmonic components under exact rational arithmetic."
        ),
    )
    parser.add_argument(
        "--float",
        dest="float_mode",
        action="store_true",
        help="use floating-point scalars instead of exact rationals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="write the three components plus phi")
    p.add_argument("game", type=Path)
    p.add_argument("--mu", help="override mu: per-player comma lists joined by ';'")
    p.add_argument("--gamma", help="override gamma: tensors, 'uniform', or 'gen:...'")
    p.add_argument("--out", type=Path, help="directory for component documents")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("classify", help="membership in NSG / muNG / gammaPG / harmonic")
    p.add_argument("game", type=Path)
    p.add_argument("--mu")
    p.add_argument("--gamma")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("transform", help="apply a game transformation")
    p.add_argument("game", type=Path)
    p.add_argument(
        "--op",
        required=True,
        choices=["permute", "translate", "scale", "extend", "reduce", "reduce-redundant"],
    )
    p.add_argument("--player", type=int, help="1-based player index")
    p.add_argument("--sigma", help="permutation as comma-separated 0-based indices")
    p.add_argument("--ns", type=Path, help="nonstrategic game document to add")
    p.add_argument("--beta", help="scaling co-measure, same syntax as --gamma")
    p.add_argument("--source", help="strategy label to duplicate")
    p.add_argument("--label", help="label of the inserted duplicate")
    p.add_argument("--lam", default="1/2", help="measure split in (0,1)")
    p.add_argument("--s0", help="strategy to remove")
    p.add_argument("--s1", help="strategy that keeps the merged weight")
    p.add_argument("--alpha", help="comma-separated mixture weights for --op reduce-redundant")
    p.add_argument("--out", type=Path, help="output document path (default stdout)")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("check-eq", help="exact best-response epsilon of a named profile")
    p.add_argument("game", type=Path)
    p.add_argument("--profile", required=True)
    p.set_defaults(handler=_cmd_check_eq)

    p = sub.add_parser("closest-potential", help="closest potential game, d^2, and B^2")
    p.add_argument("game", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=_cmd_closest)

    p = sub.add_parser("verify", help="run a randomized law suite")
    p.add_argument("law", choices=sorted(LAWS) + ["all"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="seed for this suite")
    p.add_argument("--players", type=int, default=3, help="max player count")
    p.add_argument("--strategies", type=int, default=4, help="max strategies per player")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _read_document(path: Path, exact: bool) -> GameDocument:
    """Parse the game document at ``path``; bytes that are not UTF-8 text
    are a ParseError."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path.name}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return parse_game(text, exact)


def _load(args) -> GameDocument:
    doc = _read_document(args.game, exact=not args.float_mode)
    mu_text = getattr(args, "mu", None)
    gamma_text = getattr(args, "gamma", None)
    # an empty --mu or --gamma is an override that fails to parse, not an absent one
    if mu_text is not None:
        doc.mu = _parse_mu(mu_text, doc.space, exact=not args.float_mode)
    if gamma_text is not None:
        doc.gamma = _parse_gamma(gamma_text, doc.space, exact=not args.float_mode)
    if mu_text is not None or gamma_text is not None:
        validate_parameters(doc.mu, doc.gamma)
    return doc


def _parse_groups(text: str, exact: bool) -> list[list]:
    return [
        [parse_scalar(tok, exact) for tok in group.replace(",", " ").split()]
        for group in text.split(";")
    ]


def _parse_mu(text: str, space, exact: bool) -> MeasureVector:
    return MeasureVector.from_weights(space, _parse_groups(text, exact), exact)


def _parse_gamma(text: str, space, exact: bool) -> CoMeasureVector:
    text = text.strip()
    if text == "uniform":
        return CoMeasureVector.uniform(space, exact=exact)
    if text.startswith("gen:"):
        return CoMeasureVector.from_generator(
            space, _parse_groups(text[4:], exact), exact
        )
    return CoMeasureVector.from_tensors(space, _parse_groups(text, exact), exact)


def _sqrt_note(value) -> str:
    try:
        root = math.sqrt(float(value))
    except OverflowError:
        raise GameDecompError("result too large for a float square root") from None
    return f"{format_scalar(value)} (sqrt ~ {root:.12g})"


def _cmd_decompose(args) -> int:
    doc = _load(args)
    parts = decompose(doc.game, doc.mu, doc.gamma)
    named = {
        "nonstrategic": parts.nonstrategic,
        "potential": parts.potential,
        "harmonic": parts.harmonic,
    }

    report = ["decomposition report"]
    for name, component in named.items():
        norm = parts.inner_product(component, component)
        report.append(f"norm2 {name}: {format_scalar(norm)}")
    pairs = [("nonstrategic", "potential"), ("nonstrategic", "harmonic"), ("potential", "harmonic")]
    for a, b in pairs:
        residual = parts.inner_product(named[a], named[b])
        report.append(f"orthogonality {a}/{b}: {format_scalar(residual)}")
    report.append(f"reconstruction exact: {parts.reconstructs(doc.game)}")
    report_text = "\n".join(report) + "\n"

    profiles = itertools.product(*doc.space.labels)  # row-major, as phi's entries
    phi_text = "".join(
        " ".join(labels) + ": " + value + "\n"
        for labels, value in zip(profiles, parts.phi._shared[0].texts())
    )
    # every text is built before any is written, so an error leaves no partial output
    source = f" of {args.game.name}" if args.out else ""
    texts = {
        name: serialize_game(
            GameDocument(component, doc.mu, doc.gamma), comment=f"{name} component{source}"
        )
        for name, component in named.items()
    }

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (args.out / f"{name}.game").write_text(text)
        (args.out / "phi.txt").write_text(phi_text)
        (args.out / "report.txt").write_text(report_text)
        print(f"wrote {', '.join(sorted(n + '.game' for n in named))}, phi.txt, report.txt to {args.out}")
    else:
        for text in texts.values():
            print(text)
        print("phi:")
        sys.stdout.write(phi_text)
    sys.stdout.write(report_text)
    return 0


def _cmd_classify(args) -> int:
    doc = _load(args)
    rows = [
        ("nonstrategic (NSG)", is_nonstrategic(doc.game)),
        ("mu-normalized (muNG)", is_mu_normalized(doc.game, doc.mu)),
        ("gamma-potential (gammaPG)", is_gamma_potential(doc.game, doc.gamma)),
        ("(mu,gamma)-harmonic (HG)", is_harmonic(doc.game, doc.mu, doc.gamma)),
    ]
    for name, member in rows:
        print(f"{name}: {'yes' if member else 'no'}")
    return 0


def _cmd_transform(args) -> int:
    doc = _load(args)
    exact = not args.float_mode
    game, mu, gamma = doc.game, doc.mu, doc.gamma
    player = None if args.player is None else args.player - 1

    if args.op == "permute":
        _require(args.player is not None and args.sigma, "--op permute needs --player and --sigma")
        sigma = tuple(_literal(_number, x, "--sigma") for x in args.sigma.split(","))
        spec = PermutationSpec(player, sigma)
        game = permute(game, spec)
        mu, gamma = permute_params(mu, gamma, spec)
    elif args.op == "translate":
        _require(args.ns, "--op translate needs --ns <document>")
        ns_doc = _read_document(args.ns, exact)
        game = translate_nonstrategic(game, ns_doc.game)
    elif args.op == "scale":
        _require(args.beta, "--op scale needs --beta")
        beta = _parse_gamma(args.beta, game.space, exact)
        game = scale(game, beta)
        gamma = co_measure_quotient(gamma, beta)
    elif args.op == "extend":
        _require(
            args.player is not None and args.source and args.label,
            "--op extend needs --player, --source, --label",
        )
        spec = DuplicationSpec(
            player, args.source, args.label, _literal(parse_scalar, args.lam, "--lam")
        )
        game, mu, gamma = extend_duplicate(game, mu, gamma, spec)
    elif args.op == "reduce":
        _require(
            args.player is not None and args.s0 and args.s1,
            "--op reduce needs --player, --s0, --s1",
        )
        game, mu, gamma = reduce_duplicate(game, mu, gamma, player, args.s0, args.s1)
    elif args.op == "reduce-redundant":
        _require(
            args.player is not None and args.s0 and args.alpha,
            "--op reduce-redundant needs --player, --s0, --alpha",
        )
        alpha = tuple(_literal(parse_scalar, x, "--alpha") for x in args.alpha.split(","))
        spec = RedundancySpec(player, args.s0, alpha)
        game, mu, gamma = reduce_redundant(game, mu, gamma, spec)

    _write_document(args.out, GameDocument(game, mu, gamma), f"{args.op} of {args.game.name}")
    return 0


def _cmd_check_eq(args) -> int:
    doc = _load(args)
    _require(
        args.profile in doc.profiles, f"no profile named {args.profile!r} in the document"
    )
    eps = best_response_epsilon(doc.game, doc.profiles[args.profile])
    print(f"epsilon: {format_scalar(eps)}")
    print(f"nash equilibrium: {'yes' if is_no_gain(doc.game, eps) else 'no'}")
    return 0


def _cmd_closest(args) -> int:
    doc = _load(args)
    parts = decompose(doc.game, doc.mu, doc.gamma)
    closest, dist_sq = parts.closest_potential()
    notes = f"d^2: {_sqrt_note(dist_sq)}\nB^2: {_sqrt_note(parts.epsilon_bound())}"
    _write_document(
        args.out, GameDocument(closest, doc.mu, doc.gamma),
        f"closest potential game to {args.game.name}",
    )
    print(notes)
    return 0


def _cmd_verify(args) -> int:
    # run_law draws exact instances only, so a --float run would check exact mode
    _require(
        not args.float_mode, "verify checks the laws in exact mode only; run it without --float"
    )
    laws = sorted(LAWS) if args.law == "all" else [args.law]
    players = (2, args.players)
    strategies = (2, args.strategies)
    failed = False
    for law in laws:
        report = run_law(law, args.trials, args.seed, players, strategies)
        if report.ok:
            print(f"{law}: pass ({report.trials} trials, seed {report.seed})")
        else:
            failed = True
            print(f"{law}: FAIL at trial {report.failed_trial}: {report.message}")
            print("minimized counterexample:")
            sys.stdout.write(report.counterexample)
    return 2 if failed else 0


def _write_document(out: Path | None, doc: GameDocument, comment: str) -> None:
    """Write a document to ``--out`` and say so, or to stdout without --out."""
    text = serialize_game(doc, comment=comment)
    if out:
        out.write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _require(condition, message: str) -> None:
    if not condition:
        raise GameDecompError(message)


def _literal(read, text: str, flag: str):
    """read(text), with a bad literal reported as a GameDecompError naming the
    flag; ``parse_scalar`` reads exact integers and p/q, as documents do, and
    ``gamedoc._number`` a natural number, returning None for anything else."""
    try:
        value = read(text.strip())
    except ParseError as exc:
        raise GameDecompError(f"{flag}: {exc}") from None
    if value is None:
        raise GameDecompError(f"{flag}: not a valid number: {text!r}")
    return value


if __name__ == "__main__":
    sys.exit(main())
