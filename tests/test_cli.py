import hashlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from gamedecomp import (
    CoMeasureVector, Game, GameDocument, MeasureVector, PreconditionError, StrategySpace, cli,
    decomposition, games, laws, parse_game, serialize_game,
)
from gamedecomp.cli import main
from gamedecomp.games import _Tensors
from gamedecomp.numeric import _Shared
from conftest import FIXTURES

VERIFY_FAILURE_DIGEST = "6928ed2b3f39ee620d0df51b27133157b69b4dc9ef21e5dc9c99c4ca4c5ba8c6"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_matching_pennies_stdout(capsys):
    code, out, _ = run(capsys, "decompose", FIXTURES / "mp.game")
    assert code == 0
    assert "norm2 nonstrategic: 0" in out
    assert "norm2 potential: 0" in out
    assert "norm2 harmonic: 16" in out
    assert "reconstruction exact: True" in out


def test_decompose_writes_components(tmp_path, capsys):
    out_dir = tmp_path / "parts"
    code, out, _ = run(capsys, "decompose", FIXTURES / "mp-dup.game", "--out", out_dir)
    assert code == 0
    pot = parse_game((out_dir / "potential.game").read_text())
    assert pot.game.flat(0)[0] == F(4, 15)
    har = parse_game((out_dir / "harmonic.game").read_text())
    assert har.game.flat(1)[0] == F(-8, 5)
    ns = parse_game((out_dir / "nonstrategic.game").read_text())
    assert ns.game.flat(0) == [F(-1, 3), F(1, 3)] * 3
    assert (out_dir / "phi.txt").exists()
    report = (out_dir / "report.txt").read_text()
    assert "orthogonality potential/harmonic: 0" in report


def test_decompose_determinism(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "decompose", FIXTURES / "depend.game", "--out", a)
    run(capsys, "decompose", FIXTURES / "depend.game", "--out", b)
    for name in ("nonstrategic.game", "potential.game", "harmonic.game", "phi.txt", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_decompose_with_parameter_overrides(capsys):
    code, out, _ = run(
        capsys,
        "decompose", FIXTURES / "mp.game",
        "--mu", "1,1;1,1",
        "--gamma", "uniform",
    )
    assert code == 0
    assert "norm2 harmonic: 16" in out


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "mp.game")
    assert code == 0
    assert "nonstrategic (NSG): no" in out
    assert "mu-normalized (muNG): yes" in out
    assert "gamma-potential (gammaPG): no" in out
    assert "(mu,gamma)-harmonic (HG): yes" in out

    code, out, _ = run(capsys, "classify", FIXTURES / "multi.game")
    assert "(mu,gamma)-harmonic (HG): yes" in out

    code, out, _ = run(capsys, "classify", FIXTURES / "two-transformations.game")
    assert "mu-normalized (muNG): yes" in out
    assert "(mu,gamma)-harmonic (HG): no" in out


def test_check_eq(capsys):
    code, out, _ = run(capsys, "check-eq", FIXTURES / "mp.game", "--profile", "uniform")
    assert code == 0
    assert "epsilon: 0" in out
    assert "nash equilibrium: yes" in out

    code, out, _ = run(capsys, "check-eq", FIXTURES / "mp.game", "--profile", "pure-ss")
    assert code == 0
    assert "epsilon: 2" in out
    assert "nash equilibrium: no" in out

    code, _, err = run(capsys, "check-eq", FIXTURES / "mp.game", "--profile", "missing")
    assert code == 1
    assert err == "error: no profile named 'missing' in the document\n"

    code, out, _ = run(
        capsys, "check-eq", FIXTURES / "mp-dup.game", "--profile", "continuum-x-1-3"
    )
    assert "epsilon: 0" in out


def test_float_check_eq_allows_rounding_noise(capsys):
    # the float epsilon of this exact equilibrium is 5.55e-17, rounding noise
    code, out, _ = run(
        capsys, "--float", "check-eq", FIXTURES / "mp-dup.game", "--profile", "continuum-x-1-3"
    )
    assert code == 0
    assert "nash equilibrium: yes" in out
    code, out, _ = run(capsys, "--float", "check-eq", FIXTURES / "mp.game", "--profile", "pure-ss")
    assert code == 0
    assert "epsilon: 2.0\nnash equilibrium: no\n" in out


@pytest.mark.parametrize("flag", ["game", "--ns"])
def test_non_utf8_document_fails_cleanly(tmp_path, capsys, flag):
    bad = tmp_path / "bin.game"
    bad.write_bytes(b"\xff\xfegamedoc 1\nplayers 2\n")
    if flag == "game":
        argv = ["decompose", bad]
    else:
        argv = ["transform", FIXTURES / "mp.game", "--op", "translate", "--ns", bad]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: bin.game: not UTF-8 text (invalid start byte at byte 0)\n"


def test_closest_potential(capsys):
    code, out, _ = run(capsys, "closest-potential", FIXTURES / "mp.game")
    assert code == 0
    assert "d^2: 16" in out
    assert "B^2: 32" in out
    assert "payoffs 1: 0 0 0 0" in out


SOLVES = [("classify", 0), ("closest-potential", 1), ("decompose", 1)]


@pytest.mark.parametrize(
    "mode, command, solves",
    [pytest.param([], c, n, id=f"{c}-{n}") for c, n in SOLVES]
    + [pytest.param(["--float"], c, n, id=f"float-{c}-{n}") for c, n in SOLVES],
)
def test_poisson_solves_per_command(monkeypatch, capsys, mode, command, solves):
    # decompose reaches the solve core of either scalar mode through _solve
    original = decomposition._solve
    calls = []

    def counting(h, weights):
        calls.append(h)
        return original(h, weights)

    monkeypatch.setattr(decomposition, "_solve", counting)
    code, _, _ = run(capsys, *mode, command, FIXTURES / "depend.game")
    assert code == 0
    assert len(calls) == solves


def _seeded_2x6(tmp_path):
    """The document of a seeded random game on 2^6, and its space."""
    rng = random.Random(21)
    space = StrategySpace(tuple(("a", "b") for _ in range(6)))
    g = laws.random_game(rng, space)
    mu, gamma = laws.random_mu(rng, space), laws.random_gamma(rng, space)
    path = tmp_path / "g.game"
    path.write_text(serialize_game(GameDocument(g, mu, gamma)))
    return path, space


def _literals(space):
    """The literals of a document on ``space``: payoffs, mu and gamma."""
    opp = sum(space.num_opp_profiles(i) for i in space.players)
    return space.n_players * space.num_profiles + sum(space.sizes) + opp


def test_exact_decompose_fraction_constructions(tmp_path, capsys, count_fractions):
    # One exact decompose of a seeded 2^6 game builds 667 Fractions: the
    # 588 literals it reads and O(n) scalars, the 6 report lines among
    # them.  The parts and phi are written from their numerators; reading
    # each printed entry through a Fraction view built 1715, and the report
    # on Fraction arrays, with Fraction norm weights and total() == game,
    # 10401.
    path, space = _seeded_2x6(tmp_path)
    code, count = count_fractions(main, ["decompose", str(path)])
    assert code == 0
    assert "reconstruction exact: True" in capsys.readouterr().out
    assert count <= _literals(space) + 32 * space.n_players


def test_exact_classify_fraction_constructions(tmp_path, capsys, count_fractions):
    # One exact classify of the seeded 2^6 game builds 595 Fractions: the
    # 588 literals it reads and O(n) scalars.  All four tests run on integer
    # numerators; with the mu-normalized test and the deviation divergence
    # on Fraction tensors it built 767, and with the gamma-potential test
    # in Fraction arithmetic too, 1919.
    path, space = _seeded_2x6(tmp_path)
    code, count = count_fractions(main, ["classify", str(path)])
    assert code == 0
    assert "gamma-potential (gammaPG): no" in capsys.readouterr().out
    assert count <= _literals(space) + 16 * space.n_players


def test_exact_closest_potential_fraction_constructions(tmp_path, capsys, count_fractions):
    # One exact closest-potential of the seeded 2^6 game builds 640
    # Fractions: the 588 literals it reads and O(n) scalars.  The closest
    # game is written from its numerators; reading it through its Fraction
    # view built 1024, and converting the parts and phi eagerly 2054.
    path, space = _seeded_2x6(tmp_path)
    code, count = count_fractions(main, ["closest-potential", str(path)])
    assert code == 0
    assert "d^2: " in capsys.readouterr().out
    assert count <= _literals(space) + 16 * space.n_players


def test_serializing_decomposition_parts_builds_no_fraction(count_fractions):
    rng = random.Random(5)
    space = StrategySpace((("a", "b", "c"), ("a", "b"), ("a", "b", "c")))
    mu, gamma = laws.random_mu(rng, space), laws.random_gamma(rng, space)
    parts = decomposition.decompose(laws.random_game(rng, space), mu, gamma)
    for part in parts.components():
        text, count = count_fractions(serialize_game, GameDocument(part, mu, gamma))
        assert count == 0
        assert parse_game(text).game == part


def test_exact_verify_all_fraction_constructions(capsys, count_fractions):
    # the 11 laws at 30 trials each, seed 7, build 2,442 Fractions; parts,
    # transformed games, mu, gamma, profiles, the equilibrium checks and
    # the comparisons stay integer numerators, and the totals mu^i(S^i) are
    # built once per measure.  Scaling by each total built two Fractions per
    # player and decompose: 6,342.  With the equilibrium checks on Fraction
    # tensors they built 25,224, with mu and gamma stored as Fraction tensors
    # too 29,319, and with every game stored so, 148,463.
    code, count = count_fractions(main, ["verify", "all", "--trials", "30", "--seed", "7"])
    assert code == 0
    assert capsys.readouterr().out.count(": pass (30 trials, seed 7)") == 11
    assert count <= 2_442


def test_exact_verify_all_object_constructions(monkeypatch, capsys):
    # the 11 laws at 30 trials each, seed 7, build 4,650 games, fields,
    # measures, co-measures and profiles (one _store call each); a carry or
    # parameter update that does more work than its law needs shows here.
    # Building the divergence field in is_harmonic built 4,710; carrying
    # each component through the whole transform, mu and gamma included,
    # 5,340.
    count = [0]
    store = games._Tensors._store

    def counting_store(self, space, shared):
        count[0] += 1
        store(self, space, shared)

    monkeypatch.setattr(games._Tensors, "_store", counting_store)
    assert main(["verify", "all", "--trials", "30", "--seed", "7"]) == 0
    assert capsys.readouterr().out.count(": pass (30 trials, seed 7)") == 11
    assert count[0] <= 4_650


def test_exact_verify_all_full_checks(monkeypatch, capsys):
    # of the 4,650 objects above, 90 run the full _check: those built from
    # a user's factor or tensors, here the scaled mu and gamma of
    # param-equivalence and the redundancy law's from_tensors gamma.  Parts,
    # carried games, parameter updates and draws are computed from checked
    # objects and stored unchecked; checking every object ran 4,710.
    count = [0]
    check = games._Tensors._check

    def counting_check(self):
        count[0] += 1
        check(self)

    monkeypatch.setattr(games._Tensors, "_check", counting_check)
    assert main(["verify", "all", "--trials", "30", "--seed", "7"]) == 0
    assert capsys.readouterr().out.count(": pass (30 trials, seed 7)") == 11
    assert count[0] <= 90


def test_exact_decompose_333_fraction_constructions(count_fractions):
    # one decompose() of a seeded (3,3,3) game builds 12 Fractions, O(n)
    # scalars: the parts and phi stay integer numerators until read.
    # Converting them eagerly (the nonstrategic part at its distinct
    # entries) built 228.
    rng = random.Random(3)
    space = StrategySpace(tuple(("a", "b", "c") for _ in range(3)))
    g = laws.random_game(rng, space)
    mu, gamma = laws.random_mu(rng, space), laws.random_gamma(rng, space)
    parts, count = count_fractions(decomposition.decompose, g, mu, gamma)
    assert parts.reconstructs(g)
    assert count <= 16 * space.n_players


EXACT_COMMANDS = [
    ["decompose", FIXTURES / "depend.game"],
    ["classify", FIXTURES / "depend.game"],
    ["closest-potential", FIXTURES / "mp-dup.game"],
    ["check-eq", FIXTURES / "mp-dup.game", "--profile", "continuum-x-1-3"],
    ["transform", FIXTURES / "depend.game", "--op", "scale", "--beta", "gen:1,3;2,1"],
    ["verify", "all", "--trials", "2", "--seed", "5"],
]


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=[a[0] for a in EXACT_COMMANDS])
def test_each_payoff_tensor_is_converted_once(monkeypatch, capsys, argv):
    # a Game stores its payoffs in shared form: one given its payoffs
    # converts each tensor once, and the payoffs of a game built in shared
    # form, a view read out of it, never go back through _Shared.of
    games, converted = [], []
    store, of = _Tensors._store, _Shared.of.__func__

    def recording(self, space, shared):
        store(self, space, shared)
        if isinstance(self, Game):
            games.append((self, "payoffs" not in vars(self)))

    def counting(cls, values, *args, **kwargs):
        converted.append(values)  # kept alive, so the ids stay distinct
        return of(cls, values, *args, **kwargs)

    monkeypatch.setattr(_Tensors, "_store", recording)
    monkeypatch.setattr(_Shared, "of", classmethod(counting))
    code, _, _ = run(capsys, *argv)
    monkeypatch.undo()
    assert code == 0
    assert games
    times = Counter(id(v) for v in converted)
    for g, built_shared in games:
        assert max(times[id(p)] for p in g.payoffs) <= (0 if built_shared else 1)


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
@pytest.mark.parametrize("flag", ["--mu", "--gamma"])
def test_empty_parameter_override_fails_cleanly(capsys, mode, flag):
    code, out, err = run(capsys, *mode, "classify", FIXTURES / "mp.game", flag, "")
    assert code == 1
    assert out == ""
    assert err.startswith("error: need one ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
@pytest.mark.parametrize("flag, line", [
    ("--mu", "mu-normalized (muNG): no"),
    ("--gamma", "(mu,gamma)-harmonic (HG): no"),
])
def test_parameter_override_replaces_the_document_value(capsys, mode, flag, line):
    # matching pennies is mu-normalized and harmonic under its own
    # parameters, and loses one of them under the override
    code, out, _ = run(capsys, *mode, "classify", FIXTURES / "mp.game", flag, "1,2;1,1")
    assert code == 0
    assert line in out


def test_transform_scale_and_permute(tmp_path, capsys):
    out_file = tmp_path / "scaled.game"
    code, _, _ = run(
        capsys,
        "transform", FIXTURES / "depend.game",
        "--op", "scale", "--beta", "gen:1,3;2,1",
        "--out", out_file,
    )
    assert code == 0
    scaled = parse_game(out_file.read_text())
    assert scaled.game.flat(0) == [F(8), F(-3), F(-8), F(3)]
    assert scaled.gamma.generator[0].tolist() == [F(1), F(1, 3)]

    code, out, _ = run(
        capsys,
        "transform", FIXTURES / "mp.game", "--op", "permute",
        "--player", "1", "--sigma", "1,0",
    )
    assert code == 0
    assert "payoffs 1: -1 1 1 -1" in out


def test_transform_extend_reduce_roundtrip(tmp_path, capsys):
    extended_path = tmp_path / "extended.game"
    code, _, _ = run(
        capsys,
        "transform", FIXTURES / "mp.game", "--op", "extend",
        "--player", "1", "--source", "t", "--label", "t1", "--lam", "1/2",
        "--out", extended_path,
    )
    assert code == 0
    extended = parse_game(extended_path.read_text())
    assert extended.mu.weights[0].tolist() == [1, F(1, 2), F(1, 2)]

    reduced_path = tmp_path / "reduced.game"
    code, _, _ = run(
        capsys,
        "transform", extended_path, "--op", "reduce",
        "--player", "1", "--s0", "t1", "--s1", "t",
        "--out", reduced_path,
    )
    assert code == 0
    reduced = parse_game(reduced_path.read_text())
    original = parse_game((FIXTURES / "mp.game").read_text())
    assert reduced.game == original.game
    assert reduced.mu == original.mu


def test_transform_reduce_redundant(capsys):
    code, out, _ = run(
        capsys,
        "transform", FIXTURES / "redscale.game", "--op", "reduce-redundant",
        "--player", "1", "--s0", "r", "--alpha", "1/3,2/3",
    )
    assert code == 0
    assert "mu 1: 1 1" in out


def test_transform_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        "transform", FIXTURES / "mp.game", "--op", "reduce",
        "--player", "1", "--s0", "s", "--s1", "t",
    )
    assert code == 1
    assert "not a duplicate" in err


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
def test_transform_translate(tmp_path, capsys, mode):
    ns = tmp_path / "ns.game"
    ns.write_text(
        "gamedoc 1\nplayers 2\nstrategies 1: s t\nstrategies 2: s t\n"
        "payoffs 1: 5 7 5 7\npayoffs 2: 2 2 -3 -3\n"
    )
    code, out, err = run(
        capsys, *mode, "transform", FIXTURES / "mp.game", "--op", "translate", "--ns", ns
    )
    assert code == 0 and err == ""
    doc = parse_game(out, exact=not mode)
    assert doc.game.flat(0) == [6, 6, 4, 8]
    assert doc.game.flat(1) == [1, 3, -2, -4]
    assert out.startswith("# translate of mp.game\n")
    mp = parse_game((FIXTURES / "mp.game").read_text(), exact=not mode)
    assert doc.mu == mp.mu and doc.gamma == mp.gamma

    code, out, err = run(
        capsys, *mode, "transform", FIXTURES / "mp.game", "--op", "translate",
        "--ns", FIXTURES / "mp.game",
    )
    assert (code, out, err) == (1, "", "error: translation not nonstrategic\n")


def test_verify_reports_a_failing_law(monkeypatch, capsys):
    # a law that fails while player 1 has a nonzero payoff: exit 2, the
    # failure line, and a minimized counterexample that parses back; the
    # digest pins the whole output, the strategy deletions of the minimizer
    # (game, mu and gamma) included
    def bogus_check(g, mu, gamma, aux):
        return "player 1 has a nonzero payoff" if any(g.flat(0)) else None

    monkeypatch.setitem(laws.LAWS, "permute", bogus_check)
    code, out, err = run(capsys, "verify", "permute", "--trials", "3", "--seed", "1")
    assert code == 2 and err == ""
    head, rest = out.split("minimized counterexample:\n")
    assert head == "permute: FAIL at trial 0: player 1 has a nonzero payoff\n"
    assert rest.startswith("# counterexample: law=permute seed=1 trial=0\n")
    doc = parse_game(rest)
    assert sum(v != 0 for v in doc.game.flat(0)) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FAILURE_DIGEST


def test_verify_reports_a_law_whose_check_raises(monkeypatch, capsys):
    # a carry refused by a transform's game check breaks the law: exit 2,
    # the failure line naming the error, and a counterexample that parses
    def raising_check(g, mu, gamma, aux):
        if any(g.flat(0)):
            raise PreconditionError("not a duplicate: a part of the extended game")
        return None

    monkeypatch.setitem(laws.LAWS, "reduce", raising_check)
    code, out, err = run(capsys, "verify", "reduce", "--trials", "2", "--seed", "1")
    assert code == 2 and err == ""
    head, rest = out.split("minimized counterexample:\n")
    assert head == (
        "reduce: FAIL at trial 0: the check raised PreconditionError: "
        "not a duplicate: a part of the extended game\n"
    )
    assert rest.startswith("# counterexample: law=reduce seed=1 trial=0\n")
    doc = parse_game(rest)
    assert sum(v != 0 for v in doc.game.flat(0)) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--op", "extend", "--player", "5", "--source", "s", "--label", "t1"],
        ["--op", "extend", "--player", "0", "--source", "s", "--label", "t1"],
        ["--op", "extend", "--player", "1", "--source", "s", "--label", "t1", "--lam", "abc"],
        ["--op", "extend", "--player", "1", "--source", "s", "--label", "t1", "--lam", "1/0"],
        ["--op", "permute", "--player", "1", "--sigma", "a,b"],
        ["--op", "permute", "--sigma", "1,0", "--player", "0"],
        # indices follow the document rule for natural numbers: decimal digits only
        ["--op", "permute", "--player", "1", "--sigma", "1,0_0"],
        ["--op", "permute", "--player", "1", "--sigma", "+1,-0"],
        ["--op", "reduce-redundant", "--player", "1", "--s0", "s", "--alpha", "x"],
        # exponents and decimals are refused before any arithmetic, as in documents
        ["--op", "extend", "--player", "1", "--source", "s", "--label", "t1", "--lam", "1e-5000"],
        ["--op", "reduce-redundant", "--player", "1", "--s0", "s", "--alpha", "0.5,0.5"],
        # so is a player number: no sign, no digit-grouping underscore
        ["--op", "permute", "--sigma", "1,0", "--player", "+1"],
        ["--op", "permute", "--sigma", "1,0", "--player", "0_1"],
        ["--op", "permute", "--sigma", "1,0", "--player", "1_0"],
        ["--op", "permute", "--sigma", "1,0", "--player", "-1"],
    ],
)
def test_transform_bad_arguments_fail_cleanly(capsys, argv):
    code, out, err = run(capsys, "transform", FIXTURES / "mp.game", *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    if argv[-2] in ("--lam", "--alpha", "--sigma"):
        assert lines[0].startswith(f"error: {argv[-2]}: ")


@pytest.mark.parametrize("label", ["t 1", "t#1"])
def test_transform_refuses_a_label_the_document_cannot_hold(capsys, label):
    # written, 't 1' read back as two labels and 't#1' as a cut payoff line
    code, out, err = run(
        capsys, "transform", FIXTURES / "mp.game", "--op", "extend", "--player", "1",
        "--source", "s", "--label", label,
    )
    assert (code, out) == (1, "")
    assert err == (
        f"error: cannot write strategy label {label!r}: "
        "it must be one token without whitespace or '#'\n"
    )


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
def test_scaling_by_the_unit_co_measure_keeps_the_generator(capsys, mode):
    """An all-ones beta is the unit product co-measure however it is spelled,
    so the scaled document keeps its generator block."""
    docs = set()
    for beta in ["uniform", "gen:1,1,1;1,1", "1,1;1,1,1"]:
        code, out, _ = run(
            capsys, *mode, "transform", FIXTURES / "two-transformations.game",
            "--op", "scale", "--beta", beta,
        )
        assert code == 0
        assert "generator 1:" in out and "gamma 1:" not in out
        docs.add(out)
    assert len(docs) == 1


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
@pytest.mark.parametrize("beta", ["gen:1,2;3,0", "1,-2;3,4", "0,1;1,1"])
def test_transform_scale_rejects_nonpositive_beta(capsys, mode, beta):
    # a zero beta divided the co-measure by zero (a traceback, or inf in
    # float mode); a negative one wrote a gamma that parse_game refuses
    code, out, err = run(
        capsys, *mode, "transform", FIXTURES / "mp.game", "--op", "scale", "--beta", beta
    )
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: nonpositive co-measure")


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
@pytest.mark.parametrize(
    "extra",
    ["payoffs 1: 5 5 5 5", "mu 3: 7 7", "gamma 9: 1 2", "strategies 3: a b c",
     "profile uniform: 1 0 | 1 0", ": x"],
)
def test_document_line_that_would_change_the_game_fails_cleanly(
    tmp_path, capsys, mode, extra
):
    path = tmp_path / "extra.game"
    path.write_text((FIXTURES / "mp.game").read_text() + extra + "\n")
    code, out, err = run(capsys, *mode, "classify", path)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line 10: ")


@pytest.mark.parametrize("mode", [[], ["--float"]])
def test_huge_literal_fails_cleanly(tmp_path, capsys, mode):
    text = (FIXTURES / "mp.game").read_text()
    path = tmp_path / "huge.game"
    path.write_text(text.replace("payoffs 1: 1 ", "payoffs 1: " + "7" * 5000 + " ", 1))
    code, out, err = run(capsys, *mode, "classify", path)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", FIXTURES / "mp.game", "--mu", "1,1;1,1;1,1"],
        ["classify", FIXTURES / "mp.game", "--gamma", "gen:1,1;1,1;1,1"],
        ["classify", FIXTURES / "mp.game", "--gamma", "1,1;1,1;1,1"],
        ["classify", FIXTURES / "mp.game", "--mu", "1,1"],
        ["transform", FIXTURES / "mp.game", "--op", "scale", "--beta", "gen:1,1;1,1;1,1"],
        ["transform", FIXTURES / "mp.game", "--op", "scale", "--beta", "1,1;1,1;1,1"],
    ],
)
def test_wrong_number_of_value_groups_fails_cleanly(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def _mp_with_payoffs(tmp_path, row):
    """fixtures/mp.game with player 1's payoffs replaced by ``row``."""
    text = (FIXTURES / "mp.game").read_text()
    path = tmp_path / "big.game"
    path.write_text(text.replace("payoffs 1: 1 -1 -1 1", f"payoffs 1: {row}"))
    return path


@pytest.mark.parametrize("command", ["decompose", "closest-potential"])
def test_result_too_long_to_print_fails_cleanly(tmp_path, capsys, command):
    big = "7" * 4000 + "/" + "3" * 4000
    path = _mp_with_payoffs(tmp_path, f"{big} 1/{'9' * 3000} -1 1")
    code, out, err = run(capsys, command, path)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_decompose_of_an_integer_too_long_to_print_fails_cleanly(monkeypatch, capsys):
    # 10^4400 has more digits than any literal can, so the game is built
    # from an int and handed to the command as if read from a document
    space = StrategySpace((("s", "t"),) * 2)
    game = Game.from_payoffs(space, [[10 ** 4400, 1, -1, 0], [0, 1, -1, 0]])
    doc = GameDocument(game, MeasureVector.uniform(space), CoMeasureVector.uniform(space))
    monkeypatch.setattr(cli, "_read_document", lambda path, exact: doc)
    code, out, err = run(capsys, "decompose", FIXTURES / "mp.game")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: result too long to print: ")


def test_result_over_float_range_fails_cleanly(tmp_path, capsys):
    path = _mp_with_payoffs(tmp_path, "1" + "0" * 400 + " -1 -1 1")
    code, out, _ = run(capsys, "decompose", path)
    assert code == 0 and "norm2 harmonic: " in out
    code, out, err = run(capsys, "closest-potential", path)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "scale", "--trials", "5", "--seed", "3")
    assert code == 0
    assert "scale: pass (5 trials, seed 3)" in out


def test_verify_seed_reproducibility(capsys):
    _, out1, _ = run(capsys, "verify", "reconstruction", "--trials", "4", "--seed", "11")
    _, out2, _ = run(capsys, "verify", "reconstruction", "--trials", "4", "--seed", "11")
    assert out1 == out2


def test_verify_draws_up_to_the_requested_strategies(monkeypatch, capsys):
    original = laws.random_space
    sizes = []

    def recording(rng, players, strategies):
        space = original(rng, players, strategies)
        sizes.extend(space.sizes)
        return space

    monkeypatch.setattr(laws, "random_space", recording)
    code, out, _ = run(
        capsys, "verify", "orthogonality", "--trials", "10", "--players", "2",
        "--strategies", "6",
    )
    assert code == 0
    assert out == "orthogonality: pass (10 trials, seed 0)\n"
    assert max(sizes) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["--trials", "-2"], ["--trials", "0"], ["--strategies", "27"],
        ["--strategies", "1"], ["--players", "1"],
        # the integer flags read natural numbers as documents do
        ["--trials", "+1"], ["--seed", "0_1"], ["--seed", "1_0"], ["--seed", "-1"],
        ["--players", "+1"], ["--strategies", "1_0"],
    ],
)
def test_verify_rejects_arguments_it_cannot_honour(capsys, argv):
    code, out, err = run(capsys, "verify", "all", *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("text", ["+1", "0_1", "1_0", "-1", "abc"])
@pytest.mark.parametrize("flag", ["--player", "--trials", "--seed", "--players", "--strategies"])
def test_integer_flags_read_natural_numbers_only(capsys, flag, text):
    # decimal digits only, as a document's player numbers; what int() also
    # takes, a sign or an underscore, is refused by the flag's name with
    # exit 1, as is a word (which argparse refused with exit 2)
    if flag == "--player":
        argv = ["transform", FIXTURES / "mp.game", "--op", "permute", "--sigma", "1,0"]
    else:
        argv = ["verify", "reduce", "--trials", "2"]
    code, out, err = run(capsys, *argv, flag, text)
    assert (code, out) == (1, "")
    assert err == f"error: {flag}: not a valid number: {text!r}\n"


def test_float_verify_is_refused(capsys):
    # the law suite checks exact mode only; --float must not run it silently
    code, out, err = run(
        capsys, "--float", "verify", "orthogonality", "--trials", "3", "--seed", "1"
    )
    assert (code, out) == (1, "")
    assert err == "error: verify checks the laws in exact mode only; run it without --float\n"


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "classify", "does-not-exist.game")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
def test_no_command_builds_a_view(capsys, monkeypatch, tmp_path, mode):
    # views (Game.payoffs, MeasureVector.weights and the like) exist for
    # callers: every command computes and writes from the stored shared form
    built = []
    values = _Shared.values

    def counting_values(self):
        built.append(self.num.shape)
        return values(self)

    monkeypatch.setattr(_Shared, "values", counting_values)
    mp, parts, extended = FIXTURES / "mp.game", tmp_path / "parts", tmp_path / "extended.game"
    runs = [
        ["decompose", mp],
        ["decompose", mp, "--mu", "1,2;3,1", "--gamma", "gen:1,2;2,1"],
        ["decompose", mp, "--mu", "1,2;3,1", "--gamma", "1,3;2,1", "--out", parts],
        ["classify", mp],
        ["closest-potential", FIXTURES / "multi.game"],
        ["check-eq", mp, "--profile", "uniform"],
        ["transform", mp, "--op", "permute", "--player", "1", "--sigma", "1,0"],
        ["transform", mp, "--op", "scale", "--beta", "gen:2,1;1,3"],
        ["transform", mp, "--op", "translate", "--ns", parts / "nonstrategic.game"],
        ["transform", mp, "--op", "extend", "--player", "2", "--source", "s", "--label", "u",
         "--out", extended],
        ["transform", extended, "--op", "reduce", "--player", "2", "--s0", "u", "--s1", "s"],
        ["transform", FIXTURES / "redscale.game", "--op", "reduce-redundant", "--player", "1",
         "--s0", "r", "--alpha", "1/3,2/3"],
    ]
    if not mode:  # the law suite runs in exact mode only
        runs.append(["verify", "all", "--trials", "30", "--seed", "7"])
    for argv in runs:
        assert main([*mode, *map(str, argv)]) == 0, argv
        assert built == [], argv
    assert capsys.readouterr().err == ""
