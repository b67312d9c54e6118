from fractions import Fraction as F

import pytest

from gamedecomp import decomposition, laws, parse_game
from gamedecomp.cli import main
from conftest import FIXTURES


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
    assert "no profile named" in err

    code, out, _ = run(
        capsys, "check-eq", FIXTURES / "mp-dup.game", "--profile", "continuum-x-1-3"
    )
    assert "epsilon: 0" in out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--op", "extend", "--player", "5", "--source", "s", "--label", "t1"],
        ["--op", "extend", "--player", "0", "--source", "s", "--label", "t1"],
        ["--op", "extend", "--player", "1", "--source", "s", "--label", "t1", "--lam", "abc"],
        ["--op", "extend", "--player", "1", "--source", "s", "--label", "t1", "--lam", "1/0"],
        ["--op", "permute", "--player", "1", "--sigma", "a,b"],
        ["--op", "permute", "--player", "0", "--sigma", "1,0"],
        ["--op", "reduce-redundant", "--player", "1", "--s0", "s", "--alpha", "x"],
    ],
)
def test_transform_bad_arguments_fail_cleanly(capsys, argv):
    code, out, err = run(capsys, "transform", FIXTURES / "mp.game", *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


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
    ],
)
def test_verify_rejects_arguments_it_cannot_honour(capsys, argv):
    code, out, err = run(capsys, "verify", "all", *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "classify", "does-not-exist.game")
    assert code == 1
    assert "error" in err
