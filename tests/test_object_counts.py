import importlib.util
from pathlib import Path

from gamedecomp import GameDocument, decomposition, parse_game, serialize_game
from gamedecomp.cli import main
from test_cli import _seeded_2x6
from test_plans import CALL_CAPS, PARSE_CALL_CAPS, _calls, seeded

TOOL = Path(__file__).parent.parent / "tools" / "object_counts.py"


def _tool():
    spec = importlib.util.spec_from_file_location("object_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_object_counts_measure_the_game_the_caps_are_set_on(tmp_path, capsys, count_fractions):
    tool = _tool()
    path = tool.seeded_2x6(tmp_path / "tool.game")
    expected, _ = _seeded_2x6(tmp_path)
    assert path.read_bytes() == expected.read_bytes()
    fractions, objects, checks, views = tool.count(["classify", str(path)])
    assert capsys.readouterr().out == ""  # the tool discards the command's output
    code, counted = count_fractions(main, ["classify", str(path)])
    assert code == 0
    assert fractions == counted
    assert objects == 3  # the game, mu and gamma: is_harmonic keeps h in shared form
    assert checks == 3
    assert views == 0  # the command computes and writes from the stored form


def test_object_counts_print_the_decompose_calls_the_guard_caps():
    # the tool's last row is the count the call-count guard caps on 2^6
    tool = _tool()
    drawn, guarded = tool.seeded_2x6_objects(), seeded((2,) * 6)
    assert all(a == b for a, b in zip(drawn, guarded))
    calls = tool.calls(decomposition.decompose, *drawn)
    assert calls == _calls(decomposition.decompose, *guarded)[1]
    assert calls <= CALL_CAPS[(2,) * 6]


def test_object_counts_print_the_parse_calls_the_guard_caps(capsys):
    # the tool's parse rows are the counts the parse guard caps on 2^6
    _tool().main()
    out = capsys.readouterr().out
    text = serialize_game(GameDocument(*seeded((2,) * 6)))
    for mode, exact in (("exact", True), ("float", False)):
        calls = _calls(parse_game, text, exact)[1]
        assert calls <= PARSE_CALL_CAPS[exact]
        assert f"{calls:6d} calls of {mode} parse_game() of the 2^6 document\n" in out
