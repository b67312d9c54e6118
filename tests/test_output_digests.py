"""Byte-level guards on CLI output: every fixture through decompose, classify
and closest-potential in both scalar modes, every named profile of every
fixture through check-eq in both scalar modes, and the law suite at fixed
seeds.

The digests pin stdout exactly, so any refactor of the decomposition, the
report or the bounds must leave every printed byte unchanged.
"""

import hashlib

from gamedecomp.cli import main
from conftest import FIXTURES, load_fixture

COMMANDS = ("decompose", "classify", "closest-potential")
FIXTURE_OUTPUT_DIGEST = "ea6a1695ad26784c5d3b19ee29dff1922b2dc20670d4dca817ac3ff7dae52e15"
CHECK_EQ_OUTPUT_DIGEST = "f976524aa58a4a7cce9126a5713288b399969a2db622bea41e95b072874969ea"
VERIFY_OUTPUT_DIGEST = "754085b9c9c6de3a5dd7297f93fc485a990707ab7e046b9f7fb38ef600d6956e"


def _stdout(capsys, argv) -> bytes:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0, argv
    return out.encode()


def test_fixture_outputs_match_digest(capsys):
    fixtures = sorted(FIXTURES.glob("*.game"))
    assert len(fixtures) == 10
    digest = hashlib.sha256()
    for path in fixtures:
        for mode in ([], ["--float"]):
            for command in COMMANDS:
                argv = [*mode, command, path]
                digest.update(f"{path.name} {' '.join(map(str, argv[:-1]))}\n".encode())
                digest.update(_stdout(capsys, argv) + b"\0")
    assert digest.hexdigest() == FIXTURE_OUTPUT_DIGEST


def test_check_eq_outputs_match_digest(capsys):
    # pins the float epsilon bit for bit: check-eq prints its repr
    digest = hashlib.sha256()
    calls = 0
    for path in sorted(FIXTURES.glob("*.game")):
        for name in sorted(load_fixture(path.name).profiles):
            for mode in ([], ["--float"]):
                argv = [*mode, "check-eq", path, "--profile", name]
                digest.update(f"{path.name} {' '.join(map(str, argv[:-3]))} {name}\n".encode())
                digest.update(_stdout(capsys, argv) + b"\0")
                calls += 1
    assert calls == 12
    assert digest.hexdigest() == CHECK_EQ_OUTPUT_DIGEST


def test_verify_all_output_matches_digest(capsys):
    digest = hashlib.sha256()
    for seed in (1, 7, 11):
        digest.update(f"seed {seed}\n".encode())
        digest.update(_stdout(capsys, ["verify", "all", "--trials", "30", "--seed", seed]) + b"\0")
    assert digest.hexdigest() == VERIFY_OUTPUT_DIGEST
