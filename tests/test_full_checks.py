"""The trusted builds, under the full check.

Objects that internal kernels build from checked inputs (decomposition
parts, carried games, parameter updates, law draws) store without running
their type's ``_check``.  The ``full_checks`` fixture runs it on every
object anyway, and these tests replay the CLI digests, the golden digests
and the hypothesis properties under it: a kernel that builds an object
breaking an invariant of its type fails here.
"""

import functools

import pytest

import test_decomposition
import test_equilibrium
import test_float_mode
import test_gamedoc
import test_output_digests
import test_transforms
from conftest import FIXTURES, load_fixture
from gamedecomp.cli import main


def test_verify_all_under_full_checks(full_checks, capsys):
    # verify all --trials 30 at seeds 1, 7 and 11
    test_output_digests.test_verify_all_output_matches_digest(capsys)


def test_fixture_commands_under_full_checks(full_checks, capsys):
    # every fixture through decompose, classify and closest-potential, both modes
    test_output_digests.test_fixture_outputs_match_digest(capsys)


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
def test_fixture_transforms_under_full_checks(full_checks, capsys, tmp_path, mode):
    # every fixture through each transform that applies to any game: a
    # permutation, a scaling, a translation by its own nonstrategic part,
    # a duplication and the reduction that undoes it
    for path in sorted(FIXTURES.glob("*.game")):
        space = load_fixture(path.name).space
        parts, extended = tmp_path / path.stem, tmp_path / f"{path.stem}-extended.game"
        sigma = ",".join(str(k) for k in reversed(range(space.sizes[0])))
        beta = ";".join(",".join(["2"] * m) for m in space.sizes)
        first = space.labels[0][0]
        runs = [
            ["decompose", path, "--out", parts],
            ["transform", path, "--op", "permute", "--player", "1", "--sigma", sigma],
            ["transform", path, "--op", "scale", "--beta", f"gen:{beta}"],
            ["transform", path, "--op", "translate", "--ns", parts / "nonstrategic.game"],
            ["transform", path, "--op", "extend", "--player", "1", "--source", first,
             "--label", "copy", "--out", extended],
            ["transform", extended, "--op", "reduce", "--player", "1", "--s0", "copy",
             "--s1", first],
        ]
        for argv in runs:
            assert main([*mode, *map(str, argv)]) == 0, (path.name, argv)
        assert capsys.readouterr().err == ""


def test_golden_digests_under_full_checks(full_checks):
    test_decomposition.test_decompositions_match_golden_digest()
    test_decomposition.test_operators_and_float_parts_match_golden_digest()
    test_transforms.test_transform_outputs_match_golden_digest()


# the hypothesis properties that build games, fields, measures, co-measures
# or profiles; those of test_scalars and test_spaces build none
PROPERTIES = {
    "games_keep_a_current_shared_form": test_decomposition.test_games_keep_a_current_shared_form,
    "game_storage": test_decomposition.test_game_storage_keeps_its_public_behaviour,
    "equilibrium_oracle": test_equilibrium.test_equilibrium_checks_match_the_fraction_oracle,
    "float_agrees_with_exact": test_float_mode.test_float_decompose_agrees_with_exact_property,
    "parameter_storage": test_transforms.test_parameter_storage_keeps_its_public_behaviour,
    **{
        f"{name}[{mode}]": functools.partial(prop, exact=exact)
        for name, prop in [
            ("mutated_fixtures", test_gamedoc.test_mutated_fixtures_raise_only_parse_errors),
            ("gamedoc_roundtrip", test_gamedoc.test_roundtrip_property),
        ]
        for mode, exact in [("exact", True), ("float", False)]
    },
}


@pytest.mark.parametrize("prop", PROPERTIES.values(), ids=PROPERTIES.keys())
def test_hypothesis_properties_under_full_checks(full_checks, prop):
    prop()
