import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "ab_pairs.py"

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}


def _tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(name, parent, change):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def _verdict(metric, parent, change, claim=None):
    (row,) = _tool().summarize(_pairs(metric["name"], parent, change), [metric], claim)
    return row


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_iqr():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    row = _verdict(OPS, parent, [v + 10 for v in parent], "ops_per_s")
    assert (row["wins"], row["pairs"], row["verdict"]) == (10, 10, "claim met")
    assert row["parent"] == (99.25, 100.0, 100.75) and row["parent_iqr"] == 1.5
    assert abs(row["change_vs_parent"] - 0.10) < 1e-12
    # 8 of 10 pairs won is too few, however large the gap
    change = [v + 10 for v in parent[:8]] + [v - 1 for v in parent[8:]]
    assert _verdict(OPS, parent, change, "ops_per_s")["verdict"] == "claim not met"
    # every pair won, but the medians differ by less than the parent's IQR
    assert _verdict(OPS, parent, [v + 1 for v in parent], "ops_per_s")["verdict"] == "claim not met"


def test_ties_count_for_neither_side():
    row = _verdict(OPS, [100] * 10, [100] * 9 + [101], "ops_per_s")
    assert row["wins"] == 1 and row["verdict"] == "claim not met"


def test_other_metrics_are_held_to_their_bound_in_their_direction():
    parent = [50.0, 50.5, 49.5, 50.0, 50.2]
    # peak RSS is better lower: +5% is within its 10% bound, +12% is not
    assert _verdict(RSS, parent, [v * 1.05 for v in parent])["verdict"] == "not worse"
    assert _verdict(RSS, parent, [v * 1.12 for v in parent])["verdict"] == "worse"
    assert _verdict(RSS, parent, [v * 0.8 for v in parent])["verdict"] == "not worse"
    # ops/s is better higher: -30% is past its 25% bound
    assert _verdict(OPS, parent, [v * 0.7 for v in parent])["verdict"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [40.0, 50.0, 60.0, 45.0, 55.0]  # IQR 10 on a median of 50: past 10%
    assert _verdict(RSS, parent, [52.0, 48.0, 50.0, 51.0, 49.0])["verdict"] == "unresolved"
    assert _verdict(RSS, parent, [30.0, 35.0, 38.0, 32.0, 36.0])["verdict"] == "better"


def test_a_claim_needs_ten_pairs_however_clear_the_gain():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99]
    row = _verdict(OPS, parent, [v + 10 for v in parent], "ops_per_s")
    assert (row["wins"], row["pairs"], row["verdict"]) == (9, 9, "too few pairs")


def test_one_pair_has_its_value_for_every_quartile():
    assert _tool().quartiles([3.0]) == (3.0, 3.0, 3.0)
    row = _verdict(OPS, [100.0], [110.0], "ops_per_s")
    assert row["parent"] == (100.0, 100.0, 100.0) and row["verdict"] == "too few pairs"
