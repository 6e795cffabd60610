"""``tools/parity.py``: both sides on the working tree render every case
identically, and a change of a number, an error or a warning is reported
with its case id."""

import json
import math

import pytest

from oracles import parity_tool


@pytest.fixture(scope="module")
def parity():
    return parity_tool()


def test_working_tree_against_itself_is_identical(parity):
    # every 25th case of seed 1, and of each group's cases at least 3
    groups = {}
    for case in parity.build_cases(seeds=(1,)):
        groups.setdefault(case[0].split("/")[0], []).append(case)
    cases = [case for group in groups.values()
             for case in group[::min(25, len(group) // 3)]]
    assert {case_id.split("/")[0] for case_id, _, _ in cases} == {
        "report-mix", "sweep-grid", "sweep-dt", "sweep-rdu", "shared-blocks", "band",
        "ledger", "point-mass", "heavy-tail", "certification", "view"}
    old = parity.render_tree(parity.ROOT, cases)
    new = parity.render_tree(parity.ROOT, cases)
    assert any(out["error"] for out in old) and any(out["text"] for out in old)
    assert parity.compare(cases, old, new) == [f"identical: {len(cases)} of {len(cases)}"]


def test_weighted_sweeps_cross_b_with_gamma(parity):
    grid = parity._bench_inputs().sweep_grids(1)[0]
    for framework in ("dt", "rdu"):
        raw = parity._weighted_sweep(grid, framework)
        assert raw["framework"] == framework
        assert set(raw["sweep"]["axes"]) == {
            "distribution", "economics.phi", "preference.params.b",
            "weighting.params.gamma"}
    # one sweep of each renders, in 8 models x 2 phi x 4 b x 2 gamma rows
    cases = [case for case in parity.build_cases(seeds=(1,))
             if case[0] in ("sweep-dt/1/0", "sweep-rdu/1/0")]
    rendered = parity.render_tree(parity.ROOT, cases)
    assert [out["text"].count("\n") for out in rendered] == [1 + 128, 1 + 128]


def test_shared_block_sweeps_repeat_json_equal_values(parity):
    cases = parity._shared_block_cases()
    assert [case_id for case_id, _, _ in cases] == [
        "shared-blocks/eu", "shared-blocks/dt", "shared-blocks/rdu"]
    for _, _, raw in cases:
        axes = raw["sweep"]["axes"]
        assert {"distribution", "distribution.params.rate", "method"} < set(axes)
        for name, values in axes.items():
            if name != "method":
                assert values[2] == values[0] != values[1], name
    # each renders, in 3 models x 3 rates x 3 methods x 3 values of its
    # fourth axis
    rendered = parity.render_tree(parity.ROOT, cases)
    assert [out["text"].count("\n") for out in rendered] == [1 + 81] * 3


def test_band_group_covers_every_family(parity):
    cases = parity._band_cases()
    # 2 psi x (flanks at the band's ends or apart) x 5 utilities x
    # 3 weightings x 3 methods
    assert len(cases) == 2 * 2 * 5 * 3 * 3
    assert {raw["framework"] for _, _, raw in cases} == {"rdu"}
    assert {raw["preference"]["family"] for _, _, raw in cases} == {
        utility["family"] for utility in parity.UTILITIES}
    wanted = [f"band/0.3/flanks/{family}/{weighting}/exact"
              for family in ("power", "constant_prudence")
              for weighting in ("power", "inverse_s")]
    rendered = parity.render_tree(parity.ROOT, [case for case in cases
                                                if case[0] in wanted])
    # searched band premiums, above 0 under the convex power weighting and
    # below 0 under the inverse-S one at p0 0.35
    premiums = [json.loads(out["text"])["results"]["premium_exact"] for out in rendered]
    assert [premium > 0 for premium in premiums] == [True, False, True, False]


def test_point_mass_grid_covers_every_family(parity):
    cases = parity._point_mass_cases()
    # 4 values x 5 utilities x (EU + 3 DT + 3 RDU weightings) x 2 phi x 3 methods
    assert len(cases) == 4 * 5 * 7 * 2 * 3
    assert {raw["distribution"]["params"]["value"] for _, _, raw in cases} == {
        0.0, 1.0, 2.5, 1e-300}


def test_heavy_tail_grid_reaches_far_certainty_equivalents(parity):
    cases = parity._heavy_tail_cases()
    # 3 spreads x 2 utilities x (EU + RDU under 2 weightings) x 3 methods
    assert len(cases) == 3 * 2 * 3 * 3
    means = {math.exp(params["log_mean"] + 0.5 * params["log_sd"] ** 2)
             for params in (raw["distribution"]["params"] for _, _, raw in cases)}
    assert means == {1.0}
    rendered = parity.render_tree(parity.ROOT, [
        case for case in cases if case[0] == "heavy-tail/11.0/power/eu/exact"])
    # power(1.5)'s certainty equivalent is E[t^1.5]^(1/1.5) = exp(s^2 / 4),
    # about 1.4e13 at log_sd 11, against a first upper end of 2
    premium = json.loads(rendered[0]["text"])["results"]["premium_exact"]
    assert premium == pytest.approx(math.exp(121.0 / 4.0) - 1.0, rel=1e-8)


def test_certification_group_brackets_each_edge(parity):
    cases = parity._certification_cases()
    # 10 inverse-S and 3 power weightings under RDU, 3 utilities under EU
    assert len(cases) == 10 + 3 + 3
    wanted = ("certification/inverse_s/0.279203", "certification/inverse_s/0.2792043",
              "certification/constant_prudence/3.0/0.1/10.0")
    rendered = parity.render_tree(parity.ROOT, [case for case in cases if case[0] in wanted])
    # just below the inverse-S threshold, just above it, and a slope that
    # climbs above 0 at the interval's lower end
    assert [out["error"] for out in rendered] == [
        "ConfigError: weighting: inverse_s: weighting must be strictly increasing on (0, 1)",
        None,
        "ConfigError: preference: constant_prudence: utility is not non-increasing on "
        "[0.1, 10]"]


def test_view_grid_covers_every_function(parity):
    cases = parity._view_cases([(1, parity._bench_inputs().report_corpus(1))])
    grid = [raw for case_id, _, raw in cases if "/report-mix/" not in case_id]
    # 5 models x 5 utilities x (3 views without a context + 4 with one x
    # 2 phi x 2 methods + rdu_ratio x 3 weightings x 2 phi)
    assert len(grid) == 5 * 5 * (3 + 4 * 2 * 2 + 3 * 2)
    assert {raw["view"] for raw in grid} == set(parity.VIEWS)
    assert {raw["view"] for _, _, raw in cases[len(grid):]} == {"rdu_ratio"}
    rendered = parity.render_tree(parity.ROOT, [
        case for case in cases if case[0] in (
            "view/rdu_ratio/band-underflow/quadratic/power/1.0",
            "view/rdu_ratio/band-underflow/power/power/1.0",
            "view/ratio_rho/point-mass/1.0/affine/1.0/second_order")])
    # the sign of an affine point mass's zero, the underflowing band's rho,
    # and a band whose anchor t0 lies below the power utility's interval
    assert [(out["text"], out["error"]) for out in rendered] == [
        ('{"ratio_rho": -0.0}', None), ('{"rdu_ratio": 0.25}', None),
        (None, "ConfigError: preference: mean time 1e-200 lies outside the "
               "utility's interval [0.01, 1000]")]


def test_difference_fields_are_relative_to_their_larger_operand(parity):
    # a move of 2.5e-11 in the exact premium is 5e-11 of the premiums that
    # premium_abs_error is the difference of, not 2.5e-10 of the error
    old = [{"text": '{"premium_exact": 0.5, "premium_second_order": 0.4, '
                    '"premium_abs_error": 0.1}', "error": None, "warnings": []}]
    new = [{"text": '{"premium_exact": 0.500000000025, "premium_second_order": 0.4, '
                    '"premium_abs_error": 0.100000000025}', "error": None, "warnings": []}]
    lines = parity.compare([("a", "value", {})], old, new)
    assert [line.split(" (")[0] for line in lines] == [
        "identical: 0 of 1", "premium_abs_error: 5e-11", "premium_exact: 5e-11"]


def test_changes_are_reported_with_their_case(parity):
    cases = [("a", "value", {}), ("b", "value", {}), ("c", "value", {})]
    old = [{"text": '{"premium": 1.0, "rho": 2.0}', "error": None, "warnings": []},
           {"text": None, "error": "ZeroCostError: x", "warnings": []},
           {"text": "col\n1.5\n", "error": None, "warnings": []}]
    new = [{"text": '{"premium": 1.5, "rho": 2.0}', "error": None, "warnings": []},
           {"text": None, "error": "ValidationError: y", "warnings": ["W: z"]},
           dict(old[2])]
    assert parity.compare(cases, old, new) == [
        "identical: 1 of 3",
        "premium: 0.5 (1.0 -> 1.5) at a",
        "b: ZeroCostError: x [] -> ValidationError: y ['W: z']",
    ]
