"""The indented-JSON writer against ``json.dumps``, byte for byte: generated
values, every shipped report, a 256-state ring's report and every object
the CLI writes through it."""
import collections
import enum
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmguard import (
    OutcomeRecord,
    Provenance,
    RuleConfig,
    SourceText,
    VulnClass,
    compute_metrics,
    mitigate,
    parse_source,
    plan_injection,
    remove_default_arm,
    run_all_checks,
    sanitize_identifiers,
)
from fsmguard.jsontext import dumps_indented

from conftest import DESIGNS, FIXTURES, design_ast, design_source


def assert_same(obj, sort_keys=False):
    assert dumps_indented(obj, sort_keys) == json.dumps(obj, indent=2, sort_keys=sort_keys)


SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2 ** 100, max_value=2 ** 100) | st.floats()
           | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, float("nan"), float("inf"), -float("inf")])
           | st.text() | st.text(st.sampled_from("\x00\x1f\"\\/\n\té \U0001f600a")))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=20)


@settings(max_examples=120, deadline=None)
@given(VALUES, st.booleans())
def test_generated_values_match(obj, sort_keys):
    assert_same(obj, sort_keys)


class Color(enum.IntEnum):
    RED = 1


class Name(str):
    pass


@pytest.mark.parametrize("obj", [
    {1, 2}, object(), b"bytes", [1, {"a": {2}}], {(1, 2): 3}, {"a": [1, 2, object()]},
    ["a", "b", b"c"], [1, 2, float],
])
def test_what_json_rejects_raises_type_error(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        dumps_indented(obj)


@pytest.mark.parametrize("obj", [
    {1: "a"}, {"a": {None: 1}}, [Color.RED], {"a": [Name("x")]}, Name("x"),
    collections.OrderedDict(a=1),
])
def test_values_not_of_the_exact_json_types_raise_type_error(obj):
    """json.dumps writes these; no report holds one, and the writer refuses them."""
    json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        dumps_indented(obj)


def test_sorting_keys_of_mixed_types_raises_type_error():
    with pytest.raises(TypeError):
        json.dumps({1: 2, "a": 3}, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dumps_indented({1: 2, "a": 3}, sort_keys=True)


def _sources():
    for path in sorted(DESIGNS.glob("*.v")) + sorted(FIXTURES.glob("*.v")):
        yield SourceText(path.read_text(encoding="utf-8"), origin=path.name)


def test_every_shipped_report_matches():
    """FIF off and on, with no protected state and with each state in turn."""
    for src in _sources():
        ast = parse_source(src).ast
        names = ast.param_names if ast is not None else []
        for protected in [frozenset()] + [frozenset({n}) for n in names]:
            for fif in (False, True):
                report = run_all_checks(src, protected, RuleConfig(fif=fif))
                assert report.to_json_text() == json.dumps(report.to_json(), indent=2) + "\n"


def _ring(n: int, rng: random.Random) -> SourceText:
    """n states in a ring on go0 with a seeded chord on go1, a default arm,
    and twice as many codes as states."""
    width = (n - 1).bit_length() + 1
    codes = rng.sample(range(1 << width), n)
    lines = ["module ring (input clk, input reset, input go0, input go1, output reg busy);"]
    lines += [f"parameter S{i} = {width}'b{c:0{width}b};" for i, c in enumerate(codes)]
    lines += [f"reg [{width - 1}:0] current_state;", f"reg [{width - 1}:0] next_state;",
              "always @(posedge clk or posedge reset) begin",
              "if (reset) current_state <= S0; else current_state <= next_state;", "end",
              "always @(*) begin", "case (current_state)"]
    for i in range(n):
        chord = (i + 2 + rng.randrange(n - 2)) % n
        lines += [f"S{i}: begin busy = 1; next_state = S{i};",
                  f"if (go0) next_state = S{(i + 1) % n}; else if (go1) next_state = S{chord};",
                  "end"]
    lines += ["default: begin busy = 0; next_state = S0; end", "endcase", "end", "endmodule"]
    return SourceText("\n".join(lines) + "\n")


def test_ring_report_matches():
    src = _ring(256, random.Random(7))
    report = run_all_checks(src, frozenset({"S3"}), RuleConfig(fif=True))
    assert len(report.violations) > 256
    assert report.to_json_text() == json.dumps(report.to_json(), indent=2) + "\n"


def test_every_cli_object_matches():
    """The inject plan, the mitigate report, the sanitize map (keys sorted)
    and the score report, as the CLI writes them."""
    vending = design_ast("vending")
    for vuln in VulnClass:
        if vuln is VulnClass.MISSING_DEFAULT:
            _, plan = remove_default_arm(vending)
        else:
            _, plan = plan_injection(vuln, vending, seed=3)
        assert_same(plan.to_json())
    src = design_source("aes_ctrl")
    config = RuleConfig(fif=True)
    outcome = mitigate(src, run_all_checks(src, {"WAIT_KEY"}, config), rule_config=config)
    assert_same(outcome.to_json())
    trojan = parse_source(SourceText.from_file(FIXTURES / "trojan_unit.v")).expect_ast()
    assert_same(sanitize_identifiers(trojan, seed=3).to_json(), sort_keys=True)
    records = [OutcomeRecord(task="detection", label=label, success=i % 3 != 0,
                             temperature=(i % 4) / 10)
               for i, label in enumerate(["STATIC_DEADLOCK", "MISSING_DEFAULT"] * 6)]
    report = compute_metrics(records, Provenance(config_hash="c0ffee", seeds=(1, 2),
                                                 provider="mock"))
    assert report.to_json_text() == json.dumps(report.to_json(), indent=2) + "\n"
