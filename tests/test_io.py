from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losnet import (
    AdsInstance,
    Solution,
    ValidationError,
    parse_ads,
    parse_instance,
    serialize_ads,
    serialize_instance,
    solution_to_json,
)
from losnet.io import content_lines, load_solution, parse_solution_json, parse_weight
from conftest import make_inst, small_instances


def test_weight_tokens():
    assert parse_weight("3") == 3
    assert parse_weight("5/2") == Fraction(5, 2)
    assert parse_weight("2.5") == Fraction(5, 2)
    with pytest.raises(ValidationError):
        parse_weight("abc")
    with pytest.raises(ValidationError):
        parse_weight("1/0")


def _fraction_or_refusal(token: str):
    """What ``parse_weight`` has always returned for a token: ``Fraction(token)``,
    or the refusal message when ``Fraction`` refuses it."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return f"bad weight {token!r}"


@given(st.one_of(st.from_regex(r"0*[0-9]{1,40}", fullmatch=True), st.text()))
@settings(max_examples=300)
def test_parse_weight_reads_tokens_as_fraction_does(token):
    expected = _fraction_or_refusal(token)
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as info:
            parse_weight(token)
        assert str(info.value) == expected
    else:
        got = parse_weight(token)
        assert type(got) is Fraction and got == expected


@pytest.mark.parametrize(
    "token, value",
    [
        ("007", 7),
        ("0", 0),  # parses; the instance refuses a weight that is not positive
        ("-0", 0),
        ("+3", 3),
        ("\u0661", 1),  # ARABIC-INDIC DIGIT ONE: Fraction takes Unicode digits
        ("1e3", 1000),
        ("3/4", Fraction(3, 4)),
    ],
)
def test_weight_grammar_accepts(token, value):
    got = parse_weight(token)
    assert type(got) is Fraction and got == value


@pytest.mark.parametrize("token", ["3/0", "nan", "\u00b2"])  # "\u00b2" is "²"
def test_weight_grammar_refuses(token):
    with pytest.raises(ValidationError) as info:
        parse_weight(token)
    assert str(info.value) == f"bad weight {token!r}"


@pytest.mark.parametrize(
    "lines, message",
    [
        # Line-level faults come first, in file order, ahead of any cell check.
        (["v 1 1 0", "v 2 1 x"], "bad weight 'x'"),
        (["v 9 1 0", "v 1 1 1", "v 1 1 2"], "duplicate vertex at (1, 1)"),
        # Then each cell in file order: its weight, then its box.
        (["v 9 1 0", "v 1 1 -1"], "vertex weight must be positive, got 0 at (9, 1)"),
        (["v 9 1 1", "v 1 1 0"], "coordinates (9, 1) outside box extents=(4, 2)"),
        (
            ["v 1 1 1", "v 2 1 -1/2", "v 9 1 1"],
            "vertex weight must be positive, got -1/2 at (2, 1)",
        ),
    ],
)
def test_losn_refusal_order(lines, message):
    text = "losn v1\nd=2 omega=2 extents=4,2\n" + "".join(f"{l}\n" for l in lines)
    with pytest.raises(ValidationError) as info:
        parse_instance(text)
    assert str(info.value) == message


def test_losn_layout_and_sorting():
    inst = make_inst((4, 2), 2, {(3, 1): Fraction(5, 2), (1, 2): 1, (1, 1): 2})
    text = serialize_instance(inst)
    assert text.splitlines() == [
        "losn v1",
        "d=2 omega=2 extents=4,2",
        "v 1 1 2",
        "v 1 2 1",
        "v 3 1 5/2",
    ]


def test_losn_comments_and_blanks_skipped():
    text = (
        "losn v1\n"
        "# a comment\n"
        "d=2 omega=3 extents=5,2\n"
        "\n"
        "v 2 1 1\n"
        "# trailing comment\n"
    )
    inst = parse_instance(text)
    assert len(inst) == 1
    assert inst.weight_of((2, 1)) == 1


def test_content_lines_strip_and_skip():
    lines = [" losn v1 \n", "\n", "   \n", "  # note\n", "#\n", "\tv 1 1 1\n"]
    assert list(content_lines(lines)) == ["losn v1", "v 1 1 1"]


def test_ads_comments_and_blanks_skipped():
    text = "# head\nads v1\n\nclients=1 times=2 omega=2 l=1\n  # c\na 10\n"
    ads = parse_ads(text)
    assert ads.available == ((1, 0),)


@given(small_instances())
@settings(max_examples=60)
def test_losn_roundtrip(inst):
    assert parse_instance(serialize_instance(inst)) == inst


def test_losn_errors():
    with pytest.raises(ValidationError, match="first line"):
        parse_instance("nope\n")
    with pytest.raises(ValidationError, match="parameter line"):
        parse_instance("losn v1\n")
    with pytest.raises(ValidationError, match="header"):
        parse_instance("losn v1\nd=2 extents=4,2\n")
    with pytest.raises(ValidationError, match="vertex line"):
        parse_instance("losn v1\nd=2 omega=2 extents=4,2\nv 1 1\n")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_instance(
            "losn v1\nd=2 omega=2 extents=4,2\nv 1 1 1\nv 1 1 2\n"
        )
    with pytest.raises(ValidationError, match="outside box"):
        parse_instance("losn v1\nd=2 omega=2 extents=4,2\nv 9 1 1\n")


def test_ads_roundtrip():
    ads = AdsInstance(
        2,
        4,
        2,
        1,
        ((1, 1, 1, 1), (1, 0, 1, 1)),
        {(1, 2): Fraction(5, 2)},
    )
    text = serialize_ads(ads)
    assert text.splitlines()[0] == "ads v1"
    back = parse_ads(text)
    assert back == ads


def test_ads_errors():
    with pytest.raises(ValidationError, match="first line"):
        parse_ads("losn v1\n")
    with pytest.raises(ValidationError, match="0/1"):
        parse_ads("ads v1\nclients=1 times=3 omega=2 l=1\na 102\n")
    with pytest.raises(ValidationError, match="1x3"):
        parse_ads("ads v1\nclients=1 times=3 omega=2 l=1\na 10\n")


def test_solution_json_roundtrip_and_key_order():
    sol = Solution(
        "exact-narrow",
        ((1, 1), (4, 2)),
        Fraction(7, 2),
        {"n": 4, "rows": 2},
    )
    text = solution_to_json(sol)
    assert text.index('"algorithm"') < text.index('"weight"') < text.index(
        '"vertices"'
    ) < text.index('"meta"')
    back = parse_solution_json(text)
    assert back == sol


def test_solution_json_float_field():
    sol = Solution("brute", ((1, 1),), Fraction(5, 2), {})
    text = solution_to_json(sol, with_float=True)
    assert '"weight_float": 2.5' in text


def test_solution_json_errors(tmp_path):
    with pytest.raises(ValidationError, match="missing"):
        parse_solution_json('{"algorithm": "x"}')
    with pytest.raises(ValidationError, match="JSON"):
        parse_solution_json("{")
    p = tmp_path / "sol.json"
    p.write_text('{"algorithm": "x", "weight": "3", "vertices": [[1, 1]]}')
    assert load_solution(p).total_weight == 3


@pytest.mark.parametrize(
    "text, match",
    [
        ('"x"', "object"),
        ('{"algorithm": "x", "weight": "1", "vertices": {"a": 1}}', "list"),
        ('{"algorithm": "x", "weight": "1", "vertices": [[1], 2]}', "list"),
        ('{"algorithm": "x", "weight": "1", "vertices": [["1", 2]]}', "integer"),
        ('{"algorithm": "x", "weight": "1", "vertices": [[true, 2]]}', "integer"),
        ('{"algorithm": "x", "weight": "1", "vertices": [], "meta": [1]}', "meta"),
    ],
)
def test_solution_json_malformed_refused(text, match):
    with pytest.raises(ValidationError, match=match):
        parse_solution_json(text)
