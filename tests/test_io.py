import json
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losnet import (
    AdsInstance,
    Solution,
    ValidationError,
    load_ads,
    load_instance,
    parse_ads,
    parse_instance,
    serialize_ads,
    serialize_instance,
    solution_to_json,
)
from losnet import LosInstance
from losnet.io import (
    content_lines,
    load_solution,
    parse_solution_json,
    parse_vertex_line,
    parse_weight,
    read_losn_header,
)
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
    """What ``parse_weight`` returns for a token: ``Fraction(token)`` for an
    ASCII token without ``_`` whose numerator and denominator have at most
    4300 digits, else the refusal message (also when ``Fraction`` refuses
    the token)."""
    try:
        if token.isascii() and "_" not in token:
            value = Fraction(token)
            if max(abs(value.numerator), value.denominator) < 10**4300:
                return value
    except (ValueError, ZeroDivisionError):
        pass
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
        assert isinstance(got, Rational) and got == expected


@pytest.mark.parametrize(
    "token, value",
    [
        ("007", 7),
        ("0", 0),  # parses; the instance refuses a weight that is not positive
        ("-0", 0),
        ("+3", 3),
        ("1e3", 1000),
        ("3/4", Fraction(3, 4)),
        # 4300 digits, the most ``str`` prints
        pytest.param("1e4299", 10**4299, id="1e4299"),
        pytest.param("1e-4299", Fraction(1, 10**4299), id="1e-4299"),
        pytest.param("9" * 4300, 10**4300 - 1, id="4300-nines"),
    ],
)
def test_weight_grammar_accepts(token, value):
    got = parse_weight(token)
    assert isinstance(got, Rational) and got == value


@pytest.mark.parametrize(
    "token",
    [
        "3/0",
        "nan",
        "\u00b2",  # "²"
        "\u0661",  # ARABIC-INDIC DIGIT ONE: Fraction takes Unicode digits
        "1_0",  # and digits grouped by "_"
        "1e5000",  # more digits than ``str`` prints
        pytest.param("1" + "0" * 4300, id="10**4300"),
        "1e-5000",
        "1e1000000",  # refused from its exponent, before 10**1000000 is built
    ],
)
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
        pytest.param("[" * 100000 + "]" * 100000, "JSON", id="deeply-nested"),
    ],
)
def test_solution_json_malformed_refused(text, match):
    with pytest.raises(ValidationError, match=match):
        parse_solution_json(text)


LOSN_HEAD = "losn v1\nd=2 omega=3 extents=4,3\n"
ADS_HEAD = "ads v1\nclients=2 times=3 omega=2 l=1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (LOSN_HEAD + "v \u0661 1 1e3\n", "bad coordinates in 'v \u0661 1 1e3'"),
        (LOSN_HEAD + "v 1_0 1 1\n", "bad coordinates in 'v 1_0 1 1'"),
        (LOSN_HEAD + "v 1 1 1_0\n", "bad weight '1_0'"),
        (LOSN_HEAD + "v 1 1 \u0661\n", "bad weight '\u0661'"),
        ("losn v1\nd=\u0662 omega=3 extents=4,3\n", "bad losn header"),
        ("losn v1\nd=2 omega=3 extents=4,1_0\n", "bad losn header"),
        ("ads v1\nclients=\u0661 times=3 omega=2 l=1\na 111\n", "bad ads header"),
        ("ads v1\nclients=1 times=3 omega=2 l=1_0\na 111\n", "bad ads header"),
        (ADS_HEAD + "a 111\na 111\nw 1_0 1 2\n", "bad weight line"),
        (ADS_HEAD + "a 111\na 111\nw 1 \u0661 2\n", "bad weight line"),
        (ADS_HEAD + "a 111\na 111\nw 1 1 \u0662\n", "bad weight"),
    ],
    ids=[
        "losn-coord-digit",
        "losn-coord-underscore",
        "losn-weight-underscore",
        "losn-weight-digit",
        "losn-header-digit",
        "losn-header-underscore",
        "ads-header-digit",
        "ads-header-underscore",
        "ads-field-underscore",
        "ads-field-digit",
        "ads-weight-digit",
    ],
)
def test_file_numbers_are_ascii(text, message):
    parse = parse_ads if text.startswith("ads") else parse_instance
    with pytest.raises(ValidationError) as info:
        parse(text)
    assert str(info.value).startswith(message)


def test_file_numbers_keep_signs_decimals_and_exponents():
    inst = parse_instance(LOSN_HEAD + "v +1 1 1e3\nv 4 +3 2.5e-1\n")
    assert inst.vertices == {(1, 1): 1000, (4, 3): Fraction(1, 4)}
    ads = parse_ads(ADS_HEAD + "a 111\na 111\nw +2 3 5/2\n")
    assert ads.weights[(2, 3)] == Fraction(5, 2)


NOT_UTF8 = b"\xff\xfelosn v1\n"


@pytest.mark.parametrize("load", [load_instance, load_ads, load_solution])
def test_undecodable_file_refused(tmp_path, load):
    path = tmp_path / "bin"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(ValidationError) as info:
        load(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"


# Arbitrary text, and arbitrary lines after a valid header or parameter line.
def _after(*heads):
    return st.one_of(st.text(), *(st.text().map(lambda t, h=h: h + t) for h in heads))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=6,
)
SOLUTION_LIKE = st.fixed_dictionaries(
    {"algorithm": JSON_VALUES, "weight": JSON_VALUES, "vertices": JSON_VALUES},
    optional={"meta": JSON_VALUES},
)


@pytest.mark.parametrize(
    "parse, texts",
    [
        (parse_instance, _after("losn v1\n", LOSN_HEAD)),
        (parse_ads, _after("ads v1\n", ADS_HEAD)),
        (
            parse_solution_json,
            st.one_of(
                st.text(),
                JSON_VALUES.map(json.dumps),
                SOLUTION_LIKE.map(json.dumps),
            ),
        ),
    ],
    ids=["losn", "ads", "solution"],
)
def test_parsers_raise_only_validation_error(parse, texts):
    @given(texts)
    @settings(max_examples=100, deadline=None)
    def check(text):
        try:
            parse(text)
        except ValidationError:
            pass

    check()


def _instance_line_by_line(text: str):
    """``parse_instance`` as it read a file before its bulk reader: every
    vertex line through ``parse_vertex_line``, then ``LosInstance``'s
    checks.  (The weight-sum bound is left out: no drawn sum reaches it.)"""
    lines = content_lines(text.splitlines())
    params = read_losn_header(lines)
    cells = {}
    for line in lines:
        coords, w = parse_vertex_line(line, params)
        if coords in cells:
            raise ValidationError(f"duplicate vertex at {coords}")
        cells[coords] = w
    return LosInstance(params, cells)


def _outcome(parse, text):
    try:
        inst = parse(text)
    except ValidationError as exc:
        return str(exc)
    return [(c, w, type(w)) for c, w in inst.vertices.items()]


_COORD = st.sampled_from(["1", "2", "3", "4", "+2", "-1", "02", "x", "1_0", "\u0661"])
_WEIGHT = st.sampled_from(
    ["1", "3", "007", "0", "-2", "+4", "5/2", "2.5", "1e1", "x", "1_0", "\u0662",
     "9" * 4301, "0" * 4300 + "7"]
)
_VERTEX_LINE = st.tuples(_COORD, _COORD, _WEIGHT).map(lambda t: "v " + " ".join(t))
_OTHER_LINE = st.sampled_from(["# a comment", "# \u00e4_x", "", "v 1 2", "w 1 1 1"])


@given(st.lists(st.one_of(_VERTEX_LINE, _VERTEX_LINE, _OTHER_LINE), max_size=8))
@settings(max_examples=300, deadline=None)
def test_bulk_vertex_reader_matches_line_by_line(lines):
    text = "losn v1\nd=2 omega=2 extents=4,3\n" + "".join(f"{l}\n" for l in lines)
    assert _outcome(parse_instance, text) == _outcome(_instance_line_by_line, text)
