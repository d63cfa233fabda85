"""Reader/printer tests: atoms, lists, sugar, comments, errors, round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sexp.datum import Char, Dotted, Symbol, intern
from repro.sexp.printer import write_datum
from repro.sexp.reader import ReaderError, read, read_many


def rd(text):
    return read(text).strip()


class TestAtoms:
    def test_integers(self):
        assert rd("42") == 42
        assert rd("-7") == -7
        assert rd("+3") == 3

    def test_floats(self):
        assert rd("3.5") == 3.5
        assert rd("-0.25") == -0.25

    def test_symbols(self):
        assert rd("foo") is intern("foo")
        assert rd("list->string") is intern("list->string")
        assert rd("+") is intern("+")
        assert rd("-") is intern("-")
        assert rd("...") is intern("...")
        assert rd("1+") is intern("1+")

    def test_booleans(self):
        assert rd("#t") is True
        assert rd("#f") is False

    def test_strings(self):
        assert rd('"hello"') == "hello"
        assert rd('"a\\nb"') == "a\nb"
        assert rd('"say \\"hi\\""') == 'say "hi"'
        assert rd('""') == ""

    def test_chars(self):
        assert rd("#\\a") == Char("a")
        assert rd("#\\space") == Char(" ")
        assert rd("#\\newline") == Char("\n")
        assert rd("#\\(") == Char("(")


class TestLists:
    def test_simple(self):
        assert rd("(1 2 3)") == [1, 2, 3]

    def test_nested(self):
        assert rd("(a (b c) d)") == [intern("a"), [intern("b"), intern("c")], intern("d")]

    def test_brackets(self):
        assert rd("[1 2]") == [1, 2]
        assert rd("(cond [a b])") == [intern("cond"), [intern("a"), intern("b")]]

    def test_empty(self):
        assert rd("()") == []

    def test_dotted(self):
        d = rd("(1 . 2)")
        assert isinstance(d, Dotted)
        assert d.items == (1,) and d.tail == 2

    def test_dotted_multi(self):
        d = rd("(1 2 . 3)")
        assert d.items == (1, 2) and d.tail == 3

    def test_symbol_with_dots_is_not_dotted(self):
        assert rd("(a .b)") == [intern("a"), intern(".b")]


class TestSugar:
    def test_quote(self):
        assert rd("'x") == [intern("quote"), intern("x")]
        assert rd("'(1 2)") == [intern("quote"), [1, 2]]

    def test_quasiquote_unquote(self):
        assert rd("`(a ,b)") == [
            intern("quasiquote"),
            [intern("a"), [intern("unquote"), intern("b")]],
        ]

    def test_unquote_splicing(self):
        assert rd("`(,@xs)") == [
            intern("quasiquote"),
            [[intern("unquote-splicing"), intern("xs")]],
        ]


class TestComments:
    def test_line_comment(self):
        assert read_many("; hi\n42")[0].strip() == 42

    def test_block_comment(self):
        assert rd("#| anything (even ( |# 7") == 7

    def test_nested_block_comment(self):
        assert rd("#| a #| b |# c |# 9") == 9

    def test_datum_comment(self):
        assert rd("#;(skip me) 5") == 5

    def test_comment_inside_list(self):
        assert rd("(1 ; two\n 3)") == [1, 3]


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        ["(", ")", "(1 2", '"unterminated', "#\\", "(1 . )", "(. 2)",
         "(1 . 2 3)", "#| open", "(]"],
    )
    def test_malformed(self, bad):
        with pytest.raises(ReaderError):
            read_many(bad)

    def test_read_requires_exactly_one(self):
        with pytest.raises(ReaderError):
            read("1 2")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("(a\n  (b c)", "unterminated list at t.scm:1:0"),
            ('(x "abc', "unterminated string at t.scm:1:3"),
            ("a #| x #| y |#", "unterminated block comment at t.scm:1:2"),
            ("(a #\\", "unterminated character literal at t.scm:1:3"),
            ("(a\n b]", "mismatched bracket: expected ')', got ']' at t.scm:2:2"),
            ("(a . ", "missing datum after '.' at t.scm:1:0"),
            ("(1 . 2 3)", "expected close bracket after dotted tail at t.scm:1:0"),
            ("a\n )", "unexpected ')' at t.scm:2:1"),
        ],
    )
    def test_error_text(self, bad, message):
        with pytest.raises(ReaderError) as info:
            read_many(bad, "t.scm")
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", ['"abc\\', '(x\n  "abc\\'])
    def test_string_ending_in_lone_backslash(self, bad):
        with pytest.raises(ReaderError) as info:
            read_many(bad, "t.scm")
        line, col = (1, 0) if bad[0] == '"' else (2, 2)
        assert str(info.value) == f"unterminated string at t.scm:{line}:{col}"


class TestLocations:
    def test_line_and_column(self):
        forms = read_many("(a)\n  (b)")
        assert forms[0].loc.line == 1 and forms[0].loc.col == 0
        assert forms[1].loc.line == 2 and forms[1].loc.col == 2

    def test_atom_location(self):
        stx = read("(foo bar)")
        assert stx.datum[1].loc.col == 5


# Tokens for the location property: each separator starts with
# whitespace, so it ends the atom before it whatever comment follows.
_WHITESPACE = st.sampled_from([" ", "\t", "\n", "\r\n", "  \n\t"])
_COMMENT = st.sampled_from([
    "; a line comment\n", ";\n", "#| block |#", "#| a #| nested\n |# b |#",
    "#;skipped ", "#;(skip (me\n too)) ", '#;"str" ', "#;#| c |# x ",
])
_SEPARATOR = st.builds(lambda first, rest: first + "".join(rest),
                       _WHITESPACE, st.lists(st.one_of(_WHITESPACE, _COMMENT),
                                             max_size=3))
_ATOM_TEXT = st.sampled_from([
    "a", "foo", "x1", "42", "-7", "3.5", "+", "...", "#t", "#f",
    '"s"', '"a b\\n"', "#\\a", "#\\space",
])
_LAYOUT = st.recursive(
    _ATOM_TEXT,
    lambda inner: st.tuples(st.sampled_from(["()", "[]"]),
                            st.lists(st.tuples(_SEPARATOR, inner), max_size=4),
                            _SEPARATOR),
    max_leaves=12,
)


def _render(layout, out, starts):
    """Append ``layout``'s text to ``out``, recording each datum's start
    offset in pre-order."""
    starts.append(sum(map(len, out)))
    if isinstance(layout, str):
        out.append(layout)
        return
    brackets, children, trailing = layout
    out.append(brackets[0])
    for separator, child in children:
        out.append(separator)
        _render(child, out, starts)
    out.extend((trailing, brackets[1]))


def _locations(stx, out):
    out.append((stx.loc.line, stx.loc.col))
    if isinstance(stx.datum, list):
        for child in stx.datum:
            _locations(child, out)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_SEPARATOR, _LAYOUT), max_size=4), _SEPARATOR)
def test_locations_match_generated_offsets(forms, trailing):
    out, starts = [], []
    for separator, layout in forms:
        out.append(separator)
        _render(layout, out, starts)
    out.append(trailing)
    text = "".join(out)
    expected = [(text.count("\n", 0, pos) + 1,
                 pos - (text.rfind("\n", 0, pos) + 1)) for pos in starts]
    actual = []
    for stx in read_many(text, "t.scm"):
        assert stx.loc.source == "t.scm"
        _locations(stx, actual)
    assert actual == expected


# -- round trip ----------------------------------------------------------------

_atom = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    st.sampled_from([intern(n) for n in ("a", "foo", "x1", "+", "lambda")]),
    st.text(alphabet="abc XY", max_size=5),
    st.sampled_from([Char("a"), Char(" "), Char("\n"), Char("(")]),
)

_datum = st.recursive(_atom, lambda inner: st.lists(inner, max_size=4), max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_datum)
def test_print_read_roundtrip(datum):
    text = write_datum(datum)
    assert read(text).strip() == datum
