import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import flowvol.cli
import flowvol.diffop
import flowvol.induction
import flowvol.oracle
import flowvol.polynomial
import flowvol.residue
from flowvol import MultiPoly, VolumePolynomial, canonical_order, iterated_residue, pde_system
from flowvol.residue import ResidueSum, ResidueTerm
from flowvol.polynomial import divided_powers
from flowvol.cli import ProblemSpec, SpecError, _parse_rational, parse_spec, render_spec, run_command
from flowvol.cli import EXIT_STDOUT_CLOSED, MAX_DEGREE, MAX_POINT_BITS, MAX_SPEC_CHARS, MAX_SUPPLY, main

GOLDEN_TEXT = "r=3; m[1,2]=1; m[1,3]=1; m[1,4]=2; m[2,3]=1; m[2,4]=2; m[3,4]=2"
GOLDEN_RENDER = (
    "1/360*a1^6 + 1/60*a1^5*a2 + 1/120*a1^5*a3 + 1/24*a1^4*a2^2 "
    "+ 1/24*a1^4*a2*a3 + 1/36*a1^3*a2^3 + 1/12*a1^3*a2^2*a3"
)


class TestParsing:
    def test_reference_spec(self):
        spec = parse_spec(GOLDEN_TEXT)
        assert spec == ProblemSpec(3, (1, 1, 2, 1, 2, 2))

    def test_minimal_spec(self):
        assert parse_spec("r=1; m[1,2]=1") == ProblemSpec(1, (1,))

    def test_whitespace_insensitive(self):
        spec = parse_spec("  r = 2 ;m[1,2] =1; m[ 1,3]=1 ;m[2,3]= 1; a=( 1 , 2/3 )")
        assert spec == ProblemSpec(2, (1, 1, 1), (Fraction(1), Fraction(2, 3)))

    @pytest.mark.parametrize("space", [" ", "\t", "\n", "\xa0", " \t\n\xa0"])
    def test_whitespace_between_tokens_parses_as_compact_text(self, space):
        spaced = " r = 2 ; m [ 1 , 2 ] = 1 ; m[1,3]=1 ; m[2,3]=1 ; a = ( 1/2 , 3 ) ".replace(" ", space)
        compact = "r=2;m[1,2]=1;m[1,3]=1;m[2,3]=1;a=(1/2,3)"
        assert parse_spec(spaced) == parse_spec(compact) == ProblemSpec(2, (1, 1, 1), (Fraction(1, 2), Fraction(3)))

    @pytest.mark.parametrize("spec, error", [
        ("r=1; m[1,2]=1 1", "multiplicity must be an integer, got '1 1'"),
        ("r=1; m[1,2]=+ 1", "multiplicity must be an integer, got '+ 1'"),
        ("r=1 0; m[1,2]=1", "rank must be an integer, got '1 0'"),
        ("r=1; m[1,2]=2; a=(1 2)", "malformed rational '1 2'"),
        ("r=1; m[1,2]=2; a=(1/2 0)", "malformed rational '1/2 0'"),
        ("r=1; m[1,2]=2; a=(3 / 4)", "malformed rational '3 / 4'"),
    ])
    def test_whitespace_inside_a_number_exits_2(self, spec, error, capsys):
        assert main(["volume", spec]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(SpecError, match="positive"):
            parse_spec("r=2; m[1,2]=0; m[1,3]=1; m[2,3]=1")

    def test_missing_entry_rejected(self):
        with pytest.raises(SpecError, match="missing"):
            parse_spec("r=2; m[1,2]=1; m[2,3]=1")

    def test_malformed_rational_rejected(self):
        with pytest.raises(SpecError, match="rational"):
            parse_spec("r=1; m[1,2]=1; a=(x)")

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            parse_spec("r=1; m[1,2]=1; q=3")

    def test_duplicate_entry_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec("r=1; m[1,2]=1; m[1,2]=2")

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(SpecError, match="range"):
            parse_spec("r=1; m[1,2]=1; m[1,3]=1")

    def test_wrong_point_length_rejected(self):
        with pytest.raises(SpecError, match="entries"):
            parse_spec("r=2; m[1,2]=1; m[1,3]=1; m[2,3]=1; a=(1)")

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("   ")


SMALL = "r=1; m[1,2]=2"  # degree 1


ERROR_LINES = [
    (["volume", "   "], "empty specification"),
    (["volume", "m[1,2]=1"], "missing rank entry r=<int>"),
    (["volume", "r=0"], "rank must be >= 1, got 0"),
    (["volume", "r=x"], "rank must be an integer, got 'x'"),
    (["volume", "r=1; r=1; m[1,2]=2"], "duplicate rank entry"),
    (["volume", "r=15"], "rank 15 has volume degree at least 105, above the ceiling 100"),
    (["volume", "r=1; m[1,2]=1; m[3,4]=1"], "pair m[3,4] out of range for rank 1"),
    (["volume", "r=2; m[1,2]=1"], "missing multiplicity entries: m[1,3], m[2,3]"),
    (["volume", "r=1; m[1,2]=0"], "multiplicity m[1,2] must be positive, got 0"),
    (["volume", "r=1; m[1,2]=102"], "volume degree 101 is above the ceiling 100"),
    (["volume", "r=1; m[1,2]=1; m[1,2]=1"], "duplicate entry m[1,2]"),
    (["volume", "r=1; x=1"], "unknown entry key 'x'"),
    (["volume", "r=1; x"], "entry 'x' is not of the form key=value"),
    (["volume", SMALL + "; a=(1,2)"], "a has 2 entries, expected 1"),
    (["volume", SMALL + "; a=1"], "a must be a parenthesized tuple, e.g. a=(1,2/3)"),
    (["volume", SMALL + "; a=(1); a=(1)"], "duplicate a entry"),
    (["volume", SMALL + "; a=(x)"], "malformed rational 'x'"),
    (["volume", SMALL + "; a=(1e3)"], "exponent notation is not accepted, got '1e3'"),
    (["volume", "r=1; m[1,2]=101; a=(%d)" % 2**101],
     "evaluation point of 102-bit entries at rank 1 and degree 100"
     " is above the ceiling rank * max(degree, 1) * bits <= 10000"),
    (["volume", "@/no/such/file"], "cannot read spec file: [Errno 2] No such file or directory: '/no/such/file'"),
    (["volume", "{not json"],
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["volume", '{"x": 1}'], "unknown JSON keys ['x']"),
    (["volume", '{"r": "1"}'], "JSON key 'r' must be an integer"),
    (["volume", '{"r": 1, "m": [1]}'], "JSON key 'm' must be a list of [i, j, mult] triples"),
    (["volume", '{"r": 1, "m": [[1, 2, "2"]]}'], "non-integer multiplicity triple [1, 2, '2']"),
    (["volume", '{"r": 1, "m": [[1, 2, 2], [1, 2, 2]]}'], "duplicate entry m[1,2]"),
    (["volume", '{"r": 1, "m": [[1, 2, 2]], "a": 1}'], "JSON key 'a' must be a list"),
    # an entry of a that is no JSON string or number is echoed in JSON, as typed
    (["volume", '{"r": 1, "m": [[1, 2, 2]], "a": [true]}'], "malformed rational 'true'"),
    (["volume", '{"r": 1, "m": [[1, 2, 2]], "a": [null]}'], "malformed rational 'null'"),
    (["volume", '{"r": 1, "m": [[1, 2, 2]], "a": [{"q": 1}]}'], "malformed rational '{\"q\": 1}'"),
    # a key given twice is refused, as a repeated plain entry is, not read as its last value
    (["volume", '{"r": 1, "r": 1, "m": [[1, 2, 2]]}'], "duplicate rank entry"),
    (["volume", '{"r": 1, "m": [[1, 2, 2]], "a": [1], "a": [5]}'], "duplicate a entry"),
    (["volume", '{"r": 1, "m": [[1, 2, 1]], "m": [[1, 2, 3]]}'], "duplicate JSON key 'm'"),
    (["volume", '{"r": 1, "m": [[1, 2, 2]], "x": 1, "x": 1}'], "duplicate JSON key 'x'"),
    (["volume", '{"r": 1, "m": [[1, 2, 2]], "a": [{"q": 1, "q": 2}]}'], "duplicate JSON key 'q'"),
    (["kernel", SMALL, "--degree", "-1"], "degree must be nonnegative, got -1"),
    (["kernel", SMALL, "--degree", "101"], "degree 101 is above the ceiling 100"),
    (["kernel", SMALL, "--degree", "x"], "--degree must be an integer, got 'x'"),
    (["lift", "r=1; m[1,2]=1"], "lift needs rank >= 2"),
    (["oracle-compare", SMALL], "oracle-compare needs an evaluation point a=(...)"),
    (["oracle-compare", SMALL + "; a=(1/2)"], "oracle-compare needs integer a, got 1/2"),
    (["oracle-compare", SMALL + "; a=(0)"], "supply entry 0 below the required minimum 1"),
    (["oracle-compare", SMALL + "; a=(201)"],
     "largest dilated supply t_max * sum(a) = 201 is above the ceiling 200"),
    (["oracle-compare", SMALL + "; a=(1)", "--dilations", "0"], "--dilations must be at least the degree 1"),
    (["oracle-compare", SMALL + "; a=(1)", "--dilations", "101"], "--dilations 101 is above the ceiling 100"),
]


class TestInputErrorLines:
    """Every input-error line main can print, through main: exit 2, nothing on stdout."""

    @pytest.mark.parametrize("argv, error", ERROR_LINES, ids=[error for _, error in ERROR_LINES])
    def test_error_line(self, argv, error, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


class TestJsonFormat:
    def test_equivalent_to_plain(self):
        data = {"r": 3, "m": [[1, 2, 1], [1, 3, 1], [1, 4, 2], [2, 3, 1], [2, 4, 2], [3, 4, 2]]}
        assert parse_spec(json.dumps(data)) == parse_spec(GOLDEN_TEXT)

    def test_point_entries_accept_strings(self):
        data = {"r": 1, "m": [[1, 2, 2]], "a": ["3/2"]}
        assert parse_spec(json.dumps(data)).a == (Fraction(3, 2),)

    def test_bad_json_rejected(self):
        with pytest.raises(SpecError, match="JSON"):
            parse_spec("{not json")
        with pytest.raises(SpecError):
            parse_spec(json.dumps({"r": 1, "m": [[1, 2, 1]], "extra": True}))

    @pytest.mark.parametrize("data", [
        {"r": True, "m": [[1, 2, True]]},
        {"r": 1, "m": [[1, 2, True]]},
        {"r": 1, "m": [[True, 2, 1]]},
        {"r": 2, "m": [[1, 2, 1], [1, 3, 1], [2, 3, False]]},
    ])
    def test_booleans_are_not_integers(self, data):
        with pytest.raises(SpecError):
            parse_spec(json.dumps(data))


class TestAsciiNumbers:
    """Integers are [+-]?[0-9]+ and rationals plain ASCII, though int() and
    Fraction() also read digit separators and non-ASCII digits."""

    @pytest.mark.parametrize("spec", [
        "r=\u0661; m[1,2]=\u0662",  # Arabic-Indic 1 and 2
        "r=1; m[1,2]=\u0662",
        "r=1; m[\u0661,2]=1",
        "r=1; m[1,\uff12]=1",  # fullwidth 2
        "r=1; m[1,2]=1_0",
        "r=0_1; m[1,2]=1",
        "r=1; m[1,2]=1; a=(1_0)",
        "r=1; m[1,2]=1; a=(1/2_0)",
        "r=1; m[1,2]=1; a=(\u0661/2)",
        "r=1; m[1,2]=1; a=(1.\u0665)",
        '{"r": 1, "m": [[1, 2, 1]], "a": ["1_0"]}',
        '{"r": 1, "m": [[1, 2, 1]], "a": ["\u0663/2"]}',
    ])
    def test_separators_and_non_ascii_digits_exit_2(self, spec, capsys):
        with pytest.raises(SpecError):
            parse_spec(spec)
        assert main(["corner", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["kernel", "r=1; m[1,2]=2", "--degree", "١"],
        ["kernel", "r=1; m[1,2]=2", "--degree", "0_1"],
        ["kernel", "r=1; m[1,2]=2", "--degree", "１"],
        ["kernel", "r=1; m[1,2]=2", "--degree", "1.0"],
        ["oracle-compare", "r=1; m[1,2]=2; a=(1)", "--dilations", "٢"],
        ["oracle-compare", "r=1; m[1,2]=2; a=(1)", "--dilations", "1_0"],
    ])
    def test_option_separators_and_non_ascii_digits_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[2]} must be an integer, got {argv[3]!r}\n"

    @pytest.mark.parametrize("argv, first_line", [
        (["kernel", "r=1; m[1,2]=2", "--degree", "+01"], "solution space at degree 1: dimension 1"),
        (["oracle-compare", "r=1; m[1,2]=2; a=(1)", "--dilations", "02"],
         "volume polynomial value at a=(1): 1"),
    ])
    def test_option_signs_and_leading_zeros_still_parse(self, argv, first_line, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == first_line

    def test_signs_leading_zeros_and_plain_rationals_still_parse(self):
        spec = parse_spec("r=+02; m[1,2]=01; m[1,3]=+1; m[2,3]=1; a=(-3/4, 0.5)")
        assert spec == ProblemSpec(2, (1, 1, 1), (Fraction(-3, 4), Fraction(1, 2)))
        data = {"r": 1, "m": [[1, 2, 1]], "a": [" 3/2 "]}
        assert parse_spec(json.dumps(data)).a == (Fraction(3, 2),)


def gated_fraction(text):
    """The entry reader the grammar replaced: Fraction(text) behind the ASCII,
    digit-separator and exponent gates, with the same messages.  Whitespace
    beside the "/" is refused before Fraction sees it, as Python 3.10 and 3.11
    refuse it and 3.12 on would not, so that one set is accepted everywhere."""
    if not text.isascii() or "_" in text:
        raise SpecError(f"malformed rational {text!r}")
    if re.search(r"[eE][-+]?[0-9]", text):
        raise SpecError(f"exponent notation is not accepted, got {text!r}")
    if re.search(r"\s/|/\s", text):
        raise SpecError(f"malformed rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"malformed rational {text!r}") from exc


def read_with(reader, text):
    """The value, with its exact type, or the message of the SpecError."""
    try:
        value = reader(text)
    except SpecError as exc:
        return "error: " + str(exc)
    return type(value), value


LIMIT = sys.get_int_max_str_digits() or 4300  # 0 means no limit; the strings stay valid then
RATIONAL_CORPUS = [
    # signs and leading zeros
    "1", "+1", "-1", "-0", "+0", "--1", "+-1", "-+1", "007", "-007/008", "0/5", "00.50", "-.5", "+5.",
    # p/q and the p/q that Fraction refuses
    "3/4", "-6/8", "+6/8", "1/0", "0/0", "-1/0", "3/-4", "3/+4", "1/2.5", "1.5/2", "/2", "2/", "1//2", "1/2/3",
    # a lone point, a lone sign, nothing
    ".5", "5.", ".", "+", "-", "", " ", ".e", "5..", "..5",
    # ASCII whitespace at either end (the information separators too) and inside
    " 1 ", "\t2/3\n", "\x0b-4\x0c", "\x1c1\x1f", "1 /2", "1/ 2", "- 1", "1 2", "1. 5",
    # non-ASCII space and digits, separators, letters
    "\xa01", "1　", "١", "1.٥", "1_0", "1/2_0", "x", "0x10", "1j", "Infinity",
    # digits past the interpreter's limit, in each run of digits
    "1" * (LIMIT + 1), "0" * (LIMIT + 1), "0." + "1" * (LIMIT + 1), "1" * LIMIT + "." + "2" * LIMIT,
    "1/" + "2" * (LIMIT + 1), "1" * LIMIT + "/" + "3" * LIMIT, "-" + "9" * LIMIT,
    # the str() of JSON floats, and exponents Fraction would read
    *map(str, [0.1, 1e-05, float("inf"), float("-inf"), float("nan"), 1e16, -0.0, 2.5, 1e300, 5e-324]),
    "1e5", "1E5", "1e", "1e+", "e5", "1.5e-3", "1e1_0", "١e5",
    # the 'd' Fraction's grammar lets through after the point (int() then refuses it)
    "1.d", "1.D", "1.dd",
]


def seeded_rational_strings(count=4000, seed=20240):
    """Short strings over the characters the grammar turns on, from a fixed seed."""
    rng = random.Random(seed)
    alphabet = "0123456789" * 3 + "+-./ \t_eEdx" + "\xa0١"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7))) for _ in range(count)]


class TestRationalReader:
    """The grammar accepts exactly what the gated Fraction(text) accepted, with the
    same value, and refuses the rest with the same message."""

    @pytest.mark.parametrize("text", RATIONAL_CORPUS)
    def test_corpus_matches_gated_fraction(self, text):
        assert read_with(_parse_rational, text) == read_with(gated_fraction, text)

    def test_seeded_strings_match_gated_fraction(self):
        texts = seeded_rational_strings()
        accepted = 0
        for text in texts:
            expected = read_with(gated_fraction, text)
            assert read_with(_parse_rational, text) == expected, text
            accepted += not isinstance(expected, str)
        assert 0.1 * len(texts) < accepted < 0.9 * len(texts)  # both outcomes well covered

    @pytest.mark.parametrize("text", [text for text in RATIONAL_CORPUS if len(text) < 50])
    def test_json_entry_reports_the_same_error_line(self, text, capsys):
        spec = json.dumps({"r": 1, "m": [[1, 2, 2]], "a": [text]})  # the volume is a1
        expected = read_with(gated_fraction, text)
        code = main(["volume", spec])
        captured = capsys.readouterr()
        if isinstance(expected, str):
            assert (code, captured.out, captured.err) == (2, "", expected + "\n")
        else:
            assert code == 0 and captured.err == ""
            assert captured.out.splitlines()[-1] == f"value at a=({expected[1]}): {expected[1]}"

    # json refuses an integer past the digit limit itself, before a is read
    @pytest.mark.parametrize("text", [
        text for text in RATIONAL_CORPUS
        if re.fullmatch(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?", text) and len(text) <= LIMIT
    ])
    def test_json_number_reads_as_the_plain_entry(self, text, capsys):
        plain_code = main(["volume", f"r=1; m[1,2]=2; a=({text})"])
        plain = capsys.readouterr()
        assert main(["volume", '{"r": 1, "m": [[1, 2, 2]], "a": [%s]}' % text]) == plain_code
        assert capsys.readouterr() == plain


class TestJsonNumbersAsTyped:
    """A JSON number with a fraction or exponent part is read from its text, not through a float."""

    @pytest.mark.parametrize("spec, err, last_line", [
        ('{"r": 1, "m": [[1, 2, 2]], "a": [0.30000000000000001]}', "",
         "value at a=(30000000000000001/100000000000000000): 30000000000000001/100000000000000000"),
        ('{"r": 1, "m": [[1, 2, 2]], "a": [12345678901234567890.5]}', "",
         "value at a=(24691357802469135781/2): 24691357802469135781/2"),
        ('{"r": 1, "m": [[1, 2, 2]], "a": [1e3]}', "error: exponent notation is not accepted, got '1e3'\n", ""),
        ('{"r": 1, "m": [[1, 2, 1.5]]}', "error: non-integer multiplicity triple [1, 2, 1.5]\n", ""),
        ('{"r": 1, "m": [[1, 2, 1.50]]}', "error: non-integer multiplicity triple [1, 2, 1.50]\n", ""),
    ])
    def test_literal_text_is_read(self, spec, err, last_line, capsys):
        assert main(["volume", spec]) == (2 if err else 0)
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out.rstrip("\n").rpartition("\n")[2] == last_line


point_entries = st.fractions(min_value=-4, max_value=4, max_denominator=5)
specs = st.integers(1, 4).flatmap(lambda rank: st.builds(
    ProblemSpec,
    st.just(rank),
    st.tuples(*(st.integers(1, 5) for _ in range(rank * (rank + 1) // 2))),
    st.one_of(st.none(), st.tuples(*(point_entries for _ in range(rank)))),
))


@given(specs)
def test_render_parse_roundtrip(spec):
    assert parse_spec(render_spec(spec)) == spec


# Values int() rejects or the parser refuses: non-positive, non-integer, empty.
bad_values = st.one_of(
    st.integers(max_value=0).map(str),
    st.fractions(min_value=-9, max_value=9).filter(lambda q: q.denominator != 1).map(str),
    st.sampled_from(["1.5", "x", "", "1e3", "two"]),
)


@st.composite
def malformed_specs(draw):
    """A valid spec's text with one mutation that makes it invalid."""
    spec = draw(specs)
    parts = render_spec(spec).split("; ")
    keyed = parts[: 1 + len(spec.mult)]  # r and the m entries; a is optional
    kind = draw(st.sampled_from(["drop", "repeat", "value", "a-length", "junk"]))
    if kind == "drop":
        parts.remove(draw(st.sampled_from(keyed)))
    elif kind == "repeat":
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(parts)))
    elif kind == "value":
        index = draw(st.integers(0, len(keyed) - 1))
        parts[index] = parts[index].partition("=")[0] + "=" + draw(bad_values)
    elif kind == "a-length":
        length = draw(st.integers(0, 6).filter(lambda n: n != spec.rank))
        entries = draw(st.lists(point_entries, min_size=length, max_size=length))
        parts = keyed + ["a=(" + ",".join(map(str, entries)) + ")"]
    else:
        # no digit or whitespace, so it cannot extend a number into another one
        parts[-1] += draw(st.text(alphabet="!?#xz()[],=", min_size=1, max_size=4))
    return "; ".join(parts)


@given(malformed_specs())
def test_malformed_spec_exits_2_without_traceback(text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["volume", text])
    assert code == 2, text
    assert err.getvalue().startswith("error:"), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""


class TestCommands:
    def test_volume_renders_reference_polynomial(self):
        text, code = run_command(parse_spec(GOLDEN_TEXT), "volume")
        assert code == 0
        assert GOLDEN_RENDER in text

    def test_volume_reports_value_at_point(self):
        spec = parse_spec(GOLDEN_TEXT + "; a=(1,1,1)")
        text, code = run_command(spec, "volume")
        assert "value at a=(1,1,1): 2/9" in text

    def test_volume_latex(self):
        text, _ = run_command(parse_spec("r=1; m[1,2]=3"), "volume", latex=True)
        assert "\\frac{1}{2} a_{1}^{2}" in text

    def test_check_pde(self):
        text, code = run_command(parse_spec(GOLDEN_TEXT), "check-pde")
        assert code == 0
        assert "all 3 operators annihilate v" in text

    @staticmethod
    def wrong_volume_report(monkeypatch, render):
        """Inject the golden volume plus one monomial as the residue's integrated table;
        the report the expanded operators give."""
        m = parse_spec(GOLDEN_TEXT).matrix()
        wrong = iterated_residue(m).poly + MultiPoly.monomial((m.degree - 1, 1, 0))
        entries = divided_powers(wrong)
        assert all(c.denominator == 1 for c in entries.values())
        term = ResidueTerm(MultiPoly._trusted(m.rank, entries), (0,) * m.rank)
        monkeypatch.setattr(flowvol.residue, "_iterated_sum", lambda m, order: ResidueSum(m.rank, (), (term,)))
        expected, failures = [], 0
        for l, op in pde_system(m).labeled():
            residual = op.apply(wrong)
            if residual.is_zero:
                expected.append(f"operator l={l}: annihilates v")
            else:
                failures += 1
                expected.append(f"operator l={l}: FAILS, residual {render(residual)}")
        expected.append(f"property violation: {failures} operator(s) do not annihilate v")
        assert 0 < failures < m.rank  # both kinds of line occur
        return "\n".join(expected)

    def test_check_pde_failure_matches_expanded_operators(self, monkeypatch):
        expected = self.wrong_volume_report(monkeypatch, MultiPoly.render)
        text, code = run_command(parse_spec(GOLDEN_TEXT), "check-pde")
        assert (text, code) == (expected, 1)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["check-pde", GOLDEN_TEXT]) == 1
        assert out.getvalue() == text + "\n"

    def test_check_pde_failure_renders_latex(self, monkeypatch):
        expected = self.wrong_volume_report(monkeypatch, MultiPoly.render_latex)
        assert "a_{1}" in expected
        text, code = run_command(parse_spec(GOLDEN_TEXT), "check-pde", latex=True)
        assert (text, code) == (expected, 1)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["check-pde", GOLDEN_TEXT, "--latex"]) == 1
        assert out.getvalue() == text + "\n"

    def test_kernel_default_degree(self):
        text, code = run_command(parse_spec(GOLDEN_TEXT), "kernel")
        assert code == 0
        assert "dimension 1" in text
        assert GOLDEN_RENDER in text

    def test_kernel_above_volume_degree(self):
        spec = parse_spec(GOLDEN_TEXT)
        text, code = run_command(spec, "kernel", degree=spec.matrix().degree + 1)
        assert code == 0
        assert "dimension 0" in text

    def test_lift(self):
        text, code = run_command(parse_spec(GOLDEN_TEXT), "lift")
        assert code == 0
        assert "lift agrees with the direct residue computation" in text

    def test_oracle_compare(self):
        spec = parse_spec(GOLDEN_TEXT + "; a=(1,1,1)")
        text, code = run_command(spec, "oracle-compare")
        assert code == 0
        assert "exact match" in text

    def test_oracle_compare_writes_three_lines(self, capsys):
        # cli writes every line of the report from compare_volume's two values
        assert main(["oracle-compare", GOLDEN_TEXT + "; a=(1,1,1)"]) == 0
        assert capsys.readouterr() == (
            "volume polynomial value at a=(1,1,1): 2/9\n"
            "lattice-count leading coefficient:  2/9\n"
            "exact match\n",
            "",
        )

    def test_oracle_compare_needs_integer_point(self):
        spec = parse_spec("r=1; m[1,2]=2; a=(1/2)")
        with pytest.raises(SpecError, match="integer"):
            run_command(spec, "oracle-compare")

    def test_oracle_compare_needs_point(self):
        with pytest.raises(SpecError, match="evaluation point"):
            run_command(parse_spec("r=1; m[1,2]=2"), "oracle-compare")

    @staticmethod
    def miscount_at_five(monkeypatch):
        """Make the count at dilation 5 one too many; the spec and the property-violation line it gives."""
        # degree 2 and the window -1..1, so --dilations 5 checks t = 2..5 against the fit
        spec = "r=2; m[1,2]=2; m[1,3]=1; m[2,3]=1; a=(2,1)"
        exact = flowvol.oracle.count_lattice_points
        bad = exact(parse_spec(spec).matrix(), (10, 5)) + 1
        monkeypatch.setattr(
            flowvol.oracle, "count_lattice_points",
            lambda m, point: bad if point == (10, 5) else exact(m, point),
        )
        return spec, (
            f"property violation: count {bad} at dilation 5 does not fit a degree-2 "
            "polynomial; the supply vector is degenerate or counting is wrong\n"
        )

    def test_count_off_the_fit_is_a_violation_without_traceback(self, monkeypatch, capsys):
        spec, line = self.miscount_at_five(monkeypatch)
        assert main(["oracle-compare", spec, "--dilations", "5"]) == 1
        assert capsys.readouterr() == (line, "")

    def test_count_off_the_fit_ends_the_command_before_the_order_check(self, monkeypatch, capsys):
        spec, line = self.miscount_at_five(monkeypatch)
        assert main(["oracle-compare", spec, "--dilations", "5", "--order-check"]) == 1
        assert capsys.readouterr() == (line, "")

    @staticmethod
    def golden_plus_a3_to_the_6(m):
        """The golden volume plus a3^6: nonzero, homogeneous of the degree, the corner kept."""
        return VolumePolynomial(m, iterated_residue(m).poly + MultiPoly.monomial((0, 0, 6)))

    def test_lift_that_differs_from_the_direct_residue_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(flowvol.induction, "lift_volume", lambda v_prev, m: self.golden_plus_a3_to_the_6(m))
        assert main(["lift", GOLDEN_TEXT]) == 1
        assert capsys.readouterr() == ("\n".join([
            "rank-2 volume: 1/6*a1^3 + 1/2*a1^2*a2",
            f"lifted rank-3 volume: {GOLDEN_RENDER} + a3^6",
            "property violation: lift differs from the direct residue",
            f"direct: {GOLDEN_RENDER}",
        ]) + "\n", "")

    def test_oracle_compare_mismatch_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(flowvol.oracle, "iterated_residue", self.golden_plus_a3_to_the_6)
        assert main(["oracle-compare", GOLDEN_TEXT + "; a=(1,1,2)"]) == 1
        # the volume at (1,1,2) is 16/45, and a3^6 adds 64
        assert capsys.readouterr() == (
            "volume polynomial value at a=(1,1,2): 2896/45\n"
            "lattice-count leading coefficient:  16/45\n"
            "MISMATCH: difference 64\n",
            "",
        )

    def test_failed_order_check_exits_1(self, monkeypatch, capsys):
        exact = flowvol.cli.residue_in_order
        monkeypatch.setattr(flowvol.cli, "residue_in_order", lambda m, order: exact(m, canonical_order(m.rank)))
        assert main(["volume", "r=1; m[1,2]=1", "--order-check"]) == 1
        assert capsys.readouterr() == (
            "volume polynomial (rank 1, degree 0):\n"
            "1\n"
            "residue-order regression: FAILED\n"
            "  canonical order gave a1\n"
            "  reversed order gave  a1\n",
            "",
        )

    @pytest.mark.parametrize("error", [ZeroDivisionError, ValueError])
    def test_other_arithmetic_errors_are_not_relabelled(self, monkeypatch, error):
        def fail(m, point):
            raise error("a fault in the counting code")

        monkeypatch.setattr(flowvol.oracle, "count_lattice_points", fail)
        with pytest.raises(error, match="a fault in the counting code"):
            main(["oracle-compare", "r=1; m[1,2]=2; a=(1)"])

    @pytest.mark.parametrize("point, entry", [("0,1", 0), ("-1,1", -1), ("2,-3", -3)])
    def test_oracle_compare_point_below_one_exits_2(self, point, entry, capsys):
        spec = f"r=2; m[1,2]=1; m[1,3]=1; m[2,3]=1; a=({point})"
        assert main(["oracle-compare", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: supply entry {entry} below the required minimum 1\n"

    def test_oracle_compare_reports_the_dilations_before_the_point(self, capsys):
        spec = "r=2; m[1,2]=1; m[1,3]=1; m[2,3]=1; a=(0,1)"
        assert main(["oracle-compare", spec, "--dilations", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --dilations must be at least the degree 1\n"

    @pytest.mark.parametrize("command", ["volume", "check-pde", "lift", "oracle-compare", "corner"])
    @pytest.mark.parametrize("extra, message", [
        (lambda m: MultiPoly.monomial(m.corner_exponents),
         "corner coefficient 3/2 differs from expected 1/2"),
        (lambda m: MultiPoly.one(m.rank), "volume polynomial must be homogeneous of degree 2"),
    ])
    def test_failed_volume_check_is_a_violation_without_traceback(
        self, monkeypatch, capsys, command, extra, message
    ):
        # the fault enters the residue's integrated sum, which both the
        # polynomial and the table of the volume are read from
        spec = "r=2; m[1,2]=2; m[1,3]=1; m[2,3]=1; a=(2,1)"
        exact = flowvol.residue._iterated_sum
        target = parse_spec(spec).matrix()

        def faulty(m, order):
            state = exact(m, order)
            if m != target:
                return state
            (term,) = state.terms
            entries = divided_powers(extra(m))
            assert all(c.denominator == 1 for c in entries.values())
            coeff = term.coeff + MultiPoly._trusted(m.rank, entries)
            return replace(state, terms=(ResidueTerm(coeff, term.xpow),))

        monkeypatch.setattr(flowvol.residue, "_iterated_sum", faulty)
        assert main([command, spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"property violation: {message}\n"
        assert captured.err == ""

    def test_other_value_errors_in_the_residue_are_not_relabelled(self, monkeypatch):
        def fail(m, order):
            raise ValueError("a fault in the residue code")

        monkeypatch.setattr(flowvol.residue, "_iterated_sum", fail)
        with pytest.raises(ValueError, match="a fault in the residue code"):
            main(["corner", "r=1; m[1,2]=2"])

    @pytest.mark.parametrize("command", ["volume", "check-pde", "lift", "corner", "oracle-compare"])
    def test_table_commands_build_no_fraction_polynomial(self, monkeypatch, command):
        # these read the residue's integer table; a volume whose residuals are
        # all zero leaves from_divided_powers no entry to turn into a Fraction
        def refuse(self):
            raise RuntimeError("a Fraction polynomial of the volume was built")

        entries = []
        exact = flowvol.polynomial.from_divided_powers

        def recording(nvars, table, scale):
            entries.extend(table)
            return exact(nvars, table, scale)

        monkeypatch.setattr(flowvol.residue.VolumePolynomial, "poly", property(refuse))
        for module in (flowvol.polynomial, flowvol.residue, flowvol.diffop):
            monkeypatch.setattr(module, "from_divided_powers", recording)
        point = {"volume": "; a=(1,1/2,-3)", "oracle-compare": "; a=(1,1,2)"}.get(command, "")
        text, code = run_command(parse_spec(GOLDEN_TEXT + point), command)
        assert code == 0
        assert entries == []
        with pytest.raises(RuntimeError, match="Fraction polynomial"):  # the patch is live
            iterated_residue(parse_spec(GOLDEN_TEXT).matrix()).poly

    def test_corner(self):
        text, code = run_command(parse_spec(GOLDEN_TEXT), "corner")
        assert code == 0
        assert "expected 1/12, computed 1/12" in text
        assert "corner coefficient matches" in text

    def test_order_check(self):
        text, code = run_command(parse_spec("r=1; m[1,2]=1"), "volume", order_check=True)
        assert code == 0
        assert "residue-order regression: ok" in text

    def test_unknown_command(self):
        # main never passes one: argparse refuses it first
        with pytest.raises(SpecError, match="^unknown command 'nonsense'$"):
            run_command(parse_spec("r=1; m[1,2]=1"), "nonsense")

    def test_output_is_deterministic(self):
        spec = parse_spec(GOLDEN_TEXT + "; a=(1,1,1)")
        first = run_command(spec, "volume", order_check=True)
        second = run_command(spec, "volume", order_check=True)
        assert first == second


HUGE_MULT = "99999999999999999999"


class TestDegreeCeiling:
    @pytest.mark.parametrize(
        "spec", [f"r=1; m[1,2]={HUGE_MULT}", '{"r": 1, "m": [[1, 2, %s]]}' % HUGE_MULT]
    )
    def test_huge_multiplicity_exits_2(self, spec, capsys):
        with pytest.raises(SpecError, match="volume degree 99999999999999999998 is above"):
            parse_spec(spec)
        assert main(["volume", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("spec", ["r=100000", '{"r": 100000, "m": []}'])
    def test_huge_rank_rejected_before_its_pairs_are_listed(self, spec):
        with pytest.raises(SpecError, match="rank 100000 has volume degree at least"):
            parse_spec(spec)

    def test_ceiling_is_inclusive(self):
        assert parse_spec(f"r=1; m[1,2]={MAX_DEGREE + 1}").matrix().degree == MAX_DEGREE
        with pytest.raises(SpecError, match="ceiling"):
            parse_spec(f"r=1; m[1,2]={MAX_DEGREE + 2}")

    def test_kernel_degree_above_ceiling(self):
        spec = parse_spec("r=1; m[1,2]=3")
        with pytest.raises(SpecError, match="ceiling"):
            run_command(spec, "kernel", degree=MAX_DEGREE + 1)

    def test_dilations_above_ceiling_exits_2(self, capsys):
        spec = "r=2; m[1,2]=1; m[1,3]=1; m[2,3]=1; a=(1,1)"
        with pytest.raises(SpecError, match="--dilations 101 is above the ceiling 100"):
            run_command(parse_spec(spec), "oracle-compare", dilations=MAX_DEGREE + 1)
        assert main(["oracle-compare", spec, "--dilations", str(MAX_DEGREE + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_dilations_ceiling_is_inclusive(self, capsys):
        spec = "r=2; m[1,2]=1; m[1,3]=1; m[2,3]=1; a=(1,1)"
        assert main(["oracle-compare", spec, "--dilations", str(MAX_DEGREE)]) == 0
        assert "exact match" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", [
        f"r=1; m[1,2]=2; a=({MAX_SUPPLY + 1})",
        "r=1; m[1,2]=2; a=(1000000000)",
        "r=3; m[1,2]=1; m[1,3]=1; m[1,4]=1; m[2,3]=1; m[2,4]=1; m[3,4]=1; a=(400,400,400)",
    ])
    def test_supply_above_ceiling_exits_2(self, spec, capsys):
        assert main(["oracle-compare", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: largest dilated supply")
        assert f"above the ceiling {MAX_SUPPLY}" in captured.err
        assert "Traceback" not in captured.err

    def test_supply_ceiling_counts_the_dilations(self):
        k = MAX_SUPPLY // (2 * MAX_DEGREE) + 1
        spec = parse_spec(f"r=2; m[1,2]=1; m[1,3]=1; m[2,3]=1; a=({k},{k})")
        assert run_command(spec, "oracle-compare")[1] == 0
        with pytest.raises(SpecError, match=f"= {2 * k * MAX_DEGREE} is above"):
            run_command(spec, "oracle-compare", dilations=MAX_DEGREE)

    def test_supply_ceiling_is_inclusive(self, capsys):
        assert main(["oracle-compare", f"r=1; m[1,2]=2; a=({MAX_SUPPLY})"]) == 0
        assert "exact match" in capsys.readouterr().out


class TestPointCeiling:
    def exits_2(self, spec, capsys):
        assert main(["volume", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_exponent_notation_exits_2(self, capsys):
        self.exits_2("r=1; m[1,2]=3; a=(1e3000)", capsys)

    def test_huge_exponent_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        self.exits_2("r=1; m[1,2]=3; a=(1e10000000)", capsys)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("spec, bits, degree", [
        # 10^3000 has 9,966 bits, under the ceiling at degree 1 only
        ("r=1; m[1,2]=3; a=(1%s)" % ("0" * 3000), 9966, 2),
        ("r=1; m[1,2]=3; a=(1/1%s)" % ("0" * 3000), 9966, 2),
        # degree 0 counts as 1: 10^3100 has 10,298 bits
        ("r=1; m[1,2]=1; a=(1%s)" % ("0" * 3100), 10298, 0),
    ], ids=["numerator", "denominator", "degree-0"])
    def test_point_too_large_to_print_exits_2(self, spec, bits, degree, capsys):
        with pytest.raises(
            SpecError, match=f"{bits}-bit entries at rank 1 and degree {degree} .* {MAX_POINT_BITS}$"
        ):
            parse_spec(spec)
        self.exits_2(spec, capsys)

    def test_thousand_digit_point_at_degree_one_is_accepted(self, capsys):
        big = 10**999 + 7
        assert main(["volume", f"r=1; m[1,2]=2; a=({big})"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"value at a=({big}): {big}"


class TestMainEntry:
    def test_success_exit_code(self, capsys):
        assert main(["volume", "r=1; m[1,2]=3"]) == 0
        assert "1/2*a1^2" in capsys.readouterr().out

    def test_input_error_exit_code(self, capsys):
        assert main(["volume", "r=2; m[1,2]=0; m[1,3]=1; m[2,3]=1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spec_file_loading(self, tmp_path, capsys):
        path = tmp_path / "problem.txt"
        path.write_text(GOLDEN_TEXT + "; a=(1,1,1)\n", encoding="utf-8")
        assert main(["oracle-compare", f"@{path}"]) == 0
        assert "exact match" in capsys.readouterr().out

    def test_missing_spec_file(self, capsys):
        assert main(["volume", "@/no/such/file"]) == 2

    def test_spec_file_at_the_length_ceiling_runs(self, tmp_path, capsys):
        path = tmp_path / "problem.txt"
        path.write_text("r=1; m[1,2]=3".ljust(MAX_SPEC_CHARS), encoding="utf-8")
        assert main(["volume", f"@{path}"]) == 0
        assert "1/2*a1^2" in capsys.readouterr().out

    def test_spec_file_above_the_length_ceiling_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "problem.txt"
        path.write_text("r=1; m[1,2]=3".ljust(MAX_SPEC_CHARS + 1), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "flowvol", "volume", f"@{path}"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: spec file is longer than the ceiling of {MAX_SPEC_CHARS} characters\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_spec_file_exits_2_at_once(self):
        result = subprocess.run(
            [sys.executable, "-m", "flowvol", "volume", "@/dev/zero"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: spec file is longer than the ceiling")

    def test_non_utf8_spec_file_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "problem.txt"
        path.write_bytes(b"r=1; m[1,2]=\xff")
        result = subprocess.run(
            [sys.executable, "-m", "flowvol", "volume", f"@{path}"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: cannot read spec file:")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("spec", [
        '{"r": true, "m": [[1, 2, true]]}',
        '{"r": 1%s}' % ("0" * 4300),  # past the interpreter's limit on integer digits
        '{"r": %s%s}' % ("[" * 100_000, "]" * 100_000),  # past the recursion limit
    ], ids=["booleans", "4301-digit-rank", "nested-100000-deep"])
    def test_bad_json_exits_2_without_traceback(self, spec, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(spec, encoding="utf-8")  # one argument holds at most 128 KiB
        result = subprocess.run(
            [sys.executable, "-m", "flowvol", "volume", f"@{path}"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("key", [
        "m[%s,2]" % ("1" * 5000),  # past the interpreter's limit on integer digits
        "m[1,%s]" % ("2" * 5000),
    ], ids=["first-index", "second-index"])
    def test_pair_index_past_the_digit_limit_exits_2_without_traceback(self, key):
        result = subprocess.run(
            [sys.executable, "-m", "flowvol", "volume", f"r=1; {key}=1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: pair indices must be integers, got {key!r}\n"

    @pytest.mark.parametrize("m", ["5", "null", "true"])
    def test_non_list_json_m_exits_2_without_traceback(self, m):
        spec = '{"r": 1, "m": %s}' % m
        with pytest.raises(SpecError, match="'m' must be a list"):
            parse_spec(spec)
        result = subprocess.run(
            [sys.executable, "-m", "flowvol", "volume", spec],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    def test_reader_closing_early_ends_without_traceback(self):
        # r=6, all m=2 prints about 650 kB, far more than a pipe holds, so the
        # write is still pending when the reader closes after 80 bytes
        pairs = "; ".join(f"m[{i},{j}]=2" for i in range(1, 8) for j in range(i + 1, 8))
        proc = subprocess.Popen(
            [sys.executable, "-m", "flowvol", "volume", f"r=6; {pairs}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(80)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_STDOUT_CLOSED == 141
        assert head.startswith(b"volume polynomial (rank 6, degree 36):")
        assert err == b""

    def test_reader_gone_before_the_first_write(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "flowvol", "corner", GOLDEN_TEXT],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == EXIT_STDOUT_CLOSED
        assert result.stderr == ""

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "flowvol", "corner", GOLDEN_TEXT],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "corner coefficient matches" in result.stdout
