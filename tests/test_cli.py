import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flowvol import ProblemSpec, SpecError, parse_spec, render_spec, run_command
from flowvol.cli import main

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


specs = st.builds(
    ProblemSpec,
    st.just(2),
    st.tuples(*(st.integers(1, 5) for _ in range(3))),
    st.one_of(
        st.none(),
        st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                  st.fractions(min_value=-4, max_value=4, max_denominator=5)),
    ),
)


@given(specs)
def test_render_parse_roundtrip(spec):
    assert parse_spec(render_spec(spec)) == spec


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

    def test_oracle_compare_needs_integer_point(self):
        spec = parse_spec("r=1; m[1,2]=2; a=(1/2)")
        with pytest.raises(SpecError, match="integer"):
            run_command(spec, "oracle-compare")

    def test_oracle_compare_needs_point(self):
        with pytest.raises(SpecError, match="evaluation point"):
            run_command(parse_spec("r=1; m[1,2]=2"), "oracle-compare")

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
        with pytest.raises(SpecError):
            run_command(parse_spec("r=1; m[1,2]=1"), "nonsense")

    def test_output_is_deterministic(self):
        spec = parse_spec(GOLDEN_TEXT + "; a=(1,1,1)")
        first = run_command(spec, "volume", order_check=True)
        second = run_command(spec, "volume", order_check=True)
        assert first == second


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

    def test_boolean_json_exits_2_without_traceback(self):
        result = subprocess.run(
            [sys.executable, "-m", "flowvol", "volume", '{"r": true, "m": [[1, 2, true]]}'],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

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

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "flowvol", "corner", GOLDEN_TEXT],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "corner coefficient matches" in result.stdout
