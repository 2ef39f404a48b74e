"""CLI subcommands: exit codes, JSON reports, atomic output."""
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootsep
from rootsep import parse_polynomial
from rootsep.cli import _json_text, build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestVerify:
    def test_main_holds(self, capsys):
        code, report = run_cli(
            ["verify", "--poly", "x^2-1", "--graph", '{"edges":[[0,1]]}', "--variant", "main"],
            capsys,
        )
        assert code == 0
        assert report["verdict"] == "holds"
        assert abs(report["margin"] - (2 - math.sqrt(3) / 2)) < 1e-9
        assert report["lhs"]["mid"] == 2.0
        assert set(report["components"]) == {
            "sdisc_sqrt", "mahler_power", "edge_factor", "r_power", "multiplicity_factor",
        }
        assert report["certificate"]["det_w"]["re"] == 2.0

    def test_index_out_of_range(self, capsys):
        code, report = run_cli(
            ["verify", "--poly", "x^2-1", "--graph", '{"edges":[[0,7]]}'],
            capsys,
        )
        assert code == 1
        assert report["error"]["type"] == "ValidationError"

    def test_parse_error_position(self, capsys):
        code, report = run_cli(
            ["verify", "--poly", "x^2 + $", "--graph", '{"edges":[]}'],
            capsys,
        )
        assert code == 1
        assert report["error"]["position"] == 6

    def test_bad_precision(self, capsys):
        code, report = run_cli(
            ["verify", "--poly", "x^2-1", "--graph", '{"edges":[]}', "--precision", "100"],
            capsys,
        )
        assert code == 1

    def test_preset(self, capsys):
        code, report = run_cli(
            ["verify", "--poly", "x*(x-1)*(x-2)", "--preset", "path"],
            capsys,
        )
        assert code == 0
        assert report["graph"]["edges"] == [[0, 1], [1, 2]]

    def test_sep_product(self, capsys):
        code, report = run_cli(
            ["verify", "--poly", "x^2-1", "--variant", "sep_product"],
            capsys,
        )
        assert code == 0
        assert abs(report["lhs"]["mid"] - 4) < 1e-9
        assert abs(report["rhs"]["mid"] - 0.75) < 1e-9

    def test_inconclusive_equality_exit_code(self, capsys):
        # LHS = RHS = 1 exactly: inconclusive at every precision, exit 2
        code, report = run_cli(
            ["verify", "--poly", "x^2-1", "--graph", '{"edges":[]}',
             "--ceiling", "128"],
            capsys,
        )
        assert code == 2
        assert report["verdict"] == "inconclusive"


    def test_remark_pairs_needs_hints(self, capsys):
        args = [
            "verify", "--poly", "(x+1/100)*(x-1/100)*(x-99/100)*(x-101/100)*(x+2)",
            "--graph", '{"edges":[[0,1]]}', "--variant", "remark_pairs",
        ]
        code, report = run_cli(args + ["--hints", "[[0,1,1],[2,3,1]]"], capsys)
        assert code == 0
        assert report["verdict"] == "holds"
        assert report["extra"]["hint_pairs"] == [[0, 1, 1.0], [2, 3, 1.0]]
        code, report = run_cli(args, capsys)
        assert code == 1
        assert report["error"]["type"] == "ValidationError"


    @pytest.mark.parametrize(
        "args, error_type",
        [
            (["--poly", '{"coeffs": [[1.5, 1, 0, 1], [1, 1, 0, 1]]}', "--preset", "path"], "ParseError"),
            (["--poly", '{"coeffs": [[true, 1, 0, 1], [1, 1, 0, 1]]}', "--preset", "path"], "ParseError"),
            (["--poly", '{"coeffs": 5}', "--preset", "path"], "ParseError"),
            (["--poly", "x^2-1", "--variant", "sep_product", "--subset", "5"], "ValidationError"),
            (["--poly", "x^2-1", "--variant", "sep_product", "--subset", '["a", 1]'], "ValidationError"),
            (["--poly", "x^2-1", "--preset", "path", "--variant", "remark_pairs", "--hints", "5"], "ValidationError"),
            (["--poly", "x^2-1", "--preset", "path", "--variant", "remark_pairs", "--hints", "[5]"], "ValidationError"),
            # JSON booleans are not indices, and a hint exponent is a number
            (["--poly", "x^3-1", "--graph", '{"edges": [[false, true]]}'], "ValidationError"),
            (["--poly", "x^2-1", "--variant", "sep_product", "--subset", "[true]"], "ValidationError"),
            (["--poly", "(x-1)*(x-2)*(x-3)", "--graph", '{"edges": []}', "--variant", "remark_pairs",
              "--hints", "[[0, 1, null]]"], "ValidationError"),
            (["--poly", "(x-1)*(x-2)*(x-3)", "--graph", '{"edges": []}', "--variant", "remark_pairs",
              "--hints", '[["a", 1, 0.5]]'], "ValidationError"),
            # json.loads reads NaN and Infinity, and a hint exponent must be finite
            (["--poly", "(x-1)*(x-1-1/1000000)*(x-3)*(x-3-1/1000000)*(x+2)", "--graph", '{"edges": []}',
              "--variant", "remark_pairs", "--hints", "[[0, 1, Infinity]]"], "ValidationError"),
            (["--poly", "(x-1)*(x-1-1/1000000)*(x-3)*(x-3-1/1000000)*(x+2)", "--graph", '{"edges": []}',
              "--variant", "remark_pairs", "--hints", "[[0, 1, NaN]]"], "ValidationError"),
        ],
    )
    def test_malformed_json_input(self, args, error_type, capsys):
        code, report = run_cli(["verify"] + args, capsys)
        assert code == 1
        assert report["error"]["type"] == error_type

    def test_values_beyond_the_double_range_stay_strict_json(self, capsys):
        # 24 roots 0, 100, ..., 2300 on the complete graph: the lhs, the
        # sdisc_sqrt component, det W and the margin exceed the largest double
        poly = "*".join(["x"] + [f"(x-{100 * k})" for k in range(1, 24)])
        code = main(["verify", "--poly", poly, "--preset", "complete"])

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == 0 and report["verdict"] == "holds"
        for value in (report["margin"], report["lhs"]["mid"], report["certificate"]["det_w"]["re"]):
            assert isinstance(value, str) and mpmath.mpf(value) > 1e308
        # the rhs, about 10^-1134, is below the double range: a nonzero value
        # is a string there too, never 0.0
        for ball in (report["rhs"], report["components"]["mahler_power"]):
            assert isinstance(ball["mid"], str) and 0 < mpmath.mpf(ball["mid"]) < 1e-308
        assert all(isinstance(e["im"], float) for e in report["polynomial"]["roots"])
        assert isinstance(report["margin_bits"], float) and report["margin_bits"] > 6000

    def test_margin_bits(self, capsys):
        # lhs = 2 and rhs = sqrt(3) / 2: log2(4 / sqrt(3)) bits
        code, report = run_cli(
            ["verify", "--poly", "x^2-1", "--graph", '{"edges":[[0,1]]}'], capsys,
        )
        assert code == 0
        assert abs(report["margin_bits"] - math.log2(4 / math.sqrt(3))) < 1e-9


@pytest.mark.parametrize("args", [
    ["verify", "--poly", "x^2-1", "--preset", "path"],
    ["certificate", "--poly", "x^2-1", "--preset", "path"],
    ["invariants", "--poly", "x^2-1"],
    ["sweep", "--count", "1"],
])
def test_every_subcommand_reports_input_errors(args, capsys):
    # one precision rule, so one message from every subcommand
    code, report = run_cli(args + ["--precision", "100"], capsys)
    assert code == 1
    assert report["error"]["type"] == "ValidationError"
    assert report["error"]["message"] == (
        "precision must be a power of two between 64 and 1024, got 100"
    )


@pytest.mark.parametrize("args, message", [
    (["verify", "--preset", "path"], "the following arguments are required: --poly"),
    (["verify", "--poly", "x^2-1", "--preset", "nope"], "argument --preset: invalid choice: 'nope'"),
    (["verify", "--poly", "x^2-1", "--preset", "path", "--precision", "abc"],
     "argument --precision: invalid int value: 'abc'"),
])
def test_a_malformed_command_line_is_an_input_error(args, message, capsys):
    # exit 1 and a JSON report, as for any input error: argparse's own exit
    # code 2 would read as inconclusive
    code, report = run_cli(args, capsys)
    assert code == 1
    assert report["error"]["type"] == "ValidationError"
    assert message in report["error"]["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage: rootsep verify" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "certificate"])
def test_graph_and_preset_together_are_an_input_error(command, capsys):
    code, report = run_cli(
        [command, "--poly", "x*(x-1)*(x-2)", "--graph", '{"edges": [[0, 1]]}', "--preset", "complete"],
        capsys,
    )
    assert code == 1
    assert report["error"]["type"] == "ValidationError"
    assert "not allowed with argument --graph" in report["error"]["message"]


class TestOut:
    def test_atomic_write(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--poly", "x^2-1", "--graph", '{"edges":[[0,1]]}',
             "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "holds"
        assert not list(tmp_path.glob(".report-*"))

    @settings(max_examples=150, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.just(-0.0)
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(
            st.text(max_size=4) | st.integers() | st.floats() | st.just(-0.0) | st.booleans()
            | st.none(), inner, max_size=4),
        max_leaves=20,
    ))
    def test_report_text_is_json_dumps_with_indent_2(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    def test_writing_a_report_leaves_no_garbage_cycle(self, tmp_path):
        # every report a long-running process writes would otherwise wait
        # in memory for a full collection
        args = ["verify", "--poly", "x^2-1", "--preset", "complete", "--out", str(tmp_path / "r.json")]
        main(args)
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                main(args)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSweep:
    def test_small_sweep(self, capsys):
        code, report = run_cli(
            ["sweep", "--count", "25", "--seed", "42", "--max-degree", "8"],
            capsys,
        )
        assert code == 0
        assert report["violations"] == 0
        assert report["unresolved"] == 0

    def test_determinism(self, capsys):
        code1, r1 = run_cli(["sweep", "--count", "10", "--seed", "7", "--full"], capsys)
        code2, r2 = run_cli(["sweep", "--count", "10", "--seed", "7", "--full"], capsys)
        assert r1 == r2

    def test_bad_count(self, capsys):
        code, report = run_cli(["sweep", "--count", "0"], capsys)
        assert code == 1


class TestCertificate:
    def test_dump(self, capsys):
        code, payload = run_cli(
            ["certificate", "--poly", "x*(x-1)*(x-2)", "--graph",
             '{"edges":[[0,1],[1,2]]}'],
            capsys,
        )
        assert code == 0
        assert abs(payload["det_w"]["re"] - 2) < 1e-9
        assert len(payload["step_factors"]) == 2
        assert len(payload["row_norms"]) == 3
        assert payload["identity"]["holds"] is True
        assert payload["identity"]["q"] == 2**62 - 87
        assert [len(point) for point in payload["identity"]["points"]] == [3, 3]


class TestInvariants:
    def test_values(self, capsys):
        code, payload = run_cli(
            ["invariants", "--poly", "(x-1)^2*x"],
            capsys,
        )
        assert code == 0
        assert payload["r"] == 2 and payload["d"] == 3
        assert abs(payload["mahler"]["mid"] - 1) < 1e-9
        assert payload["disc_abs"]["mid"] == 0
        assert abs(payload["sdisc_abs"]["mid"] - 2) < 1e-9
        assert payload["sdisc_index"] == 1

    def test_decimal_input_writes_its_polynomial(self, capsys):
        text = "(x-0.5)^2*(x+1.25)"
        code, payload = run_cli(["invariants", "--poly", text], capsys)
        assert code == 0
        assert parse_polynomial(payload["polynomial"]) == parse_polynomial(text)
        assert [e["multiplicity"] for e in payload["roots"]] == [2, 1]

    def test_error(self, capsys):
        code, payload = run_cli(["invariants", "--poly", "7"], capsys)
        assert code == 1


class TestChainsBuilt:
    SQUARE_FREE = "(x-1/3-i/5)*(x+2/7+3*i/8)*(x-5/8+i)*(x+1-2*i/3)"

    @pytest.fixture
    def chains(self, monkeypatch):
        """The degree of the first polynomial of each subresultant chain
        built."""
        import rootsep.poly

        built = []
        real_chain = rootsep.poly._subresultant_chain

        def chain_spy(a, b):
            built.append(len(a) - 1)
            return real_chain(a, b)

        monkeypatch.setattr(rootsep.poly, "_subresultant_chain", chain_spy)
        return built

    def test_verify_on_square_free_input_builds_no_chain(self, chains, capsys):
        code, report = run_cli(["verify", "--poly", self.SQUARE_FREE, "--preset", "complete"], capsys)
        assert code == 0 and report["verdict"] == "holds"
        assert chains == []

    def test_invariants_on_square_free_input_builds_one_chain(self, chains, capsys):
        code, payload = run_cli(["invariants", "--poly", self.SQUARE_FREE], capsys)
        assert code == 0
        assert payload["r"] == payload["d"] == 4 and payload["sdisc_index"] == 0
        assert payload["disc_abs"] == payload["sdisc_abs"]
        assert chains == [4]


class TestParserReuse:
    def test_one_process_matches_separate_runs(self, capsys):
        # the parser is built once per process; a second command through it
        # must report what a fresh process reports
        commands = [
            ["verify", "--poly", "(x-1)^2*(x+2)*(x-i)", "--preset", "nearest_neighbor"],
            ["invariants", "--poly", "(x-1)^2*(x+2)*(x-i)"],
        ]
        in_process = [run_cli(args, capsys) for args in commands]
        assert build_parser() is build_parser()
        src = str(Path(rootsep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for args, (code, payload) in zip(commands, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "rootsep.cli", *args],
                capture_output=True, text=True, env=env, check=False,
            )
            assert (fresh.returncode, json.loads(fresh.stdout)) == (code, payload)
