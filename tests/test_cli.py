"""Command-line surface: outputs, formats, and exit codes."""

import json
from fractions import Fraction

import pytest

from multibattle import cli
from multibattle.core import ResourceError
from multibattle.matrices import MAX_EXACT_SIDE, MAX_FLOAT_SIDE, MatrixVerifyReport
from multibattle import FP_SET01


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_obr_prints_floats_by_default(capsys):
    code, out, _ = run(capsys, "obr", "--variant", "fp-set", "--turns", "3")
    assert code == 0
    assert out == "1.5\n"


def test_obr_integer_valued_floats_print_bare(capsys):
    code, out, _ = run(capsys, "obr", "--variant", "fp-fixed", "--turns", "101")
    assert code == 0
    assert out == "1\n"


def test_obr_exact_mode_prints_reduced_fractions(capsys):
    code, out, _ = run(capsys, "obr", "--variant", "fp-set", "--turns", "1000", "--exact")
    assert code == 0
    assert out == "750/251\n"


def test_obr_handicap_flag(capsys):
    code, out, _ = run(
        capsys, "obr", "--variant", "fp-set", "--turns", "5", "--handicap", "1", "--exact"
    )
    assert code == 0
    assert out == "4/5\n"


def test_obr_rejects_alpha_for_first_price(capsys):
    code, _, err = run(capsys, "obr", "--variant", "fp-set", "--turns", "3", "--alpha", "1")
    assert code == 1
    assert "alpha" in err


def test_all_pay_alpha_defaults_to_one(capsys):
    code, out, _ = run(capsys, "obr", "--variant", "ap-fixed", "--turns", "4", "--exact")
    assert code == 0
    assert out == "3/2\n"


def test_alpha_accepts_fractions(capsys):
    code, out, _ = run(
        capsys, "obr", "--variant", "ap-set", "--turns", "2", "--alpha", "1/2", "--exact"
    )
    assert code == 0
    assert out == "1\n"


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--variant", "fp-set", "--size", "3", "--exact")
    assert code == 0
    assert out == "i\\j,1,2,3\n1,1,1/2,1/3\n2,inf,3/2,4/5\n3,inf,inf,9/5\n"


def test_matrix_json_uses_nulls_for_unwinnable(capsys):
    code, out, _ = run(
        capsys, "matrix", "--variant", "ap-set", "--size", "2", "--format", "json", "--exact"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [["1", "1"], [None, "2"]]


def test_bid_command(capsys):
    code, out, _ = run(capsys, "bid", "--variant", "fp-set", "--i", "2", "--j", "3", "--exact")
    assert code == 0
    assert out == "r* = 7/15\nbid = 7/15\n"


def test_bid_command_scales_by_opponent_budget(capsys):
    code, out, _ = run(
        capsys,
        "bid", "--variant", "fp-set", "--i", "2", "--j", "3",
        "--opponent-budget", "3", "--exact",
    )
    assert code == 0
    assert out.splitlines()[1] == "bid = 7/5"


def test_bid_command_without_a_closed_form(capsys):
    variant = ("--variant", "ap-set", "--alpha", "1/3")
    code, out, _ = run(capsys, "bid", *variant, "--i", "2", "--j", "3", "--exact")
    assert code == 0
    assert out == "r* = 321/646\nbid = 321/646\n"
    code, out, err = run(capsys, "bid", *variant, "--i", "0", "--j", "0", "--exact")
    assert code == 1
    assert out == ""
    assert err == "error: countdown (0, 0) already decides the game\n"


def test_bid_unwinnable_state_is_a_domain_error(capsys):
    code, _, err = run(capsys, "bid", "--variant", "fp-set", "--i", "3", "--j", "2")
    assert code == 1
    assert "cannot be won" in err


def test_oracle_search(capsys):
    # The README transcript, node count included: the search must expand
    # exactly these nodes.
    code, out, _ = run(capsys, "oracle", "--variant", "fp-set", "--turns", "3", "--b2", "4")
    assert code == 0
    assert out == '{"b_star": 6, "ratio": 1.5, "nodes_expanded": 50}\n'


def test_oracle_point_evaluation(capsys):
    code, out, _ = run(
        capsys, "oracle", "--variant", "fp-set", "--turns", "3", "--b2", "4", "--b1", "5"
    )
    assert code == 0
    assert out == '{"b1": 5, "p1_can_win": false, "nodes_expanded": 25}\n'


def test_oracle_grid_unit_flag(capsys):
    code, out, _ = run(
        capsys,
        "oracle", "--variant", "fp-set", "--turns", "3", "--b2", "1", "--grid-unit", "1/4",
    )
    assert code == 0
    assert json.loads(out)["b_star"] == 6


def test_simulate_writes_a_trace_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        "simulate", "--variant", "fp-set", "--turns", "3", "--ratio", "149/100",
        "--adversary", "omnipotent", "--seed", "7", "--trace", str(path),
    )
    assert code == 0
    assert out == "winner=P2 reason=exhausted turns=3\n"
    doc = json.loads(path.read_text())
    assert doc["winner"] == "P2"
    assert doc["config"]["b1"] == 1.49
    assert len(doc["turns"]) == 3


def test_simulate_trace_files_are_reproducible(tmp_path, capsys):
    texts = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(
            capsys,
            "simulate", "--variant", "fp-set", "--turns", "9", "--ratio", "2",
            "--adversary", "random", "--seed", "42", "--trace", str(path),
        )
        assert code == 0
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_verify_success(capsys):
    code, out, _ = run(capsys, "verify", "--variant", "ap-set", "--alpha", "1", "--size", "30")
    assert code == 0
    assert "465 entries match" in out


def test_verify_mismatch_exits_three(monkeypatch, capsys):
    broken = MatrixVerifyReport(FP_SET01, 5, False, 2, (1, 2, Fraction(1), Fraction(1, 2)))
    monkeypatch.setattr(cli, "verify_matrix", lambda variant, n: broken)
    code, out, _ = run(capsys, "verify", "--variant", "fp-set", "--size", "5")
    assert code == 3
    assert "mismatch" in out


def test_verify_without_closed_form_is_a_domain_error(capsys):
    code, _, err = run(capsys, "verify", "--variant", "ap-set", "--alpha", "1/2", "--size", "5")
    assert code == 1
    assert "no closed form" in err


def test_resource_errors_exit_two(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise ResourceError("search budget exhausted")

    monkeypatch.setattr(cli, "min_winning_budget", exhausted)
    code, _, err = run(capsys, "oracle", "--variant", "fp-set", "--turns", "3", "--b2", "4")
    assert code == 2
    assert "exhausted" in err


def test_sizes_above_the_matrix_ceiling_exit_two(capsys):
    for argv in (
        ["matrix", "--variant", "fp-set", "--size", str(MAX_FLOAT_SIDE + 1)],
        ["matrix", "--variant", "fp-set", "--size", str(MAX_EXACT_SIDE + 1), "--exact"],
        ["obr", "--variant", "ap-set", "--alpha", "1/3", "--turns", str(2 * MAX_FLOAT_SIDE + 1)],
        ["obr", "--variant", "ap-fixed", "--alpha", "1/2", "--turns", str(2 * MAX_EXACT_SIDE + 1), "--exact"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: matrix side ") and "ceiling" in err, argv


def test_unknown_variant_exits_one(capsys):
    code, _, err = run(capsys, "obr", "--variant", "second-price", "--turns", "3")
    assert code == 1
    assert "invalid choice" in err


def test_missing_required_flag_exits_one(capsys):
    code, _, _ = run(capsys, "obr", "--variant", "fp-set")
    assert code == 1


def test_bad_number_exits_one(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--variant", "fp-set", "--turns", "3", "--ratio", "three",
        "--adversary", "allin",
    )
    assert code == 1
    assert "not a number" in err


def test_negative_budget_exits_one(capsys):
    code, out, err = run(
        capsys,
        "simulate", "--variant", "fp-set", "--turns", "3", "--ratio", "-1",
        "--adversary", "allin",
    )
    assert code == 1
    assert out == ""
    assert "budget_p1 must be nonnegative" in err
