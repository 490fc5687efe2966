"""Command-line surface: outputs, formats, and exit codes."""

import argparse
import contextlib
import hashlib
import json
import os
import time
import tracemalloc
from fractions import Fraction

import pytest

from multibattle import cli, oracle, simulate
from multibattle.core import ResourceError
from multibattle.matrices import MAX_EXACT_SIDE, MAX_FLOAT_SIDE, MatrixVerifyReport
from multibattle import (
    AP_FIXED1,
    AP_SET01,
    FP_FIXED1,
    FP_SET01,
    AuctionVariant,
    Pricing,
    ValueModel,
    build_matrix,
)

# Exact and float, value-set and fixed-value, with and without a closed form.
MATRIX_VARIANTS = [
    FP_SET01,
    FP_FIXED1,
    AP_SET01,
    AP_FIXED1,
    AuctionVariant.all_pay(ValueModel.SET01, Fraction(1, 3)),
    AuctionVariant.all_pay(ValueModel.FIXED1, Fraction(1, 2)),
]


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


# The least argv each subcommand takes besides --variant.
MINIMAL_ARGV = {
    "obr": ["--turns", "3"],
    "matrix": ["--size", "3"],
    "bid": ["--i", "1", "--j", "2"],
    "oracle": ["--turns", "3", "--b2", "2"],
    "simulate": ["--turns", "3", "--ratio", "2", "--adversary", "allin"],
    "verify": ["--size", "3"],
}


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
def test_alpha_is_refused_on_first_price_and_defaults_to_one_on_all_pay(command, capsys):
    for name in ("fp-set", "fp-fixed"):
        # Core takes a first-price variant at alpha = 0; the CLI refuses any --alpha on one.
        got = run(capsys, command, "--variant", name, "--alpha", "0", *MINIMAL_ARGV[command])
        assert got == (1, "", "error: --alpha only applies to all-pay variants\n")
    for name in ("ap-set", "ap-fixed"):
        default = run(capsys, command, "--variant", name, *MINIMAL_ARGV[command])
        assert default[0] == 0
        assert default == run(capsys, command, "--variant", name, "--alpha", "1", *MINIMAL_ARGV[command])


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


class _HashingSink:
    """A stdout that keeps only a hash of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.length = 0

    def write(self, text):
        self.digest.update(text.encode())
        self.length += len(text)
        return len(text)

    def flush(self):
        pass


def test_matrix_csv_streams_in_far_less_memory_than_its_text():
    argv = ["matrix", "--variant", "ap-fixed", "--alpha", "1/2", "--size", "120", "--exact"]
    with contextlib.redirect_stdout(_HashingSink()):
        cli.main(argv[:-3] + ["2", "--exact"])  # warm up the parser outside the trace
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csv = build_matrix(AuctionVariant.all_pay(ValueModel.FIXED1, Fraction(1, 2)), 120, exact=True).to_csv()
    assert code == 0
    assert (sink.length, sink.digest.hexdigest()) == (len(csv), hashlib.sha256(csv.encode()).hexdigest())
    # Entries reach 107 digits here; the whole matrix or its text would not fit.
    assert peak < len(csv) / 4, (peak, len(csv))


def test_matrix_json_streams_in_far_less_memory_than_its_text():
    argv = ["matrix", "--variant", "fp-fixed", "--size", "400", "--format", "json"]
    with contextlib.redirect_stdout(_HashingSink()):
        cli.main(argv[:4] + ["2"] + argv[5:])  # warm up the parser outside the trace
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = json.dumps(build_matrix(FP_FIXED1, 400).to_json_dict()) + "\n"
    assert code == 0
    assert (sink.length, sink.digest.hexdigest()) == (len(text), hashlib.sha256(text.encode()).hexdigest())
    # 160,000 floats: the whole matrix, its lists or its text would not fit.
    assert peak < len(text) / 8, (peak, len(text))


@pytest.mark.parametrize("variant", MATRIX_VARIANTS, ids=lambda v: f"{v.short_name}-{v.alpha}")
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_matrix_json_prints_json_dumps_of_the_built_matrix(capsys, variant, exact):
    flags = ["--variant", variant.short_name, "--alpha", str(variant.alpha)]
    if variant.pricing is Pricing.FIRST_PRICE:
        flags = flags[:2]
    for n in (1, 2, 7, 40):
        code, out, err = run(capsys, "matrix", *flags, "--size", str(n), "--format", "json",
                             *(["--exact"] if exact else []))
        assert (code, err) == (0, "")
        assert out == json.dumps(build_matrix(variant, n, exact=exact).to_json_dict()) + "\n", n


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


def test_verify_at_a_fractional_alpha(capsys):
    # A fractional alpha has binomial closed forms: verify checks them and exits 0.
    code, out, err = run(capsys, "verify", "--variant", "ap-set", "--alpha", "1/2", "--size", "5")
    assert (code, out, err) == (0, "ap-set n=5: 15 entries match closed form\n", "")
    code, out, _ = run(capsys, "verify", "--variant", "ap-fixed", "--alpha", "12345/65536", "--size", "8")
    assert (code, out) == (0, "ap-fixed n=8: 64 entries match closed form\n")


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
        ["simulate", "--variant", "ap-set", "--alpha", "1/3", "--turns", str(2 * MAX_EXACT_SIDE + 1),
         "--ratio", "4", "--adversary", "allin"],
        ["bid", "--variant", "ap-fixed", "--alpha", "1/2",
         "--i", str(MAX_EXACT_SIDE + 1), "--j", str(MAX_EXACT_SIDE + 1)],
        # Diagonal and column-1 cells read the table like every other cell.
        ["bid", "--variant", "ap-set", "--alpha", "1/3",
         "--i", str(MAX_EXACT_SIDE + 1), "--j", str(MAX_EXACT_SIDE + 1)],
        ["bid", "--variant", "ap-fixed", "--alpha", "1/2", "--i", "600", "--j", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: matrix side ") and "ceiling" in err, argv


def test_turns_past_the_depth_and_playout_ceilings_exit_two(capsys):
    """Each of these overflowed the recursion limit or grew memory without bound."""
    depth = f"depth ceiling is {oracle.MAX_TURNS} turns"
    for argv, message in (
        (["oracle", "--variant", "fp-set", "--turns", "501", "--b2", "1"], depth),
        (["simulate", "--variant", "fp-set", "--turns", "1001", "--ratio", "3", "--adversary", "omnipotent"], depth),
        (["simulate", "--variant", "fp-set", "--turns", "100000000", "--ratio", "4", "--adversary", "allin"],
         f"playout ceiling of {simulate.MAX_GAME_TURNS} turns"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, ""), argv
        assert message in err, argv


@pytest.mark.parametrize("argv, message", [
    ("obr --variant fp-set --turns 0", "turns must be >= 1, got 0"),
    ("obr --variant fp-set --turns 5 --handicap -1", "handicap must be >= 0, got -1"),
    ("matrix --variant fp-set --size 0", "matrix size must be >= 1, got 0"),
    ("simulate --variant fp-set --turns 3 --ratio -1 --adversary allin", "budget_p1 must be nonnegative"),
    ("obr --variant fp-set --turns 3 --alpha 1/2", "--alpha only applies to all-pay variants"),
])
def test_argument_errors_exit_one_with_their_one_stderr_line(argv, message, capsys):
    # --handicap -1 used to read "handicap must be nonnegative, got -1"; the others are unchanged.
    assert run(capsys, *argv.split()) == (1, "", f"error: {message}\n")


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


def test_negative_opponent_budget_exits_one(capsys):
    code, out, err = run(capsys, "bid", "--variant", "fp-set", "--i", "2", "--j", "3", "--opponent-budget", "-1")
    assert (code, out) == (1, "")
    assert err == "error: opponent budget must be nonnegative, got -1\n"
    code, out, _ = run(capsys, "bid", "--variant", "fp-set", "--i", "2", "--j", "3", "--opponent-budget", "0")
    assert (code, out) == (0, "r* = 0.4666666666666667\nbid = 0\n")


def test_a_bid_beyond_float_range_exits_one_unless_exact(capsys):
    argv = ["bid", "--variant", "fp-set", "--i", "2", "--j", "3", "--opponent-budget", "1e400"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: the bid is too large for a float; use --exact to print it exactly\n"
    code, out, err = run(capsys, *argv, "--exact")
    assert (code, err) == (0, "")
    assert out == f"r* = 7/15\nbid = {Fraction(7, 15) * 10**400}\n"


def test_an_unwritable_trace_path_exits_one(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys,
        "simulate", "--variant", "fp-set", "--turns", "3", "--ratio", "3/2",
        "--adversary", "allin", "--trace", str(path),
    )
    assert code == 1
    assert out == "winner=P1 reason=exhausted turns=3\n"
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert not path.exists()


def test_a_trace_beyond_float_range_exits_one_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "trace.json"
    argv = ["simulate", "--variant", "fp-set", "--turns", "3", "--ratio", "1e400", "--adversary", "allin"]
    argv += ["--trace", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: a trace amount is too large for a float; the trace was not written\n"
    assert not path.exists()
    # The text is built before the file is opened, so an existing trace keeps its bytes.
    path.write_bytes(b"an older trace")
    assert run(capsys, *argv)[:2] == (1, "")
    assert path.read_bytes() == b"an older trace"
    code, out, _ = run(capsys, *argv[:-2])
    assert (code, out) == (0, "winner=P1 reason=exhausted turns=3\n")


def _simulate_trace(capsys, path, turns):
    argv = ["simulate", "--variant", "fp-set", "--turns", str(turns), "--ratio", "2", "--adversary", "random"]
    code, out, err = run(capsys, *argv, "--seed", "42", "--trace", str(path))
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("before, after", [(40, 3), (3, 40)], ids=["shorter-over-longer", "longer-over-shorter"])
def test_a_trace_over_an_existing_file_reads_back_as_a_fresh_write(tmp_path, capsys, monkeypatch, before, after):
    fresh, path = tmp_path / "fresh.json", tmp_path / "trace.json"
    _simulate_trace(capsys, fresh, after)
    _simulate_trace(capsys, path, before)
    path.chmod(0o640)
    old = path.stat()
    opened = []
    real_open = os.open
    monkeypatch.setattr(os, "open", lambda p, flags, *a: opened.append(flags) or real_open(p, flags, *a))
    _simulate_trace(capsys, path, after)
    assert path.read_bytes() == fresh.read_bytes()
    new = path.stat()
    assert new.st_size != old.st_size
    assert (new.st_ino, new.st_mode) == (old.st_ino, old.st_mode)
    # The file is never cut to zero first: ext4 flushes a file's data at close after that.
    assert len(opened) == 1 and not opened[0] & os.O_TRUNC


def test_a_trace_through_a_symlink_writes_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 100_000)
    link.symlink_to(target)
    _simulate_trace(capsys, link, 9)
    assert link.is_symlink() and link.resolve() == target
    _simulate_trace(capsys, tmp_path / "fresh.json", 9)
    assert target.read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_a_trace_to_dev_null_exits_zero(capsys):
    # /dev/null is not a regular file, so it is written but not truncated.
    assert _simulate_trace(capsys, os.devnull, 9).startswith("winner=")


def test_a_directory_trace_path_exits_one(tmp_path, capsys):
    argv = ["simulate", "--variant", "fp-set", "--turns", "3", "--ratio", "3/2", "--adversary", "allin"]
    code, out, err = run(capsys, *argv, "--trace", str(tmp_path))
    assert (code, out) == (1, "winner=P1 reason=exhausted turns=3\n")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def _options(parser, path=()):
    """Yield (subcommand path, action) for every option of the parser and its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, path + (name,))
        elif action.option_strings:
            yield path, action


def test_every_option_has_help():
    options = list(_options(cli.build_parser()))
    assert len(options) > 30
    missing = [(path, action.option_strings) for path, action in options
               if action.option_strings != ["-h", "--help"] and not (action.help or "").strip()]
    assert missing == []


# One sequence through every outcome main has: each subcommand, a usage
# error and a bad choice (exit 1), a resource error (exit 2), a failed
# domain check (exit 1) and --help (SystemExit 0), twice over.
_SEQUENCE = [
    ["obr", "--variant", "fp-set", "--turns", "9", "--exact"],
    ["matrix", "--variant", "ap-set", "--alpha", "1/3", "--size", "3", "--format", "json"],
    ["obr", "--variant", "fp-set"],
    ["bid", "--variant", "fp-fixed", "--i", "2", "--j", "3"],
    ["--help"],
    ["oracle", "--variant", "fp-set", "--turns", "3", "--b2", "4"],
    ["matrix", "--variant", "fp-set", "--size", str(MAX_FLOAT_SIDE + 1)],
    ["simulate", "--variant", "ap-fixed", "--turns", "9", "--ratio", "2", "--adversary", "random", "--seed", "3"],
    ["simulate", "--help"],
    ["verify", "--variant", "ap-set", "--size", "12"],
    ["obr", "--variant", "second-price", "--turns", "3"],
    ["bid", "--variant", "fp-set", "--i", "3", "--j", "2"],
    ["matrix", "--variant", "fp-fixed", "--size", "3"],
]


def _outcomes(capsys):
    """(exit code, stdout, stderr) of each call in ``_SEQUENCE * 2``; --help's exit code is its SystemExit's."""
    results = []
    for argv in _SEQUENCE * 2:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_the_reused_parser_gives_what_fresh_parsers_give(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")  # help text wraps at the terminal width
    shared = _outcomes(capsys)
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _outcomes(capsys)
    assert shared == fresh
    codes = [code for code, _, _ in shared[: len(_SEQUENCE)]]
    assert codes == [0, 0, 1, 0, ("SystemExit", 0), 0, 2, 0, ("SystemExit", 0), 0, 1, 1, 0]
    assert shared[4][1].startswith("usage: multibattle") and shared[8][1].startswith("usage: multibattle simulate")


def test_oracle_node_ceiling_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_NODES", 50)
    code, out, err = run(capsys, "oracle", "--variant", "fp-set", "--turns", "3", "--b2", "4")
    assert (code, out) == (2, "")
    assert err == (
        "error: grid oracle reached its ceiling of 50 expanded nodes at turns=3, b2=4 grid units; "
        "use fewer turns or a smaller b2\n"
    )
    monkeypatch.setattr(oracle, "MAX_NODES", 26)
    code, out, _ = run(capsys, "oracle", "--variant", "fp-set", "--turns", "3", "--b2", "4", "--b1", "5")
    assert (code, out) == (0, '{"b1": 5, "p1_can_win": false, "nodes_expanded": 25}\n')
