"""The README's command transcripts are what the CLI prints.

Every ``$ multibattle ...`` line in a fenced block of ``README.md`` (with
its ``\\`` continuation lines) is run through ``cli.main`` in-process, in
a temporary directory so that a ``--trace`` file lands there, and its
stdout must equal the lines that follow it in the block, byte for byte.
The "Library" block runs too, and each expression with a ``# value``
comment must equal that value; the "Trace format" JSON must be the trace
of the game the ``simulate`` transcript plays.

The module is also runnable directly: ``python tests/test_readme.py`` runs
every transcript through the installed ``multibattle`` command as a
process, each in a new temporary directory, and exits nonzero on the
first one whose exit code, stderr or stdout bytes differ.
"""

import ast
import json
import shlex
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from multibattle import FP_SET01, GameConfig, OmnipotentAdversary, Player, StrategyPolicy, cli, run_game

README = Path(__file__).resolve().parent.parent / "README.md"


def transcripts(text):
    """(argv, expected stdout) for each ``$ multibattle`` command in the fenced blocks of ``text``."""
    found, command, output, fenced = [], None, [], False

    def close():
        if command is not None:
            found.append((shlex.split(command)[1:], "".join(output)))

    for line in text.splitlines(keepends=True):
        if line.startswith("```"):
            close()
            command, output, fenced = None, [], not fenced
        elif fenced and line.startswith("$ multibattle "):
            close()
            command, output = line[2:], []
        elif command is not None and command.endswith("\\\n"):
            command = command[:-2] + line
        elif command is not None:
            output.append(line)
    return found


def fenced(text, language):
    """The bodies of the blocks of ``text`` fenced as ```language."""
    blocks, body = [], None
    for line in text.splitlines(keepends=True):
        if body is None and line == f"```{language}\n":
            body = []
        elif body is not None and line.startswith("```"):
            blocks.append("".join(body))
            body = None
        elif body is not None:
            body.append(line)
    return blocks


TEXT = README.read_text(encoding="utf-8")
TRANSCRIPTS = transcripts(TEXT)


def test_the_readme_has_a_transcript_for_every_subcommand():
    assert {argv[0] for argv, _ in TRANSCRIPTS} == {"obr", "matrix", "bid", "oracle", "simulate", "verify"}


@pytest.mark.parametrize("argv, stdout", TRANSCRIPTS, ids=[" ".join(argv) for argv, _ in TRANSCRIPTS])
def test_readme_transcript(argv, stdout, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == stdout
    if "--trace" in argv:
        assert (tmp_path / argv[argv.index("--trace") + 1]).read_text(encoding="utf-8").startswith("{")


def test_the_library_example_runs_and_each_commented_value_holds():
    (source,) = fenced(TEXT, "python")
    lines = source.splitlines()
    namespace, checked = {}, []
    for statement in ast.parse(source).body:
        code = ast.unparse(statement)
        line = lines[statement.end_lineno - 1]
        if isinstance(statement, ast.Expr) and "  # " in line:
            expected = line.split("  # ", 1)[1].strip()
            got = eval(code, namespace)
            assert got == eval(expected, {**namespace, "Player": Player}), (code, expected)
            checked.append(expected)
        else:
            exec(code, namespace)
    assert checked == ["Fraction(3, 2)", "Fraction(4, 5)", "6", "(Player.P1, 'countdown')"]


def test_the_trace_format_is_the_trace_of_the_simulate_transcript():
    (argv,) = [argv for argv, _ in TRANSCRIPTS if argv[0] == "simulate"]
    assert argv[1:] == ["--variant", "fp-set", "--turns", "3", "--ratio", "3/2",
                        "--adversary", "omnipotent", "--trace", "game.json"]
    trace = run_game(GameConfig(FP_SET01, 3), Fraction(3, 2), StrategyPolicy(), OmnipotentAdversary())
    (document,) = fenced(TEXT, "json")
    assert json.loads(document) == trace.to_json_dict()


def main():
    exe = shutil.which("multibattle")
    if exe is None:
        print("no multibattle command on PATH; install the package first", flush=True)
        return 1
    for argv, stdout in TRANSCRIPTS:
        with tempfile.TemporaryDirectory() as tmp:
            run = subprocess.run([exe, *argv], cwd=tmp, capture_output=True)
        command = shlex.join(["multibattle", *argv])
        if (run.returncode, run.stderr, run.stdout) != (0, b"", stdout.encode("utf-8")):
            print(f"MISMATCH: {command}\nexit {run.returncode}, stderr {run.stderr!r}", flush=True)
            sys.stdout.buffer.write(b"--- expected\n" + stdout.encode("utf-8") + b"--- got\n" + run.stdout)
            return 1
        print(f"ok: {command}", flush=True)
    print(f"all {len(TRANSCRIPTS)} transcripts match", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
