"""The README's command transcripts are what the CLI prints.

Every ``$ multibattle ...`` line in a fenced block of ``README.md`` (with
its ``\\`` continuation lines) is run through ``cli.main`` in-process, in
a temporary directory so that a ``--trace`` file lands there, and its
stdout must equal the lines that follow it in the block, byte for byte.

The module is also runnable directly: ``python tests/test_readme.py`` runs
every transcript through the installed ``multibattle`` command as a
process, each in a new temporary directory, and exits nonzero on the
first one whose exit code, stderr or stdout bytes differ.
"""

import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from multibattle import cli

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


TRANSCRIPTS = transcripts(README.read_text(encoding="utf-8"))


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
