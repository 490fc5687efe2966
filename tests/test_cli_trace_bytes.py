"""Byte-stability guard for the indented trace files ``simulate --trace`` writes.

``trace_digests_indented.json`` pins a sha256 of each case's exit code,
stdout and trace file, recorded before ``GameTrace.to_json`` stopped going
through ``json.dumps``. The cases are four variants (fp-set, fp-fixed,
ap-set at alpha 1/3 and ap-fixed at alpha 1), each against the four CLI
adversaries at T in {3, 21}, with P1 at 9/10 of ``obr``, so both players
win some of them.

Re-record (only for an intended output change) with
``PYTHONPATH=src python tests/test_cli_trace_bytes.py > tests/trace_digests_indented.json``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from multibattle import cli

DIGESTS = Path(__file__).with_name("trace_digests_indented.json")

VARIANTS = [["fp-set"], ["fp-fixed"], ["ap-set", "--alpha", "1/3"], ["ap-fixed"]]
ADVERSARIES = ["allin", "match", "omnipotent", "random"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cases(directory: Path):
    """(name, digest) for every pinned case, in a fixed order."""
    for variant in VARIANTS:
        for turns in (3, 21):
            code, out, _ = _run(["obr", "--variant", *variant, "--turns", str(turns), "--exact"])
            assert code == 0, out
            ratio = str(Fraction(out.strip()) * Fraction(9, 10))
            for adversary in ADVERSARIES:
                path = directory / "trace.json"
                argv = ["simulate", "--variant", *variant, "--turns", str(turns), "--ratio", ratio,
                        "--adversary", adversary, "--seed", str(7 + turns), "--trace", str(path)]
                code, out, err = _run(argv)
                data = path.read_bytes()
                path.unlink()
                name = " ".join(argv[1:-2])
                yield name, hashlib.sha256(f"{code}\n{out}\n{err}\n".encode() + data).hexdigest()


def test_indented_cli_traces_match_the_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    seen = dict(cases(tmp_path))
    assert list(seen) == list(pinned), "the case list changed; the digests no longer apply"
    for name, got in seen.items():
        assert got == pinned[name], f"first differing case: {name}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        json.dump(dict(cases(Path(directory))), sys.stdout, indent=1)
    sys.stdout.write("\n")
