"""The memory ceilings of the largest playout, the largest float fill and the sweep's state ceiling.

Each check runs in a fresh Python and reads ``ru_maxrss`` there (KB on
Linux), as the "Longest game", "Float ceiling memory" and "Sweep state
ceiling" steps of the CI workflow do. A process keeps its ``ru_maxrss`` across ``exec``, and a
child forked from the test session starts at the session's resident
size, so the check is started by a small launcher process instead.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PEAK_KB = 80 * 1024
# The sweep's memo at its 500,000-state ceiling, about 250 bytes a state.
SWEEP_PEAK_KB = 160 * 1024
# Runs argv[1] in a child of this small process, whose resident size is all that child starts from.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"


def run_child(code):
    """The stdout words of ``code``, run by a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", LAUNCHER, code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_the_longest_game_plays_under_its_memory_ceiling():
    # run_game keeps one TurnRecord per turn: 66,761 of them peak at about 41 MB.
    winner, turns, peak_kb, refused = run_child("""
import resource
from multibattle import FP_SET01, GameConfig, RandomSeededAdversary, ResourceError, StrategyPolicy, run_game
trace = run_game(GameConfig(FP_SET01, 100_000), 3, StrategyPolicy(), RandomSeededAdversary())
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    run_game(GameConfig(FP_SET01, 100_001), 3, StrategyPolicy(), RandomSeededAdversary())
    refused = "played"
except ResourceError:
    refused = "refused"
print(trace.winner.value, len(trace.turns), peak_kb, refused)
""")
    assert (winner, int(turns), refused) == ("P1", 66_761, "refused")
    assert int(peak_kb) < PEAK_KB, peak_kb


def test_the_largest_float_fill_stays_under_its_memory_ceiling():
    # Packed rows take 34 MB at side 2048; rows of Python floats would take four times that.
    (peak_kb,) = run_child("""
import resource
from multibattle import FP_FIXED1, build_matrix
build_matrix(FP_FIXED1, 2048)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
""")
    assert int(peak_kb) < PEAK_KB, peak_kb


def test_the_sweep_stops_at_its_state_ceiling_under_its_memory_ceiling():
    # At T = 41 and a grid bound of 64 the sweep would explore far more than
    # MAX_SWEEP_STATES states; it raises at the ceiling instead.
    peak_kb, *message = run_child("""
import resource
from multibattle import FP_SET01, GameConfig, ResourceError, exhaustive_adversary_check, obr
try:
    exhaustive_adversary_check(GameConfig(FP_SET01, 41), obr(FP_SET01, 41, exact=True), 64)
    message = "the sweep ran past its state ceiling"
except ResourceError as exc:
    message = str(exc)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, message)
""")
    assert " ".join(message).startswith("exhaustive sweep exceeded 500000 states "), message
    assert int(peak_kb) < SWEEP_PEAK_KB, peak_kb
