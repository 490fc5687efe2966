"""The benchmark's tracer can wrap every name it lists, and puts them all back.

``perfbench/tracing.py`` wraps each traced function under the name the
calling module looks it up by, reading ``owner.__dict__[attr]``. A module
that stops importing a traced name makes every ``--trace 1`` run fail with
``KeyError``; this test catches that in the suite instead. It builds the
module namespace as ``perfbench/run.py`` does and changes nothing under
``perfbench/``.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from multibattle import cli, core, matrices, oracle, simulate, strategy

F = Fraction
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_target_and_restores_it_on_exit():
    tracing = load_tracing()
    mb = SimpleNamespace(cli=cli, core=core, matrices=matrices, oracle=oracle,
                         simulate=simulate, strategy=strategy)
    originals = [
        (owner, attr, owner.__dict__[attr])
        for _name, owners, attr, _hook in tracing.targets(mb)
        for owner in owners
    ]
    third = core.AuctionVariant.all_pay(core.ValueModel.SET01, F(1, 3))
    with tracing.Tracer(mb) as tracer:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        verdict = mb.simulate.exhaustive_adversary_check(
            core.GameConfig(core.FP_SET01, 3), F(3, 2), denominator_bound=4
        )
        trace = mb.simulate.run_game(
            core.GameConfig(third, 3),
            mb.matrices.obr(third, 3, exact=True),
            mb.simulate.StrategyPolicy(),
            mb.simulate.OmnipotentAdversary(F(1, 24)),
        )
        text = trace.to_json()
        mb.matrices.build_matrix(third, 2, exact=True)
    assert verdict.win_all and trace.winner is core.Player.P1 and text
    names = {span[1] for span in tracer.spans}
    assert {
        "simulate.sweep",
        "simulate.run_game",
        "core.to_json",
        "core.settle_turn",
        "strategy.next_bid",
        "strategy.observe_outcome",
        "strategy.fresh",
        "matrices.obr",
        "matrices.build_matrix.exact",
        "oracle.adversary.choose_value",
        "oracle.adversary.choose_bid",
    } <= names
    assert tracer.counts["simulate.sweep.states"] == verdict.states_explored
    assert tracer.counts["simulate.turns"] == len(trace.turns)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
