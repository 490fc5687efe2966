"""The three workloads as fixed job lists, each job with its own check.

A job's ``call`` is one public ``multibattle`` call (or ``cli.main``
with its output captured) and is what the benchmark times. Its ``check``
compares the output with an expectation from ``reference`` or with a
known answer that other jobs of the same pass re-prove, raises
``Mismatch`` on disagreement, and returns a small summary that must be
identical every time the job runs at one seed.

Functions are looked up through their modules at call time, so the
tracer's wrappers see every call. The seed picks adversary seeds,
budgets a little above the optimal ratio, sampled matrix cells and bid
states, oracle probes near the known least budget, and the job order;
the amount of work per pass does not depend on it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref
from reference import expect

WORKLOADS = ("solve", "search", "play")

# name -> (cli --variant, all-pay alpha or None); the library objects come from variant().
VARIANTS = {
    "fp-set": ("fp-set", None),
    "fp-fixed": ("fp-fixed", None),
    "ap-set": ("ap-set", None),
    "ap-fixed": ("ap-fixed", None),
    "ap-set@1/3": ("ap-set", Fraction(1, 3)),
    "ap-fixed@1/3": ("ap-fixed", Fraction(1, 3)),
    "ap-fixed@1/2": ("ap-fixed", Fraction(1, 2)),
}
BASE = ("fp-set", "fp-fixed", "ap-set", "ap-fixed")

# (variant, turns, b2, least winning P1 budget in grid units). Every pass
# re-proves b* through evaluate(): P1 loses at b* - 1 and wins at b*.
ORACLE_INSTANCES = [
    ("fp-set", 5, 16, 28), ("fp-set", 7, 16, 31), ("fp-set", 9, 8, 16), ("fp-set", 5, 24, 43),
    ("fp-set", 7, 8, 15),
    ("fp-fixed", 7, 24, 24), ("fp-fixed", 9, 24, 20), ("fp-fixed", 5, 32, 30), ("fp-fixed", 9, 16, 15),
    ("ap-set", 3, 16, 31), ("ap-set", 5, 8, 18), ("ap-set", 7, 8, 19), ("ap-set", 3, 8, 15),
    ("ap-fixed", 5, 12, 18), ("ap-fixed", 7, 12, 18), ("ap-fixed", 9, 12, 16),
    ("ap-set@1/3", 5, 8, 15), ("ap-set@1/3", 7, 6, 12), ("ap-set@1/3", 3, 12, 19),
    ("ap-fixed@1/2", 7, 16, 19), ("ap-fixed@1/2", 9, 12, 13), ("ap-fixed@1/2", 5, 16, 19),
]


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], object]


class Workload:
    """Job factory for one workload; ``mb`` holds the package's modules."""

    def __init__(self, mb, rng: random.Random, out_dir):
        self.mb = mb
        self.rng = rng
        self.out_dir = out_dir
        self.jobs: list[Job] = []

    def add(self, name, call, check):
        self.jobs.append(Job(name, call, check))

    def variant(self, name):
        core = self.mb.core
        flag, alpha = VARIANTS[name]
        values = core.ValueModel.SET01 if flag.endswith("set") else core.ValueModel.FIXED1
        if flag.startswith("fp"):
            return core.AuctionVariant.first_price(values)
        return core.AuctionVariant.all_pay(values, 1 if alpha is None else alpha)

    def cli_args(self, name):
        flag, alpha = VARIANTS[name]
        return ["--variant", flag] + ([] if alpha is None else ["--alpha", str(alpha)])

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.mb.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def transcript(self, argv, stdout, extra=()):
        def check(res):
            rc, out, _err = res
            expect(rc == 0 and out == stdout, f"cli {' '.join(argv)}: got rc={rc} {out!r}")
            return out

        self.add(f"cli {' '.join(argv)}", lambda: self.run_cli(list(argv) + list(extra)), check)

    def obr_exact(self, name, turns):
        """Exact optimal ratio from the paper's formulas (closed form or recurrence)."""
        v = self.variant(name)
        if v.alpha in (0, 1):
            return ref.obr(v.is_triangular, v.alpha, turns)
        return _diagonal(v.is_triangular, v.alpha, ref.ceil_half(turns))

    def obr_upper(self, name, turns):
        """The optimal ratio, or for a fractional alpha a bound just above it.

        The exact recurrence at a fractional alpha grows huge fractions, so
        the bound comes from the float recurrence, rounded up by more than
        its error.
        """
        v = self.variant(name)
        if v.alpha in (0, 1):
            return ref.obr(v.is_triangular, v.alpha, turns)
        x = _diagonal(v.is_triangular, float(v.alpha), ref.ceil_half(turns))
        return Fraction(math.ceil(x * 10**6) + 1, 10**6)

    def above_obr(self, name, turns):
        """A budget ratio at or a little above the optimal one (seed-picked)."""
        return self.obr_upper(name, turns) * Fraction(1000 + self.rng.randrange(50), 1000)


@functools.cache
def _diagonal(set01, alpha, h):
    return ref.diagonal(set01, alpha, h)


def _check_cells(m, v, cells, exact, unwinnable):
    for i, j in cells:
        want = ref.closed_form(v.is_triangular, v.alpha, i, j)
        got = m.entry(i, j)
        if want is None:
            expect(got is unwinnable, f"({i}, {j}) should be unwinnable, got {got}")
        elif exact:
            expect(got == want, f"({i}, {j}): {got} != {want}")
        else:
            expect(ref.close(got, float(want)), f"({i}, {j}): {got} !~ {float(want)}")


def _sample_cells(rng, n, count):
    return [(rng.randint(0, n), rng.randint(1, n)) for _ in range(count)]


def solve(b: Workload):
    mb, rng = b.mb, b.rng
    for name in BASE:
        v = b.variant(name)
        set01, alpha = v.is_triangular, v.alpha

        for n, exact in ((110, True), (600, False)):
            cells = _sample_cells(rng, n, 200)

            def check_build(m, v=v, cells=cells, exact=exact, n=n):
                expect(m.n == n, "wrong size")
                _check_cells(m, v, cells, exact, mb.core.UNWINNABLE)
                return m.n

            b.add(f"build_matrix {name} n={n} exact={exact}",
                  lambda v=v, n=n, exact=exact: mb.matrices.build_matrix(v, n, exact=exact), check_build)

        n = 80
        count = n * (n + 1) // 2 if set01 else n * n

        def check_verify(rep, name=name, n=n, count=count):
            expect(rep.ok and rep.entries_checked == count, f"verify {name}: {rep.summary()}")
            expect(rep.summary() == f"{name} n={n}: {count} entries match closed form", rep.summary())
            return rep.entries_checked

        b.add(f"verify_matrix {name} n={n}", lambda v=v, n=n: mb.matrices.verify_matrix(v, n), check_verify)

        for lo in range(1, 1001, 100):
            ts = range(lo, lo + 100)
            exact = lo % 200 == 1
            k = rng.randrange(8)

            def check_obr(xs, ts=ts, set01=set01, alpha=alpha, exact=exact):
                for t, x in zip(ts, xs):
                    want = ref.obr(set01, alpha, t)
                    expect(x == want if exact else ref.close(x, float(want)), f"obr T={t}: {x} != {want}")
                return len(xs)

            def check_handicap(xs, ts=ts, set01=set01, alpha=alpha, exact=exact, k=k):
                for t, x in zip(ts, xs):
                    want = ref.handicap_obr(set01, alpha, t, k)
                    expect(x == want if exact else ref.close(x, float(want)),
                           f"handicap_obr T={t} k={k}: {x} != {want}")
                return len(xs)

            b.add(f"obr {name} T={lo}..{lo + 99} exact={exact}",
                  lambda v=v, ts=ts, exact=exact: [mb.matrices.obr(v, t, exact=exact) for t in ts], check_obr)
            b.add(f"handicap_obr {name} T={lo}..{lo + 99} k={k} exact={exact}",
                  lambda v=v, ts=ts, k=k, exact=exact: [mb.matrices.handicap_obr(v, t, k, exact=exact) for t in ts],
                  check_handicap)

        for part in range(3):
            states = []
            while len(states) < 1000:
                i, j = rng.randint(1, 200), rng.randint(1, 200)
                if not (set01 and i > j):
                    states.append((i, j))

            def check_bids(rs, states=states, set01=set01, alpha=alpha):
                # Indifference: winning the turn leaves x[i-1][j], losing leaves x[i][j-1].
                for (i, j), r in zip(states, rs):
                    x = ref.closed_form(set01, alpha, i, j)
                    expect(r == x - ref.closed_form(set01, alpha, i - 1, j), f"r*({i}, {j}) = {r}: win side")
                    if not (set01 and i == j) and not (not set01 and j == 1):
                        lose = ref.closed_form(set01, alpha, i, j - 1)
                        expect(x - alpha * r == lose * (1 - r), f"r*({i}, {j}) = {r}: lose side")
                return len(rs)

            b.add(f"optimal_bid_fraction {name} part {part}",
                  lambda v=v, states=states: [mb.strategy.optimal_bid_fraction(v, i, j) for i, j in states],
                  check_bids)

        n = 70
        cells = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(100)]

        def check_csv(res, set01=set01, alpha=alpha, n=n, cells=cells):
            rc, out, _err = res
            rows = [line.split(",") for line in out.splitlines()]
            expect(rc == 0 and len(rows) == n + 1 and rows[0] == ["i\\j"] + [str(j) for j in range(1, n + 1)],
                   "matrix csv shape")
            for i, j in cells:
                want = ref.closed_form(set01, alpha, i, j)
                got = rows[i][j]
                expect(got == ("inf" if want is None else str(want)), f"csv ({i}, {j}) = {got}")
            return len(out)

        def check_json(res, name=name, set01=set01, alpha=alpha, n=n, cells=cells):
            rc, out, _err = res
            doc = json.loads(out)
            expect(rc == 0 and doc["variant"] == name and doc["n"] == n and len(doc["entries"]) == n,
                   "matrix json shape")
            for i, j in cells:
                want = ref.closed_form(set01, alpha, i, j)
                got = doc["entries"][i - 1][j - 1]
                expect(got == (None if want is None else str(want)), f"json ({i}, {j}) = {got}")
            return len(out)

        argv = ["matrix"] + b.cli_args(name) + ["--size", str(n), "--exact"]
        b.add(f"cli matrix {name} csv", lambda argv=argv: b.run_cli(argv), check_csv)
        b.add(f"cli matrix {name} json", lambda argv=argv: b.run_cli(argv + ["--format", "json"]), check_json)

        turns = rng.randint(1, 1000)
        want = ref.obr(set01, alpha, turns)
        b.transcript(["obr"] + b.cli_args(name) + ["--turns", str(turns), "--exact"], f"{want}\n")

    # All-pay at a fractional alpha has no closed form: exact answers go
    # through the dynamic program, checked against the recurrence in floats.
    for name, turns, exact in (
        ("ap-set@1/3", 120, True), ("ap-set@1/3", 160, True), ("ap-fixed@1/3", 120, True),
        ("ap-set@1/3", 4000, False), ("ap-fixed@1/3", 1600, False),
    ):
        v = b.variant(name)

        def check_frac(x, v=v, turns=turns, exact=exact):
            want = _diagonal(v.is_triangular, float(v.alpha), ref.ceil_half(turns))
            expect(isinstance(x, Fraction) == exact, "exactness of the result")
            expect(ref.close(float(x), want), f"obr {v.short_name} T={turns}: {float(x)} !~ {want}")
            return float(x)

        b.add(f"obr {name} T={turns} exact={exact}",
              lambda v=v, turns=turns, exact=exact: mb.matrices.obr(v, turns, exact=exact), check_frac)

    for argv, stdout in ref.README_SOLVE:
        b.transcript(argv, stdout)

    def check_usage(res):
        rc, out, err = res
        expect(rc == 1 and out == "" and err.startswith("error:"), f"turns=0: rc={rc}")
        return rc

    b.add("cli obr turns=0", lambda: b.run_cli(["obr", "--variant", "fp-set", "--turns", "0"]), check_usage)


def search(b: Workload):
    mb, rng = b.mb, b.rng

    def check_search(res, b_star, b2):
        expect(res.b_star == b_star and res.ratio == Fraction(b_star, b2), f"b* = {res.b_star}, want {b_star}")
        return res.b_star, res.nodes_expanded

    def check_eval(res, wins):
        expect(res.can_win == wins, f"evaluate: can_win={res.can_win}, want {wins}")
        return res.can_win, res.nodes_expanded

    for k, (name, turns, b2, b_star) in enumerate(ORACLE_INSTANCES):
        v = b.variant(name)
        tag = f"{name} T={turns} b2={b2}"
        for method in ("linear", "bisect"):
            b.add(f"min_winning_budget {method} {tag}",
                  lambda v=v, turns=turns, b2=b2, method=method:
                      mb.oracle.min_winning_budget(v, turns, b2, method=method),
                  lambda res, b_star=b_star, b2=b2: check_search(res, b_star, b2))
        step = rng.randint(1, 3)
        probe = b_star + step if rng.random() < 0.5 or b_star - 1 - step < 0 else b_star - 1 - step
        for b1 in (b_star - 1, b_star, probe):
            b.add(f"evaluate {tag} b1={b1}",
                  lambda v=v, turns=turns, b1=b1, b2=b2:
                      mb.oracle.evaluate(mb.oracle.OracleInstance(v, turns, b1, b2)),
                  lambda res, wins=b1 >= b_star: check_eval(res, wins))

        argv = ["oracle"] + b.cli_args(name) + ["--turns", str(turns), "--b2", str(b2)]
        if k % 2 == 0:
            def check_cli(res, b_star=b_star, b2=b2):
                rc, out, _err = res
                doc = json.loads(out)
                expect(rc == 0 and doc["b_star"] == b_star and doc["ratio"] == b_star / b2, f"cli oracle: {out}")
                return doc["nodes_expanded"]
        else:
            argv = argv + ["--b1", str(b_star - 1)]

            def check_cli(res, b_star=b_star):
                rc, out, _err = res
                doc = json.loads(out)
                expect(rc == 0 and doc["b1"] == b_star - 1 and doc["p1_can_win"] is False, f"cli oracle: {out}")
                return doc["nodes_expanded"]

        b.add(f"cli {' '.join(argv)}", lambda argv=argv: b.run_cli(argv), check_cli)

    for argv, stdout in ref.README_SEARCH:
        b.transcript(argv, stdout)


def play(b: Workload):
    mb, rng = b.mb, b.rng
    sim = mb.simulate

    def check_games(traces):
        out = []
        for trace, text in traces:
            expect(trace.winner.value == "P1", f"P1 lost at ratio {float(trace.budget_p1)}: {trace.reason}")
            ref.check_conservation(trace)
            doc = json.loads(text)
            expect(doc["winner"] == "P1" and len(doc["turns"]) == len(trace.turns), "JSON trace disagrees")
            out.append((len(trace.turns), trace.reason))
        return out

    def games(name, turns, make_adversary, plays, shared=False):
        config = mb.core.GameConfig(b.variant(name), turns)
        setups = [(b.above_obr(name, turns), rng.randrange(2**31)) for _ in range(plays)]

        def call():
            adversary = make_adversary() if shared else None
            traces = []
            for ratio, seed in setups:
                p2 = adversary or make_adversary()
                trace = sim.run_game(config, ratio, sim.StrategyPolicy(), p2, seed=seed)
                traces.append((trace, trace.to_json()))
            return traces

        return call

    adversaries = {
        "random": lambda: sim.RandomSeededAdversary(),
        "allin": lambda: sim.AllInAdversary(),
        "match": lambda: sim.MatchPlusEpsilonAdversary(),
    }
    for name in BASE:
        for adv, make in adversaries.items():
            for turns in (101, 201, 401, 601, 1001):
                b.add(f"run_game {name} {adv} T={turns}", games(name, turns, make, 1), check_games)
    # StrategyState.fresh rebuilds the exact matrix for every game at a fractional alpha.
    for name in ("ap-set@1/3", "ap-fixed@1/3"):
        for adv, make in adversaries.items():
            b.add(f"run_game {name} {adv} T=101", games(name, 101, make, 1), check_games)
    # One omnipotent adversary per job: its oracle memo stays warm across the games.
    for name, turns in (("fp-set", 5), ("fp-fixed", 7), ("ap-set", 3), ("ap-fixed", 5), ("ap-set@1/3", 3)):
        b.add(f"run_game {name} omnipotent T={turns} x3",
              games(name, turns, lambda: sim.OmnipotentAdversary(Fraction(1, 40)), 3, shared=True), check_games)

    def check_win_all(verdict):
        expect(verdict.win_all and verdict.counterexample is None, "sweep found a loss at the optimal ratio")
        return verdict.states_explored

    for name in BASE + ("ap-set@1/3",):
        for turns, d in ((7, 8), (9, 8)):
            config = mb.core.GameConfig(b.variant(name), turns)
            ratio = b.obr_exact(name, turns)
            b.add(f"sweep {name} T={turns} d={d} at obr",
                  lambda config=config, ratio=ratio, d=d: sim.exhaustive_adversary_check(config, ratio, d),
                  check_win_all)

    def check_counterexample(verdict):
        expect(not verdict.win_all and verdict.counterexample is not None, "no counterexample below obr")
        trace = verdict.counterexample
        expect(trace.winner.value == "P2", "counterexample is not a P2 win")
        ref.check_conservation(trace)
        replay = sim.run_game(trace.config, trace.budget_p1, sim.StrategyPolicy(),
                              _Scripted([(t.value, t.bid_p2) for t in trace.turns]))
        expect(replay.to_json() == trace.to_json(), "counterexample does not replay")
        return verdict.states_explored, len(trace.turns)

    for name, turns, d in (("fp-set", 7, 8), ("fp-set", 9, 8), ("ap-set", 7, 12), ("ap-set@1/3", 7, 8),
                           ("fp-fixed", 7, 12), ("ap-fixed", 7, 12)):
        config = mb.core.GameConfig(b.variant(name), turns)
        ratio = b.obr_exact(name, turns) * Fraction(9, 10)
        b.add(f"sweep {name} T={turns} d={d} below obr",
              lambda config=config, ratio=ratio, d=d: sim.exhaustive_adversary_check(config, ratio, d),
              check_counterexample)

    for k, (name, adv) in enumerate([(n, a) for n in BASE for a in adversaries] + [("ap-set@1/3", "random")]):
        turns = 201 if name in BASE else 61
        ratio_text = str(b.obr_upper(name, turns))
        path = b.out_dir / f"simulate-{k}.json"
        argv = ["simulate"] + b.cli_args(name) + [
            "--turns", str(turns), "--ratio", ratio_text, "--adversary", adv,
            "--seed", str(rng.randrange(2**31)), "--trace", str(path)]

        def check_simulate(res, path=path, alpha=float(b.variant(name).alpha)):
            rc, out, _err = res
            doc = json.loads(path.read_text(encoding="utf-8"))
            played = len(doc["turns"])
            expect(rc == 0 and out == f"winner=P1 reason={doc['reason']} turns={played}\n", f"simulate: {out!r}")
            expect(doc["winner"] == "P1", "P1 lost at the optimal ratio")
            b1, b2 = doc["config"]["b1"], doc["config"]["b2"]
            for t in doc["turns"]:
                pay1, pay2 = ref.payments(alpha, t["bid_p1"], t["bid_p2"])
                for drop, pay in ((b1 - t["budget_p1"], pay1), (b2 - t["budget_p2"], pay2)):
                    expect(abs(drop - pay) <= 1e-9 * max(1.0, abs(pay)), "trace budget drop differs from payment")
                b1, b2 = t["budget_p1"], t["budget_p2"]
            return played

        b.add(f"cli {' '.join(argv[:-2])}", lambda argv=argv: b.run_cli(argv), check_simulate)

    for argv, stdout in ref.README_PLAY:
        b.transcript(argv, stdout, extra=["--trace", str(b.out_dir / "simulate-readme.json")])


class _Scripted:
    """Adversary that replays a fixed list of (value, bid) moves."""

    def __init__(self, moves):
        self._moves = moves
        self._at = 0

    def begin(self, config, budget_p1):
        self._at = 0

    def choose_value(self, state, rng):
        return self._moves[self._at][0]

    def choose_bid(self, state, value, p1_bid, rng):
        q = self._moves[self._at][1]
        self._at += 1
        return q


def make_jobs(mb, workload: str, seed: int, out_dir) -> list[Job]:
    """The workload's job list at this seed, in seed-shuffled order."""
    b = Workload(mb, random.Random(f"{workload}:{seed}"), out_dir)
    {"solve": solve, "search": search, "play": play}[workload](b)
    b.rng.shuffle(b.jobs)
    return b.jobs
