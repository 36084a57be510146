"""The benchmark's four workloads, each a closed loop of operations ("ops").

A workload is built once per process (the timed set-up) and then yields its
ops cycle by cycle.  Cycle `c` reuses the inputs of cycle `c % pool`, so a
stored reference covers every op a run can issue.  Each op's output is
reduced to a compact, JSON-stable summary that is compared exactly with the
stored reference; for an op or seed without a reference the raw output is
checked against invariants instead.

All package calls go through module attributes (`engine.run`, not a name
imported here) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import bandshare
from bandshare import cli, engine, verifier

PROFIT_TOL = 1e-9  # the verifier's default tolerance

README_DYNAMIC = """\
scenario.n = 2
scenario.w_mhz = 100
scenario.p_linear = 1000
scenario.delta = 0.99
utility.family = cobb_douglas
traffic.op1.p_high = 0.25
traffic.op2.p_high = 0.5
scheme.kind = dynamic
scheme.trade_mhz = auto
scheme.balance_cap_mhz = 50
scheme.punishment_T = auto
sim.horizon = auto
sim.seed = {seed}
sim.replications = 1
"""


def _scenario_text(n: int, highs, body: str) -> str:
    head = (
        f"scenario.n = {n}\nscenario.w_mhz = 100\nscenario.p_linear = 1000\n"
        "scenario.delta = 0.99\nutility.family = cobb_douglas\n"
    )
    traffic = "".join(f"traffic.op{i}.p_high = {p}\n" for i, p in enumerate(highs, start=1))
    return head + traffic + body


STATIC_N16 = _scenario_text(
    16, [0.5] * 16,
    "scheme.kind = static\nscheme.punishment_T = auto\n"
    "sim.horizon = 120\nsim.seed = {seed}\nsim.replications = 1\n",
)
# the full-spectrum floor utility is 25.31 at 14 operators and 23.73 at 15,
# so at this cost 14 of the 16 arrivals enter
ENTRY_N16 = _scenario_text(
    16, [0.5] * 16,
    "scheme.kind = entry\nentry.cost = 24.5\n"
    "sim.horizon = 120\nsim.seed = {seed}\nsim.replications = 1\n",
)
STATIC_N4 = _scenario_text(
    4, [0.25, 0.5, 0.25, 0.5],
    "scheme.kind = static\nscheme.punishment_T = auto\nsim.horizon = auto\nsim.seed = 7\n",
)
# a valid three-operator dynamic scenario, which `verify` rejects today
# ("the balance chain view covers two operators")
DYNAMIC_N3 = _scenario_text(
    3, [0.25, 0.5, 0.5],
    "scheme.kind = dynamic\nscheme.trade_mhz = 10\nscheme.balance_cap_mhz = 50\n"
    "scheme.punishment_T = auto\nsim.horizon = auto\nsim.seed = 7\n",
)


# ops that fail at this code without their output being wrong; any other op
# that raises or exits with an error status makes the run incorrect
KNOWN_FAILURES = frozenset({"verify/dynamic_n3"})


class OpError(RuntimeError):
    """The op ran but reported an error (a CLI error exit)."""


@dataclass
class Op:
    key: str  # reference key; equal keys take equal inputs
    run: Callable[[], object]  # the timed call
    summarize: Callable[[object], object]  # JSON-stable summary of the output
    check: Callable[[object], str | None]  # invariants of the output: a problem or None
    work: dict = field(default_factory=dict)  # e.g. {"slot_reps": 1833}


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _max_utility(scenario) -> float:
    return max(
        scenario.model.max_utility(lv) for spec in scenario.traffic_specs for lv in spec.levels
    )


def _revenue_check(u_max: float, revenues_of):
    def check(out):
        revenues = revenues_of(out)
        if not _finite(revenues):
            return "non-finite revenue"
        if any(not 0.0 <= r <= u_max for r in revenues):
            return f"revenue outside [0, {u_max}]"
        return None

    return check


def _findings_summary(findings) -> dict:
    digest = hashlib.sha256()
    for f in findings:
        digest.update(repr((
            f.operator, f.kind, f.gain.hex(), f.loss.hex(), f.profitable,
            f.balances_mhz, f.traffic, f.estimate_se,
        )).encode())
    return {
        "findings": len(findings),
        "profitable": sum(1 for f in findings if f.profitable),
        "sha256": digest.hexdigest(),
    }


def _findings_check(n: int):
    def check(findings):
        for f in findings:
            if not 0 <= f.operator < n or f.kind not in ("lie_high", "lie_low"):
                return f"malformed finding {f.operator, f.kind}"
            if not _finite((f.gain, f.loss)):
                return "non-finite gain or loss"
            if f.profitable != (f.gain > f.loss + PROFIT_TOL):
                return "profitable flag disagrees with gain and loss"
        return None

    return check


class Workload:
    name = ""
    pool = 1  # cycles with distinct inputs
    trace_cycles_per_s = 1.0  # cycles a traced run makes per second of --seconds

    def setup_outputs(self) -> dict:
        """Results of the set-up itself that the reference pins."""
        return {}

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError


class DynamicHarmN2(Workload):
    """README dynamic scenario: a baseline replication plus three paired deviations."""

    name = "dynamic_harm_n2"
    pool = 128
    trace_cycles_per_s = 2.0
    INJECT_SLOT = 100

    def __init__(self, seed: int, out_dir: str):
        self.scenario = cli.parse_scenario(README_DYNAMIC.format(seed=seed))
        self.check = _revenue_check(_max_utility(self.scenario), lambda out: out[1].revenues)
        inject = engine.DeviationInjector
        slot = self.INJECT_SLOT
        self.variants = {
            "baseline": (),
            "lie_high_op1": (inject(0, slot, engine.LIE_HIGH),),
            "lie_low_op2": (inject(1, slot, engine.LIE_LOW),),
            "full_band_op1": (inject(0, slot, engine.FULL_BAND),),
        }

    def setup_outputs(self) -> dict:
        p = self.scenario.scheme.params
        return {"trade_mhz": p.trade_mhz, "cap_units": p.cap_units,
                "punishment_slots": p.punishment_slots, "horizon": self.scenario.horizon}

    def cycle(self, c: int) -> list[Op]:
        rep = c % self.pool
        work = {"slot_reps": self.scenario.horizon}
        return [
            Op(
                f"r{rep}/{label}",
                lambda inj=injectors: engine.run(
                    self.scenario, inj, replication=rep, collect_trace=False
                ),
                lambda out: list(out[1].revenues),
                self.check,
                work,
            )
            for label, injectors in self.variants.items()
        ]


class StaticEntryN16(Workload):
    """Alternating replications of a 16-operator static and entry scenario."""

    name = "static_entry_n16"
    pool = 64
    trace_cycles_per_s = 0.8
    DEVIATION_SLOT = 30

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.static = cli.parse_scenario(STATIC_N16.format(seed=seed))
        self.entry = cli.parse_scenario(ENTRY_N16.format(seed=seed))
        self.static_check = _revenue_check(_max_utility(self.static), self._means)
        self.entry_check = _revenue_check(_max_utility(self.entry), self._means)
        self.deviation = (engine.DeviationInjector(0, self.DEVIATION_SLOT, engine.FULL_BAND),)

    @staticmethod
    def _means(summary):
        return list(summary.means)

    def setup_outputs(self) -> dict:
        return {"static_punishment_slots": self.static.scheme.params.punishment_slots}

    def cycle(self, c: int) -> list[Op]:
        rep = c % self.pool
        rep_seed = self.seed * 100_000 + rep  # one replication per op, seeded per cycle
        static = dataclasses.replace(self.static, seed=rep_seed)
        entry_scn = dataclasses.replace(self.entry, seed=rep_seed)
        return [
            Op(f"r{rep}/static_full_band", lambda: engine.replicate(static, self.deviation),
               self._means, self.static_check, {"slot_reps": static.horizon}),
            Op(f"r{rep}/entry", lambda: engine.replicate(entry_scn),
               self._means, self.entry_check, {"slot_reps": entry_scn.horizon}),
        ]


def _cli(argv, ok_codes, csv_path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in ok_codes:
        raise OpError(f"exit {code}: {err.getvalue().strip()}")
    with open(csv_path, encoding="utf-8") as fh:
        return code, fh.read()


def _fig_summary(out):
    code, text = out
    return {"exit": code, "rows": text.splitlines()[1:]}


def _fig_check(columns: int, key: float):
    def check(out):
        rows = out[1].splitlines()[1:]
        if len(rows) != 1:
            return "expected one row"
        values = [float(v) for v in rows[0].split(",")]
        if len(values) != columns or not _finite(values) or values[0] != key:
            return f"malformed row {rows[0]!r}"
        if columns == 4 and any(v < 0 for v in values[1:]):
            return "negative revenue"
        return None

    return check


def _verify_summary(out):
    code, text = out
    rows = text.splitlines()[1:]
    return {
        "exit": code,
        "findings": len(rows),
        "profitable": sum(1 for row in rows if row.endswith(",1")),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _verify_check(out):
    code, text = out
    profitable = 0
    for row in text.splitlines()[1:]:
        parts = row.rsplit(",", 4)  # the state label itself contains commas
        if len(parts) != 5 or parts[1] not in ("lie_high", "lie_low", "detectable"):
            return f"malformed finding {row!r}"
        gain, loss, flag = float(parts[2]), float(parts[3]), int(parts[4])
        if not _finite((gain, loss)) or flag != int(gain > loss + PROFIT_TOL):
            return f"inconsistent finding {row!r}"
        profitable += flag
    if code != (1 if profitable else 0):
        return "exit status disagrees with the verdict"
    return None


class CertifySweep(Workload):
    """In-process CLI: fig3 and fig4 per default grid point, and four `verify` runs."""

    name = "certify_sweep"
    pool = 1
    trace_cycles_per_s = 0.1
    SCENARIOS = {
        "dynamic": README_DYNAMIC.format(seed=7),
        "static": STATIC_N4,
        "entry": ENTRY_N16.format(seed=7),
        "dynamic_n3": DYNAMIC_N3,
    }

    def __init__(self, seed: int, out_dir: str):
        fig_dir = os.path.join(out_dir, "fig")
        ops = []
        for p_db in range(0, 31):  # the default fig3 grid
            argv = ["fig3", "--grid", f"{p_db}.0", "--out", fig_dir]
            ops.append(Op(f"fig3/{p_db}", self._runner(argv, {0}, fig_dir, "fig3.csv"),
                          _fig_summary, _fig_check(4, float(p_db))))
        for cap in range(50, 401, 50):  # the default fig4 grid
            argv = ["fig4", "--grid", f"{cap}.0", "--out", fig_dir]
            ops.append(Op(f"fig4/{cap}", self._runner(argv, {0}, fig_dir, "fig4.csv"),
                          _fig_summary, _fig_check(2, float(cap))))
        for label, text in self.SCENARIOS.items():
            path = os.path.join(out_dir, f"{label}.scn")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            op_dir = os.path.join(out_dir, label)
            argv = ["verify", path, "--out", op_dir]
            # exit 1 is a verdict (a profitable deviation exists), not an error
            ops.append(Op(f"verify/{label}", self._runner(argv, {0, 1}, op_dir, "findings.csv"),
                          _verify_summary, _verify_check))
        random.Random(seed).shuffle(ops)
        self.ops = ops

    @staticmethod
    def _runner(argv, ok_codes, out_dir, csv_name):
        csv_path = os.path.join(out_dir, csv_name)
        return lambda: _cli(argv, ok_codes, csv_path)

    def cycle(self, c: int) -> list[Op]:
        return self.ops


class VerifyJoint(Workload):
    """Single verifier calls on the joint n-operator chain and the MC paths."""

    name = "verify_joint"
    pool = 1
    trace_cycles_per_s = 0.03
    # (label, n, cap units, trade MHz, exact_limit or None for the default)
    N_OP_CASES = (
        ("n_ops_exact_n4_k5", 4, 5, 5.0, None),
        ("n_ops_exact_n5_k3", 5, 3, 5.0, None),
        ("n_ops_iterative_n3_k30", 3, 30, 1.0, None),  # > 2000 states: value iteration
        ("n_ops_mc_n6_k2", 6, 2, 5.0, 1000),  # 1751 states, forced onto paired MC
    )
    MC_OPTIONS = {"mc_states": 4, "mc_replications": 100}
    MC_VALUE_REPLICATIONS = 1000

    def __init__(self, seed: int, out_dir: str):
        model = bandshare.UtilityModel(100.0, 1000.0, family=bandshare.CobbDouglasUtility())
        ops = []
        for label, n, k, trade, limit in self.N_OP_CASES:
            params = bandshare.params_for_cap(n, 100.0, trade, k * trade)
            specs = [bandshare.two_level(0.25 if i % 2 == 0 else 0.5) for i in range(n)]
            kwargs = {"seed": seed}
            work = {}
            if limit is None:
                work = {"states": verifier.count_balance_states(n, k)}
            else:
                kwargs.update(exact_limit=limit, **self.MC_OPTIONS)
            ops.append(Op(
                label,
                lambda p=params, s=specs, kw=kwargs: verifier.verify_truthfulness_n_ops(
                    p, model, s, 0.99, **kw
                ),
                _findings_summary, _findings_check(n), work,
            ))
        scenario = cli.parse_scenario(README_DYNAMIC.format(seed=seed))
        chain = verifier.build_balance_chain(
            scenario.scheme.params, scenario.model, list(scenario.traffic_specs)
        )
        u_max = _max_utility(scenario)

        def mc_summary(out):
            means, ses = out
            return {"means": [float(v) for v in means], "ses": [float(v) for v in ses]}

        def mc_check(out):
            means, ses = (list(map(float, a)) for a in out)
            if not _finite(means + ses):
                return "non-finite estimate"
            if any(not 0.0 <= m <= u_max for m in means):
                return "value estimate outside [0, max utility]"
            if any(s < 0 for s in ses):
                return "negative standard error"
            return None

        ops.append(Op(
            "mc_value_estimate_n2",
            lambda: verifier.mc_value_estimate(chain, 0.99, self.MC_VALUE_REPLICATIONS, seed),
            mc_summary, mc_check,
        ))
        self.ops = ops

    def cycle(self, c: int) -> list[Op]:
        return self.ops


WORKLOADS = {
    cls.name: cls for cls in (DynamicHarmN2, StaticEntryN16, CertifySweep, VerifyJoint)
}
