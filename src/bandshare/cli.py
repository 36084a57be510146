"""Command line front end: scenario files in, CSV files out.

Scenario files are flat `dotted.key = value` text with `#` comments.  The
five subcommands are `simulate` (trace + summary CSVs), `verify` (deviation
findings CSV, exit status encodes the certification verdict so pipelines can
gate on it), and the three reproduction commands `fig2`, `fig3`, `fig4`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .dynamic_sharing import (
    DynamicParams,
    NoCertifiedTradeSizeError,
    choose_trade_size,
    params_for_cap,
)
from .engine import (
    DynamicScheme,
    EntryScheme,
    FullSpectrumScheme,
    ReplicationSummary,
    Scenario,
    StaticScheme,
    Trace,
    auto_horizon,
    run,
    summarize,
)
from .entry import EntryParams
from .figures import balance_cap_rows, entry_threshold_rows, scheme_comparison_rows
from .static_sharing import InfeasiblePunishmentError, StaticParams, min_punishment_length
from .traffic import TrafficSpec, finite_levels, two_level
from .utility import CobbDouglasUtility, LinearUtility, UtilityModel
from .verifier import (
    HypothesisViolationError,
    min_punishment_slots,
    verify_dynamic_profile,
    verify_static_profile,
)


class ScenarioParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"expected `key = value`, got {raw!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ScenarioParseError(f"expected `key = value`, got {raw!r}", lineno)
        if key in entries:
            raise ScenarioParseError(f"duplicate key {key!r}", lineno)
        entries[key] = (value, lineno)
    return entries


class _Reader:
    def __init__(self, entries: dict[str, tuple[str, int]]):
        self.entries = entries
        self.used: set[str] = set()

    def raw(self, key: str, default: str | None = None) -> str | None:
        if key in self.entries:
            self.used.add(key)
            return self.entries[key][0]
        return default

    def require(self, key: str) -> str:
        value = self.raw(key)
        if value is None:
            raise ScenarioParseError(f"missing required key {key!r}")
        return value

    def line(self, key: str) -> int | None:
        return self.entries[key][1] if key in self.entries else None

    def number(self, key: str, kind, default=None, required=False):
        raw = self.require(key) if required else self.raw(key)
        if raw is None:
            return default
        try:
            return kind(raw)
        except ValueError:
            raise ScenarioParseError(
                f"{key} must be a {kind.__name__}, got {raw!r}", self.line(key)
            ) from None

    def check_all_used(self):
        unknown = set(self.entries) - self.used
        if unknown:
            key = sorted(unknown)[0]
            raise ScenarioParseError(
                f"unknown or inapplicable key {key!r}", self.line(key)
            )


def _parse_traffic(reader: _Reader, index: int, scheme_kind: str) -> TrafficSpec:
    p_key = f"traffic.op{index}.p_high"
    lv_key = f"traffic.op{index}.levels"
    p_raw = reader.raw(p_key)
    lv_raw = reader.raw(lv_key)
    if p_raw is not None and lv_raw is not None:
        raise ScenarioParseError(
            f"give either {p_key} or {lv_key}, not both", reader.line(lv_key)
        )
    if p_raw is not None:
        try:
            p = float(p_raw)
        except ValueError:
            raise ScenarioParseError(f"{p_key} must be a float", reader.line(p_key)) from None
        if not 0.0 <= p <= 1.0:
            raise ScenarioParseError(f"{p_key} must lie in [0, 1]", reader.line(p_key))
        return two_level(p)
    if lv_raw is not None:
        pairs = []
        try:
            for item in lv_raw.split(","):
                level, prob = item.split(":")
                pairs.append((float(level), float(prob)))
            spec = finite_levels(pairs)
        except (ValueError, TypeError):
            raise ScenarioParseError(
                f"{lv_key} must look like `0:0.5,1:0.5`", reader.line(lv_key)
            ) from None
        if scheme_kind == "dynamic" and not spec.is_two_level:
            raise ScenarioParseError(
                "dynamic sharing requires two-level traffic (levels 0 and 1)",
                reader.line(lv_key),
            )
        return spec
    raise ScenarioParseError(f"missing required key {p_key!r} (or {lv_key!r})")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file into a runnable Scenario."""
    reader = _Reader(_parse_lines(text))
    n = reader.number("scenario.n", int, required=True)
    if n < 1:
        raise ScenarioParseError("scenario.n must be at least 1", reader.line("scenario.n"))
    band = reader.number("scenario.w_mhz", float, required=True)
    power = reader.number("scenario.p_linear", float, required=True)
    discount = reader.number("scenario.delta", float, required=True)
    if not 0.0 <= discount < 1.0:
        raise ScenarioParseError(
            "scenario.delta must lie in [0, 1)", reader.line("scenario.delta")
        )
    family_name = reader.require("utility.family")
    if family_name == "linear":
        family = LinearUtility()
        for key in ("utility.a", "utility.s", "utility.e"):
            if reader.raw(key) is not None:
                raise ScenarioParseError(
                    f"{key} only applies to cobb_douglas", reader.line(key)
                )
    elif family_name == "cobb_douglas":
        family = CobbDouglasUtility(
            a=reader.number("utility.a", float, default=24.0),
            s=reader.number("utility.s", float, default=0.5),
            e=reader.number("utility.e", float, default=0.9),
        )
    else:
        raise ScenarioParseError(
            "utility.family must be linear or cobb_douglas", reader.line("utility.family")
        )
    try:
        model = UtilityModel(band, power, family=family)
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from None

    scheme_kind = reader.require("scheme.kind")
    if scheme_kind not in ("full", "static", "entry", "dynamic"):
        raise ScenarioParseError(
            "scheme.kind must be one of full/static/entry/dynamic",
            reader.line("scheme.kind"),
        )
    traffic_specs = tuple(_parse_traffic(reader, i, scheme_kind) for i in range(1, n + 1))

    seed = reader.number("sim.seed", int, required=True)
    replications = reader.number("sim.replications", int, default=1)
    horizon_raw = reader.require("sim.horizon")
    if horizon_raw == "auto":
        horizon = auto_horizon(discount)
    else:
        horizon = reader.number("sim.horizon", int, required=True)

    scheme: object
    if scheme_kind == "full":
        scheme = FullSpectrumScheme()
    elif scheme_kind == "static":
        t_len = _punishment_length(reader, model, traffic_specs, n)
        scheme = StaticScheme(StaticParams(n, band, punishment_slots=t_len))
    elif scheme_kind == "entry":
        cost = reader.number("entry.cost", float, required=True)
        if any(spec != traffic_specs[0] for spec in traffic_specs):
            raise ScenarioParseError("entry assumes identical traffic for all operators")
        scheme = EntryScheme(
            EntryParams(
                cost=cost,
                model=model,
                traffic=traffic_specs[0],
                arrival_slots=tuple(range(n)),
            )
        )
    else:
        scheme = DynamicScheme(_dynamic_params(reader, model, traffic_specs, n, discount))

    try:
        scenario = Scenario(
            n=n,
            model=model,
            traffic_specs=traffic_specs,
            scheme=scheme,
            discount=discount,
            horizon=horizon,
            seed=seed,
            replications=replications,
        )
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from None
    reader.check_all_used()
    return scenario


def _punishment_length(reader: _Reader, model, traffic_specs, n: int) -> int:
    raw = reader.raw("scheme.punishment_T", "auto")
    if raw == "auto":
        params = StaticParams(n, model.band_mhz)
        try:
            return min_punishment_length(model, list(traffic_specs), params)
        except InfeasiblePunishmentError as exc:
            raise ScenarioParseError(f"punishment_T=auto failed: {exc}") from None
    t_len = reader.number("scheme.punishment_T", int, required=True)
    if t_len < 1:
        raise ScenarioParseError(
            "scheme.punishment_T must be at least 1", reader.line("scheme.punishment_T")
        )
    return t_len


def _dynamic_params(reader: _Reader, model, traffic_specs, n: int, discount: float) -> DynamicParams:
    cap = reader.number("scheme.balance_cap_mhz", float, required=True)
    trade_raw = reader.require("scheme.trade_mhz")
    t_raw = reader.raw("scheme.punishment_T", "auto")
    try:
        if trade_raw == "auto":
            if n != 2:
                raise ScenarioParseError(
                    "scheme.trade_mhz=auto needs exactly two operators",
                    reader.line("scheme.trade_mhz"),
                )
            choice = choose_trade_size(n, model.band_mhz, cap, model, traffic_specs, discount)
            params = params_for_cap(n, model.band_mhz, choice.trade_mhz, cap,
                                    punishment_slots=choice.punishment_slots)
            if t_raw == "auto":
                return params
            return dataclasses.replace(
                params, punishment_slots=reader.number("scheme.punishment_T", int, required=True)
            )
        trade = reader.number("scheme.trade_mhz", float, required=True)
        params = params_for_cap(n, model.band_mhz, trade, cap)
        if t_raw == "auto":
            t_len = min_punishment_slots(params, model, list(traffic_specs))
        else:
            t_len = reader.number("scheme.punishment_T", int, required=True)
            if t_len < 1:
                raise ScenarioParseError("scheme.punishment_T must be at least 1")
        return dataclasses.replace(params, punishment_slots=t_len)
    except (InfeasiblePunishmentError, NoCertifiedTradeSizeError, HypothesisViolationError) as exc:
        raise ScenarioParseError(f"dynamic scheme setup failed: {exc}") from None
    except ValueError as exc:
        if isinstance(exc, ScenarioParseError):
            raise
        raise ScenarioParseError(str(exc)) from None


# --- CSV emission -----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain shortest round-trip form
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


TRACE_HEADER = ["slot", "operator", "traffic", "width_mhz", "utility", "balance_mhz", "phase"]
SUMMARY_HEADER = ["operator", "scheme", "mean_revenue", "std_err"]
FINDINGS_HEADER = ["state", "deviation", "gain", "loss", "profitable"]


def trace_rows(trace: Trace):
    for slot, op, lam, width, util, bal, phase in trace.rows():
        yield (slot, op + 1, lam, width, util, bal, phase)


def parse_trace_csv(text: str) -> Trace:
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",") != TRACE_HEADER:
        raise ValueError("not a trace CSV")
    trace = Trace()
    for line in lines[1:]:
        slot, op, lam, width, util, bal, phase = line.split(",")
        trace.slot.append(int(slot))
        trace.operator.append(int(op) - 1)
        trace.traffic.append(float(lam))
        trace.width_mhz.append(float(width))
        trace.utility.append(float(util))
        trace.balance_mhz.append(float(bal))
        trace.phase.append(phase)
    return trace


def parse_summary_csv(text: str) -> list[tuple[int, str, float, float]]:
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",") != SUMMARY_HEADER:
        raise ValueError("not a summary CSV")
    rows = []
    for line in lines[1:]:
        op, scheme, mean, se = line.split(",")
        rows.append((int(op), scheme, float(mean), float(se)))
    return rows


def summary_rows(summary: ReplicationSummary, scheme_name: str):
    for i, (mean, se) in enumerate(zip(summary.means, summary.std_errs)):
        yield (i + 1, scheme_name, mean, se)


def _scheme_name(scheme) -> str:
    return {
        FullSpectrumScheme: "full",
        StaticScheme: "static",
        EntryScheme: "entry",
        DynamicScheme: "dynamic",
    }[type(scheme)]


# --- commands ---------------------------------------------------------------


def _read_scenario_file(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def cmd_simulate(args) -> int:
    scenario = _read_scenario_file(args.scenario)
    scenario = _apply_overrides(scenario, args)
    trace, report = run(scenario)
    rest = [
        run(scenario, replication=r, collect_trace=False)[1]
        for r in range(1, scenario.replications)
    ]
    summary = summarize([report, *rest])
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    summary_path = os.path.join(args.out, "summary.csv")
    write_csv(trace_path, TRACE_HEADER, trace_rows(trace))
    write_csv(
        summary_path, SUMMARY_HEADER, summary_rows(summary, _scheme_name(scenario.scheme))
    )
    print(trace_path)
    print(summary_path)
    return 0


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "replications", None) is not None:
        updates["replications"] = args.replications
    return dataclasses.replace(scenario, **updates) if updates else scenario


def cmd_verify(args) -> int:
    scenario = _read_scenario_file(args.scenario)
    model = scenario.model
    scheme = scenario.scheme
    if isinstance(scheme, FullSpectrumScheme):
        print("nothing to verify for full-spectrum sharing", file=sys.stderr)
        return 2
    if isinstance(scheme, DynamicScheme):
        findings = verify_dynamic_profile(
            scheme.params, model, list(scenario.traffic_specs), scenario.discount
        )
    elif isinstance(scheme, StaticScheme):
        findings = verify_static_profile(
            scheme.params, model, list(scenario.traffic_specs), scenario.discount
        )
    else:  # entry: check the static profile at each reachable market size
        findings = []
        n_star = min(scenario.n, _entry_market_size(scheme.params))
        for size in range(2, n_star + 1):
            findings.extend(
                verify_static_profile(
                    scheme.params.static_params(size),
                    model,
                    [scheme.params.traffic] * size,
                    scenario.discount,
                )
            )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "findings.csv")
    write_csv(
        path,
        FINDINGS_HEADER,
        (
            (f.state_label(), f.kind, f.gain, f.loss, int(f.profitable))
            for f in findings
        ),
    )
    print(path)
    bad = sum(1 for f in findings if f.profitable)
    if bad:
        print(f"{bad} profitable deviation(s) found", file=sys.stderr)
        return 1
    return 0


def _entry_market_size(params: EntryParams) -> int:
    from .entry import max_entrants

    return max_entrants(params.cost, params.model, params.traffic, params.n_cap)


def _parse_grid(spec: str, kind=float) -> list:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:stop:step or a comma list")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        values = []
        v = start
        while v <= stop + 1e-9:
            values.append(kind(round(v, 12)))
            v += step
        return values
    return [kind(float(p)) for p in spec.split(",")]


def cmd_fig2(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else _default_cost_grid()
    rows = entry_threshold_rows(grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "fig2.csv")
    write_csv(path, ["cost", "n_star"], rows)
    print(path)
    return 0


def _default_cost_grid(points: int = 50, lo: float = 10.0, hi: float = 500.0):
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio**i for i in range(points)]


def cmd_fig3(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else [float(db) for db in range(0, 31)]
    rows = scheme_comparison_rows(grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "fig3.csv")
    write_csv(
        path,
        ["p_db", "revenue_full", "revenue_static", "revenue_dynamic"],
        (
            (r.p_db, r.revenue_full, r.revenue_static, r.revenue_dynamic)
            for r in rows
        ),
    )
    print(path)
    return 0


def cmd_fig4(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else [50.0 * k for k in range(1, 9)]
    rows = balance_cap_rows(grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "fig4.csv")
    write_csv(
        path,
        ["balance_cap_mhz", "dynamic_over_full_percent"],
        ((r.balance_cap_mhz, r.improvement_percent) for r in rows),
    )
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandshare",
        description="Spectrum-sharing game simulator and equilibrium verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file, emit trace and summary CSVs")
    sim.add_argument("scenario")
    sim.add_argument("--out", default=".")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--replications", type=int, default=None)
    sim.set_defaults(handler=cmd_simulate)

    ver = sub.add_parser("verify", help="one-shot deviation check, exit 0 iff certified")
    ver.add_argument("scenario")
    ver.add_argument("--out", default=".")
    ver.set_defaults(handler=cmd_verify)

    for name, handler, help_text in (
        ("fig2", cmd_fig2, "entry thresholds: market size per investment cost"),
        ("fig3", cmd_fig3, "total revenue of the three schemes over a power sweep"),
        ("fig4", cmd_fig4, "dynamic-over-full improvement per balance cap"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--out", default=".")
        cmd.add_argument("--grid", default=None)
        cmd.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
