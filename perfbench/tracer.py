"""Per-layer tracing of bandshare from outside the package.

Each traced function is wrapped at every place the package binds it: the
defining module, every `bandshare.*` module that imported it by name, and
the class for methods.  A wrapper records one span per call; a function's
self time is its span minus the spans of traced calls made inside it.

A function missing from the package (deleted or renamed by a later change)
is reported as absent and its metrics read zero; nothing crashes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

PACKAGE = "bandshare"

# metric prefix -> (module, attribute path inside the module)
TRACED = {
    "rng.uniform01_array": ("rng", "uniform01_array"),
    "traffic.sample_slots": ("traffic", "sample_slots"),
    "spectrum.from_intervals": ("spectrum", "SpectrumAllocation.from_intervals"),
    "utility.pi": ("utility", "UtilityModel.pi"),
    "utility.full_spectrum_utility": ("utility", "UtilityModel.full_spectrum_utility"),
    "utility.effective_bandwidth": ("utility", "UtilityModel.effective_bandwidth"),
    "static_sharing.step": ("static_sharing", "step"),
    "static_sharing.static_allocation": ("static_sharing", "static_allocation"),
    "static_sharing.min_punishment_length": ("static_sharing", "min_punishment_length"),
    "entry.entry_step": ("entry", "entry_step"),
    "entry.punishment_length_entry": ("entry", "punishment_length_entry"),
    "entry.max_entrants": ("entry", "max_entrants"),
    "dynamic_sharing.dynamic_step": ("dynamic_sharing", "dynamic_step"),
    "dynamic_sharing.trading_policy": ("dynamic_sharing", "trading_policy"),
    "dynamic_sharing.tile_band": ("dynamic_sharing", "tile_band"),
    "dynamic_sharing.choose_trade_size": ("dynamic_sharing", "choose_trade_size"),
    "engine.run": ("engine", "run"),
    "engine.replicate": ("engine", "replicate"),
    "verifier.build_balance_chain": ("verifier", "build_balance_chain"),
    "verifier.value_function": ("verifier", "value_function"),
    "verifier.verify_truthfulness_exact": ("verifier", "verify_truthfulness_exact"),
    "verifier.verify_detectable_exact": ("verifier", "verify_detectable_exact"),
    "verifier.verify_static_profile": ("verifier", "verify_static_profile"),
    "verifier.stationary_sum_revenue": ("verifier", "stationary_sum_revenue"),
    "verifier.verify_truthfulness_n_ops": ("verifier", "verify_truthfulness_n_ops"),
    "verifier.enumerate_balance_states": ("verifier", "enumerate_balance_states"),
    "verifier.mc_value_estimate": ("verifier", "mc_value_estimate"),
    "cli.parse_scenario": ("cli", "parse_scenario"),
    "cli.main": ("cli", "main"),
    "cli.write_csv": ("cli", "write_csv"),
}

CHOOSER = "dynamic_sharing.choose_trade_size"
# calls of these under CHOOSER give verifier.certify_yield
YIELD_NUM = "verifier.stationary_sum_revenue"
YIELD_DEN = "verifier.verify_truthfulness_exact"


def _draws(result, args, kwargs):
    return {"draws": int(getattr(result, "size", 0))}


def _trades(result, args, kwargs):
    return {"trades": len(result)}


def _slots(result, args, kwargs):
    return {"slots": int(result[1].horizon)}


def _residual(result, args, kwargs):
    return {"residual_max": float(result.residual)}


def _n_op_work(result, args, kwargs):
    params = args[0] if args else kwargs["params"]
    # Monte Carlo findings carry a standard error; only an exact solve covers every state
    exact = not result or result[0].estimate_se is None
    verifier = importlib.import_module(f"{PACKAGE}.verifier")
    return {
        "states": verifier.count_balance_states(params.n, params.cap_units) if exact else 0,
        "findings": len(result),
    }


def _csv_bytes(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# per-call counters: prefix -> (extractor, {counter: unit})
COUNTERS = {
    "rng.uniform01_array": (_draws, {"draws": "count"}),
    "traffic.sample_slots": (_draws, {"draws": "count"}),
    "dynamic_sharing.trading_policy": (_trades, {"trades": "count"}),
    "engine.run": (_slots, {"slots": "count"}),
    "verifier.value_function": (_residual, {"residual_max": "utility"}),
    "verifier.verify_truthfulness_n_ops": (
        _n_op_work,
        {"states": "count", "findings": "count"},
    ),
    "cli.write_csv": (_csv_bytes, {"bytes": "B"}),
}
MAX_COUNTERS = {"residual_max"}  # reported as a maximum, not a sum


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix in TRACED:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        for name, unit in COUNTERS.get(prefix, (None, {}))[1].items():
            units[f"{prefix}.{name}"] = unit
    units["verifier.certify_yield"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    return units


class _Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters: dict[str, float] = {}


def _resolve(module: str, path: str):
    """(owner, attribute name, function) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ModuleNotFoundError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, parts[-1])
    except AttributeError:
        return None
    func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    if not callable(func):
        return None
    return owner, parts[-1], raw


class Tracer:
    """Wraps the TRACED functions of the package while installed.

    Stats accumulate over every install; `with tracer:` installs for a block.
    """

    def __init__(self):
        self.stats = {prefix: _Stat() for prefix in TRACED}
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []
        self._in_chooser = 0
        self._yield = [0, 0]

    def install(self) -> None:
        self.absent = []
        targets = {
            prefix: _resolve(module, path)
            for prefix, (module, path) in TRACED.items()
        }
        modules = [  # listed after _resolve has imported every traced module
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for prefix, found in targets.items():
            if found is None:
                self.absent.append(prefix)
                continue
            owner, attr, raw = found
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(prefix, raw.__func__))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapper = self._wrap(prefix, raw)
            if inspect.isclass(owner):
                self._patch(owner, attr, raw, wrapper)
                continue
            for mod in modules:  # every module-level binding of the same object
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, raw, wrapper)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, prefix: str, func):
        stat = self.stats[prefix]
        stack = self._stack
        clock = time.perf_counter
        extract = COUNTERS.get(prefix, (None, None))[0]
        tracer = self
        is_chooser = prefix == CHOOSER
        yield_slot = {YIELD_NUM: 0, YIELD_DEN: 1}.get(prefix)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if is_chooser:
                tracer._in_chooser += 1
            elif yield_slot is not None and tracer._in_chooser:
                tracer._yield[yield_slot] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += span - child
                if stack:
                    stack[-1] += span
                if is_chooser:
                    tracer._in_chooser -= 1
            if extract is not None:
                tracer._count(stat, extract, result, args, kwargs)
            return result

        return wrapper

    @staticmethod
    def _count(stat: _Stat, extract, result, args, kwargs) -> None:
        try:
            values = extract(result, args, kwargs)
        except (AttributeError, KeyError, IndexError, TypeError, OSError):
            return  # a changed signature or result shape loses only this counter
        for name, value in values.items():
            if name in MAX_COUNTERS:
                stat.counters[name] = max(stat.counters.get(name, 0.0), value)
            else:
                stat.counters[name] = stat.counters.get(name, 0) + value

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric by name (zero for absent functions)."""
        values: dict[str, float] = {}
        for prefix, stat in self.stats.items():
            values[f"{prefix}.calls"] = stat.calls
            values[f"{prefix}.self_s"] = stat.self_s
            for name in COUNTERS.get(prefix, (None, {}))[1]:
                values[f"{prefix}.{name}"] = stat.counters.get(name, 0)
        num, den = self._yield
        values["verifier.certify_yield"] = num / den if den else 0.0
        values["trace.overhead_frac"] = overhead_frac
        return values
