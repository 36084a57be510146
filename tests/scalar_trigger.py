"""The slot-by-slot trigger path, kept as the oracle of the engine's trigger kernel.

Full-spectrum, static and entry sharing as the simulator ran them before
the array kernel: on the engine's traffic levels, every slot advances the
scheme's own step (`static_sharing.step`, `entry.entry_step`) on the
previous slot's emissions, applies the injector overrides and prices what
was transmitted.  `engine.run` and `engine.replicate` must agree with
`scalar_run` bit for bit.
"""

from __future__ import annotations

import functools

from bandshare import engine
from bandshare.engine import EntryScheme, FullSpectrumScheme, RevenueReport, StaticScheme, Trace
from bandshare.entry import entry_step, initial_entry_state
from bandshare.spectrum import SpectrumAllocation
from bandshare.static_sharing import PUNISHMENT, TriggerState, step as static_step


def scalar_run(scenario, injectors=(), replication=0, collect_trace=True):
    """The engine's per-slot loop for the trigger schemes; returns (Trace, RevenueReport)."""
    engine._validate_injectors(scenario, injectors)
    scheme = scenario.scheme
    model = scenario.model
    n = scenario.n
    d = scenario.discount
    lams = engine._levels(scenario, replication).T.tolist()
    full = SpectrumAllocation.full_band(model.band_mhz)
    # a handful of distinct (width, level) and (active, level) pairs recur
    pi = functools.cache(model.pi)
    full_utility = functools.cache(model.full_spectrum_utility)

    if isinstance(scheme, StaticScheme):
        state: object = TriggerState()
    elif isinstance(scheme, EntryScheme):
        state = initial_entry_state(scheme.params)
    elif not isinstance(scheme, FullSpectrumScheme):
        raise TypeError(f"unknown scheme {scheme!r}")

    trace = Trace() if collect_trace else None
    revenues = [0.0] * n
    weight = 1.0 - d
    u_max = 0.0
    observed: list[SpectrumAllocation] | None = None

    for t in range(scenario.horizon):
        lam = lams[t]

        if isinstance(scheme, FullSpectrumScheme):
            allocs = [full] * n
            phase_label = "full"
        elif isinstance(scheme, StaticScheme):
            state, profile = static_step(scheme.params, state, observed)
            allocs = list(profile)
            phase_label = state.phase
        else:  # EntryScheme
            arrival = t in scheme.params.arrival_slots
            obs_active = observed[: state.active] if observed is not None else None
            state, _decision, active_allocs = entry_step(
                scheme.params, state, observed_allocs=obs_active, arrival=arrival
            )
            allocs = active_allocs + [SpectrumAllocation.empty()] * (n - len(active_allocs))
            phase_label = state.trigger.phase

        overridden = False
        for inj in injectors:  # only support overrides: lies are dynamic-only
            if inj.active(t):
                allocs[inj.operator] = engine._override_alloc(inj, model)
                overridden = True

        if isinstance(scheme, FullSpectrumScheme) and not overridden:
            utils = [full_utility(n, lam[i]) for i in range(n)]
        elif phase_label == PUNISHMENT and not overridden:
            active = sum(1 for a in allocs if not a.is_empty())
            utils = [
                full_utility(active, lam[i]) if not allocs[i].is_empty() else 0.0
                for i in range(n)
            ]
        elif not overridden:
            utils = [pi(allocs[i].width, lam[i]) for i in range(n)]
        else:
            utils = [
                model.utility(allocs[i], [a for j, a in enumerate(allocs) if j != i], lam[i])
                for i in range(n)
            ]

        for i in range(n):
            revenues[i] += weight * utils[i]
            if utils[i] > u_max:
                u_max = utils[i]
        if collect_trace:
            for i in range(n):
                trace.slot.append(t)
                trace.operator.append(i)
                trace.traffic.append(lam[i])
                trace.width_mhz.append(allocs[i].width)
                trace.utility.append(utils[i])
                trace.balance_mhz.append(0.0)
                trace.phase.append(phase_label)

        observed = allocs
        weight *= d

    tail = (d**scenario.horizon) * u_max if d > 0 else 0.0
    return trace, RevenueReport(tuple(revenues), d, scenario.horizon, tail)
