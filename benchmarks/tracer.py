"""Per-layer tracing of `flmarket`, installed from outside the package.

`Tracer.install()` rebinds each traced function in every loaded `flmarket.*`
module (and class) that holds it, because modules such as `auction` import
`local_train` or `banzhaf_mc` by name. Spans record self time: a span's
duration minus the time of the spans it encloses. Hot tiny calls are
counted only. A traced function missing from the package reads as 0 calls.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from collections import Counter, defaultdict

BASELINES = ("price-first", "randomized")

# (module, attribute path, span name). A span name may be a function of
# the call's arguments.
SPANS = [
    ("flmarket.config", "parse_config", "cli.parse_config"),
    ("flmarket.cli", "cmd_run", "cli"),
    ("flmarket.auction", "run_experiment", "auction.harness"),
    ("flmarket.auction", "run_reputation_trace", "auction.harness"),
    ("flmarket.auction", "run_robustness", "auction.harness"),
    (
        "flmarket.auction",
        "run_cell",
        lambda args: "auction.baselines"
        if any(a in BASELINES for a in args if isinstance(a, str))
        else "auction.harness",
    ),
    ("flmarket.auction", "build_population", "auction.build_population"),
    ("flmarket.auction", "run_round", "auction.run_round"),
    ("flmarket.mechanism", "solve_complete", "mechanism.solve"),
    ("flmarket.mechanism", "solve_incomplete", "mechanism.solve"),
    ("flmarket.flsim", "generate_population", "flsim.generate_population"),
    ("flmarket.flsim", "local_train", "flsim.local_train"),
    ("flmarket.flsim", "aggregate", "flsim.aggregate"),
    ("flmarket.flsim", "evaluate_accuracy", "flsim.evaluate_accuracy"),
    ("flmarket.flsim", "poison", "flsim.poison"),
    ("flmarket.reputation", "banzhaf_exact", "reputation.banzhaf"),
    ("flmarket.reputation", "banzhaf_mc", "reputation.banzhaf"),
    ("flmarket.ledger", "HashChainLedger.read_reputation", "ledger.read"),
    ("flmarket.ledger", "PlainStore.read_reputation", "ledger.read"),
    ("flmarket.ledger", "HashChainLedger.read_last_valid", "ledger.read_last_valid"),
    ("flmarket.ledger", "HashChainLedger.append", "ledger.append.chained"),
    ("flmarket.ledger", "PlainStore.append", "ledger.append.plain"),
    ("flmarket.ledger", "tamper_attack", "ledger.tamper_attack"),
]

# Hot tiny calls: counted, never timed.
COUNTS = [
    ("flmarket.ledger", "ReputationRecord.compute_hash", "ledger.hash_calls"),
    ("flmarket.mechanism", "cost", "mechanism.cost.calls"),
    ("flmarket.reputation", "update_reputation", "reputation.update.calls"),
]

# Span names whose per-call durations are kept for percentiles.
KEEP_DURATIONS = {"auction.run_round"}


def _resolve(module_name: str, path: str):
    """(owner, attribute, function), or None if any part is missing."""
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)
        self.populations: set = set()
        self._stack: list[list[float]] = []
        self._saved: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, hooks):
        stack, calls, self_s, durations = self._stack, self.calls, self.self_s, self.durations
        clock = time.perf_counter
        before, after = hooks.get(name, (None, None))
        keep = name in KEEP_DURATIONS

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                args = self._safely(before, args, args)
            stack.append([0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()[0]
                if stack:
                    stack[-1][0] += duration
                self_s[label] += duration - child
                calls[label] += 1
                if keep:
                    durations[label].append(duration)
            if after is not None:
                self._safely(after, result, None)
            return result

        return traced

    def _count(self, name, fn, hooks):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _safely(self, hook, value, default):
        try:
            return hook(value)
        except Exception:  # a changed signature must not break the traced run
            self.counts["trace.hook_errors"] += 1
            return default

    def _hooks(self) -> dict:
        """Per-span (before, after) hooks: `before` sees and may replace a
        call's positional arguments, `after` sees its result."""
        counts = self.counts

        def coalition(args):
            utility = args[0]
            if not dataclasses.is_dataclass(utility) or not hasattr(utility, "evaluator"):
                return args
            evaluate = utility.evaluator

            def counted(coalition):
                counts["reputation.coalition_evals"] += 1
                return evaluate(coalition)

            return (dataclasses.replace(utility, evaluator=counted),) + args[1:]

        def aggregated(args):
            counts["flsim.aggregated_models"] += len(args[0])
            return args

        def population(args):
            self.populations.add(repr(args))
            return args

        def read(result):
            counts["ledger.answered_reads"] += 1
            counts["ledger.trusted_reads"] += bool(result[1])

        return {
            "reputation.banzhaf": (coalition, None),
            "flsim.aggregate": (aggregated, None),
            "flsim.generate_population": (population, None),
            "ledger.read": (None, read),
        }

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "flmarket" or n.startswith("flmarket.")]
        hooks = self._hooks()
        for specs, wrap in ((SPANS, self._span), (COUNTS, self._count)):
            for module_name, path, name in specs:
                found = _resolve(module_name, path)
                if found is None:
                    continue
                owner, attr, fn = found
                wrapped = wrap(name, fn, hooks)
                if "." in path:  # a method: rebinding the class reaches every caller
                    self._rebind(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._rebind(module, key, wrapped)
        return self

    def _rebind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics. Every `.s` is self time in seconds."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in (
            "reputation.banzhaf",
            "flsim.generate_population",
            "flsim.local_train",
            "flsim.evaluate_accuracy",
            "flsim.poison",
            "ledger.read",
            "ledger.read_last_valid",
            "ledger.append.chained",
            "ledger.append.plain",
            "mechanism.solve",
        ):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = self_s[layer]
        for layer in (
            "flsim.aggregate",
            "ledger.tamper_attack",
            "auction.build_population",
            "auction.baselines",
            "auction.harness",
            "cli.parse_config",
        ):
            out[f"{layer}.s"] = self_s[layer]
        for name in ("reputation.coalition_evals", "ledger.hash_calls",
                     "mechanism.cost.calls", "reputation.update.calls"):
            out[name] = counts[name]
        out["flsim.generate_population.unique_ratio"] = ratio(
            len(self.populations), calls["flsim.generate_population"]
        )
        out["flsim.local_train.used_ratio"] = ratio(
            counts["flsim.aggregated_models"], calls["flsim.local_train"]
        )
        out["ledger.tampered_reads"] = counts["ledger.answered_reads"] - counts["ledger.trusted_reads"]
        out["ledger.trusted_read_ratio"] = ratio(
            counts["ledger.trusted_reads"], counts["ledger.answered_reads"]
        )
        rounds = self.durations["auction.run_round"]
        out["auction.run_round.calls"] = calls["auction.run_round"]
        out["auction.run_round.self_s"] = self_s["auction.run_round"]
        if len(rounds) >= 2:
            cuts = statistics.quantiles(rounds, n=100, method="inclusive")
            out["auction.run_round.ms_p50"] = cuts[49] * 1e3
            out["auction.run_round.ms_p95"] = cuts[94] * 1e3
        else:
            out["auction.run_round.ms_p50"] = out["auction.run_round.ms_p95"] = (
                rounds[0] * 1e3 if rounds else 0.0
            )
        out["cli.self_s"] = self_s["cli"]
        out["trace.hook_errors"] = counts["trace.hook_errors"]
        return out
