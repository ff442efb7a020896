"""Flat key-value experiment configuration with typed validation."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .auction import MECHANISMS
from .flsim import AggregationConfig, Aggregator, PoisonConfig
from .ledger import STORES, TRUST_LAST_VALID, TRUST_POLICIES, TamperConfig
from .mechanism import MarketParams, Regime, largest_term
from .reputation import ReputationParams


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    n_clients: int = 10
    k_values: list[int] = field(default_factory=lambda: [3])
    rounds: int = 5
    seeds: list[int] = field(default_factory=lambda: [0])
    lam: float = 1.0
    delta: float = 2.0
    mechanisms: list[str] = field(default_factory=lambda: list(MECHANISMS))
    aggregation: Aggregator = Aggregator.FEDAVG
    local_epochs: int = 3
    learning_rate: float = 0.5
    prox_mu: float = 0.01
    w1: float = 0.5
    w2: float = 0.5
    theta_min: float = 0.0
    theta_max: float = 1.0
    poison_count: int = 0
    poison_flip_rate: float = 0.8
    tamper_alphas: list[float] = field(default_factory=list)
    tamper_betas: list[float] = field(default_factory=list)
    ledger_modes: list[str] = field(default_factory=lambda: ["chained"])
    trust_policy: str = TRUST_LAST_VALID
    output_dir: str = "out"

    def mechanisms_ours(self) -> list[str]:
        return [m for m in self.mechanisms if isinstance(MECHANISMS.get(m), Regime)]

    def validate(self) -> None:
        """Check every key, building the components' own parameter objects
        so that each of their checks holds here too."""
        if not self.k_values:
            raise ConfigError("k_select must list at least one value")
        if not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        if not self.mechanisms:
            raise ConfigError("mechanisms must list at least one mechanism")
        if not self.ledger_modes:
            raise ConfigError("ledger_modes must list at least one mode")
        # Seeds may repeat; a repeated grid axis would only rerun its cells.
        for key, values in (
            ("k_select", self.k_values),
            ("mechanisms", self.mechanisms),
            ("ledger_modes", self.ledger_modes),
            ("tamper_alphas", self.tamper_alphas),
            ("tamper_betas", self.tamper_betas),
        ):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{key} repeats {', '.join(map(str, repeated))}")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be nonnegative")
        if self.rounds < 0:
            raise ConfigError("rounds must be nonnegative")
        if not 0.0 <= self.theta_min <= self.theta_max <= 1.0:
            raise ConfigError("theta range must satisfy 0 <= theta_min <= theta_max <= 1")
        if self.n_clients < 1:
            raise ConfigError("n_clients must be a positive integer")
        if not 0 <= self.poison_count <= self.n_clients:
            raise ConfigError("poison_count must satisfy 0 <= poison_count <= n_clients")
        for mode in self.ledger_modes:
            if mode not in STORES:
                raise ConfigError(f"unknown ledger mode {mode!r}")
        if self.trust_policy not in TRUST_POLICIES:
            raise ConfigError(f"unknown trust policy {self.trust_policy!r}")
        bad = set(self.mechanisms) - MECHANISMS.keys()
        if bad:
            raise ConfigError(f"unknown mechanisms {sorted(bad)}")
        if bool(self.tamper_alphas) != bool(self.tamper_betas):
            empty, given = (
                ("tamper_alphas", "tamper_betas") if self.tamper_betas
                else ("tamper_betas", "tamper_alphas")
            )
            raise ConfigError(
                f"{empty} must list at least one value when {given} is set: "
                "a tamper grid is tamper_alphas x tamper_betas"
            )
        if self.tamper_alphas and not self.mechanisms_ours():
            raise ConfigError(
                "a tamper grid (tamper_alphas, tamper_betas) needs an ours-* mechanism"
            )
        try:
            for k in self.k_values:
                MarketParams(self.lam, self.delta, self.n_clients, k)
            ReputationParams(self.w1, self.w2)
            AggregationConfig(
                self.aggregation, self.local_epochs, self.learning_rate, self.prox_mu
            )
            PoisonConfig(self.poison_flip_rate)
            for alpha in self.tamper_alphas:
                for beta in self.tamper_betas:
                    TamperConfig(alpha, beta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self._check_utility_sums()

    def _check_utility_sums(self) -> None:
        """Check that no server-utility sum the run writes can overflow.

        Every server payoff lam*q - r of one contract, ours or a baseline's,
        lies in [-L, L] with L = `largest_term(lam, delta)`, since q, r and
        lam*q are nonnegative and each is at most L. A round sums at most
        k = max(k_select) payoffs, so |server_utility| <= k*L; a cell's
        total sums `rounds` of those, so it is at most rounds*k*L; and a
        summary mean sums one total per listed seed before dividing, so
        every partial sum stays within len(seeds)*rounds*k*L, which also
        bounds a population std of the totals. That product must be finite.
        """
        payoffs = self.rounds * max(self.k_values) * len(self.seeds)
        if not math.isfinite(largest_term(self.lam, self.delta) * payoffs):
            raise ConfigError(
                f"lambda = {self.lam!r} and delta = {self.delta!r} overflow a utility sum: "
                f"rounds * max(k_select) * seeds = {self.rounds} * {max(self.k_values)} * "
                f"{len(self.seeds)} payoffs must sum to a finite total"
            )

    def digest(self) -> str:
        """Short hash of the experiment, for output provenance; where the
        outputs are written is not part of it."""
        lines = []
        for f in fields(self):
            if f.name == "output_dir":
                continue
            value = getattr(self, f.name)
            if isinstance(value, Aggregator):
                value = value.value
            lines.append(f"{f.name}={value}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _parse_int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _parse_float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _parse_str_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


_PARSERS = {
    "n_clients": ("n_clients", int),
    "k_select": ("k_values", _parse_int_list),
    "rounds": ("rounds", int),
    "seeds": ("seeds", _parse_int_list),
    "lambda": ("lam", float),
    "delta": ("delta", float),
    "mechanisms": ("mechanisms", _parse_str_list),
    "aggregation": ("aggregation", Aggregator),
    "local_epochs": ("local_epochs", int),
    "learning_rate": ("learning_rate", float),
    "prox_mu": ("prox_mu", float),
    "w1": ("w1", float),
    "w2": ("w2", float),
    "theta_min": ("theta_min", float),
    "theta_max": ("theta_max", float),
    "poison_count": ("poison_count", int),
    "poison_flip_rate": ("poison_flip_rate", float),
    "tamper_alphas": ("tamper_alphas", _parse_float_list),
    "tamper_betas": ("tamper_betas", _parse_float_list),
    "ledger_modes": ("ledger_modes", _parse_str_list),
    "trust_policy": ("trust_policy", str),
    "output_dir": ("output_dir", str),
}


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a flat "key = value" config file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    config = ExperimentConfig()
    first_line = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} given twice (first on line {first_line[key]})"
            )
        first_line[key] = lineno
        attr, parser = _PARSERS[key]
        try:
            setattr(config, attr, parser(raw))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    config.validate()
    return config
