"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

The verdict lines are written to the real stdout so they stay visible under
pytest's output capture.
"""

import sys
import time
from dataclasses import replace

import numpy as np

from flmarket.auction import run_tables
from flmarket.cli import main
from flmarket.config import ExperimentConfig
from flmarket.flsim import Aggregator
from flmarket.ledger import RECORD_SIZE, HashChainLedger, ReputationRecord
from flmarket.mechanism import (
    MarketParams,
    Regime,
    client_utility,
    information_rent,
    server_utility_per_client,
    solve_complete,
    solve_incomplete,
)
from flmarket.reputation import (
    CoalitionMode,
    CoalitionUtility,
    additive_utility,
    banzhaf_exact,
    banzhaf_mc,
)

THETA_GRID = np.linspace(0.0, 1.0, 1001)
PARAMS = MarketParams(lam=1.0, delta=2.0, n_clients=1, k_select=1)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d}: {status} — {detail}", file=sys.__stdout__)
    assert ok, f"criterion {criterion}: {detail}"


def ordering_config(**overrides) -> ExperimentConfig:
    """Mechanism-comparison setup: a large high-efficiency population.

    The per-client utility ratio incomplete/complete is (1 + 2 theta)/3 at
    lambda=1, delta=2, so a sub-2% regime gap requires thetas near 1.
    """
    defaults = dict(
        n_clients=40,
        k_values=[5, 10, 15],
        rounds=4,
        seeds=list(range(20)),
        lam=1.0,
        delta=2.0,
        theta_min=0.95,
        theta_max=1.0,
        local_epochs=3,
        learning_rate=0.5,
    )
    defaults.update(overrides)
    config = ExperimentConfig(**defaults)
    config.validate()
    return config


def summary_by_mechanism(config) -> dict:
    return {
        (row["mechanism"], row["k"]): row["mean_utility"] for row in run_tables(config).summary
    }


def check_ordering(by, k_values) -> tuple[bool, float]:
    """Ordering complete >= incomplete >= price-first >= randomized plus the
    worst relative complete-vs-incomplete gap across k."""
    ok, worst_gap = True, 0.0
    for k in k_values:
        ci = by[("ours-complete", k)]
        inc = by[("ours-incomplete", k)]
        ok &= ci >= inc >= by[("price-first", k)] >= by[("randomized", k)]
        worst_gap = max(worst_gap, (ci - inc) / ci)
    return ok, worst_gap


def test_criterion_1_closed_form_fidelity():
    start = time.perf_counter()
    err_inc = max(
        abs(solve_incomplete(t, PARAMS).q - (1.0 + 2.0 * t) ** 2 / 6.0)
        for t in THETA_GRID
    )
    err_ci = max(
        abs(solve_complete(t, PARAMS).q - (1.0 + 2.0 * t) / 2.0) for t in THETA_GRID
    )
    elapsed = time.perf_counter() - start
    ok = err_inc <= 1e-12 and err_ci <= 1e-12 and elapsed < 1.0
    verdict(
        1,
        ok,
        f"closed forms on 1001-point grid: max |err| inc={err_inc:.2e} "
        f"ci={err_ci:.2e}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_no_distortion_at_the_top():
    ci = solve_complete(1.0, PARAMS)
    inc = solve_incomplete(1.0, PARAMS)
    ok = (ci.q, ci.r) == (1.5, 0.75) and (inc.q, inc.r) == (1.5, 0.75)
    verdict(2, ok, f"theta=1 contracts: complete {(ci.q, ci.r)}, incomplete {(inc.q, inc.r)}")


def test_criterion_3_downward_distortion_and_rent():
    ok = True
    for t in THETA_GRID:
        q_ci = solve_complete(t, PARAMS).q
        q_in = solve_incomplete(t, PARAMS).q
        ok &= q_in <= q_ci + 1e-12
        if t < 1.0:
            ok &= q_in < q_ci - 1e-12
        ok &= information_rent(t, q_in, PARAMS.delta) >= -1e-12
    rent_top = information_rent(1.0, solve_incomplete(1.0, PARAMS).q, PARAMS.delta)
    ok &= abs(rent_top) <= 1e-12
    verdict(3, ok, f"q* <= q^CI (strict below theta=1), rent >= 0, rent(1)={rent_top:.2e}")


def test_criterion_4_surplus_extraction():
    worst_ci = max(
        abs(client_utility(solve_complete(t, PARAMS), t, PARAMS.delta))
        for t in THETA_GRID
    )
    worst_in = 0.0
    for t in THETA_GRID:
        contract = solve_incomplete(t, PARAMS)
        rent = information_rent(t, contract.q, PARAMS.delta)
        worst_in = max(
            worst_in, abs(client_utility(contract, t, PARAMS.delta) - rent)
        )
    ok = worst_ci <= 1e-12 and worst_in <= 1e-9
    verdict(
        4,
        ok,
        f"complete utility |err|<= {worst_ci:.2e}, incomplete vs rent formula "
        f"|err|<= {worst_in:.2e}",
    )


def test_criterion_5_regime_gap():
    ok = True
    for t in THETA_GRID:
        gap = server_utility_per_client(
            solve_complete(t, PARAMS), PARAMS
        ) - server_utility_per_client(solve_incomplete(t, PARAMS), PARAMS)
        ok &= gap >= -1e-12
    gap_top = server_utility_per_client(
        solve_complete(1.0, PARAMS), PARAMS
    ) - server_utility_per_client(solve_incomplete(1.0, PARAMS), PARAMS)
    ok &= abs(gap_top) <= 1e-9
    verdict(5, ok, f"complete - incomplete >= 0 on grid, gap at theta=1 = {gap_top:.2e}")


def test_criterion_6_banzhaf_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    n, samples = 8, 10_000
    ok = True
    for trial in range(50):
        table = rng.normal(size=1 << n)

        def evaluate(masks):
            # Row r's coalition bitmask indexes the table.
            return table[(masks.astype(np.int64) << np.arange(n)).sum(axis=1)]

        u = CoalitionUtility(evaluate, CoalitionMode.RETRAIN)
        i = int(rng.integers(n))
        exact = banzhaf_exact(u, n)[i]
        est = banzhaf_mc(u, n, samples, [trial] * n)[i]
        others = [j for j in range(n) if j != i]
        without = np.zeros((1 << (n - 1), n), dtype=bool)
        for mask in range(1 << (n - 1)):
            without[mask, others] = [mask >> b & 1 for b in range(n - 1)]
        with_i = without.copy()
        with_i[:, i] = True
        marginals = evaluate(with_i) - evaluate(without)
        sigma = float(np.std(marginals))
        ok &= abs(est - exact) <= 3.0 * sigma / np.sqrt(samples)
    values = {i: float(v) for i, v in enumerate(rng.normal(size=n))}
    u_add = additive_utility(values)
    exact_add = banzhaf_exact(u_add, n)
    mc_add = banzhaf_mc(u_add, n, 10, list(range(n)))
    for i in range(n):
        ok &= abs(exact_add[i] - values[i]) <= 1e-12
        ok &= abs(mc_add[i] - values[i]) <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    verdict(6, ok, f"50 random 8-player games within 3 SE, additive exact, {elapsed:.1f} s")


def test_criterion_7_mechanism_ordering():
    start = time.perf_counter()
    config = ordering_config()
    ok, gap = check_ordering(summary_by_mechanism(config), config.k_values)
    elapsed = time.perf_counter() - start
    ok &= gap <= 0.02 and elapsed < 120.0
    verdict(
        7,
        ok,
        f"ordering over 20 seeds, k in {config.k_values}; worst regime gap "
        f"{gap:.2%} (<= 2%), {elapsed:.0f} s",
    )


def test_criterion_8_poisoning_detection():
    start = time.perf_counter()
    config = ExperimentConfig(
        n_clients=20,
        k_values=[10],
        rounds=10,
        seeds=list(range(20)),
        theta_min=0.3,
        theta_max=1.0,
        poison_count=3,
        poison_flip_rate=0.8,
        local_epochs=3,
        learning_rate=0.5,
    )
    config.validate()
    separated = 0
    for seed in config.seeds:
        rows = run_tables(replace(config, seeds=[seed])).reputation
        final = {r["client"]: r["epsilon"] for r in rows if r["round"] == config.rounds - 1}
        behavior = {r["client"]: r["behavior"] for r in rows}
        poisoners = [final[c] for c in final if behavior[c] == "poisoner"]
        honest = [final[c] for c in final if behavior[c] == "honest"]
        separated += max(poisoners) < min(honest)
    elapsed = time.perf_counter() - start
    ok = separated >= 18 and elapsed < 120.0
    verdict(
        8,
        ok,
        f"poisoners fully below honest in {separated}/20 seeds (>= 18), {elapsed:.0f} s",
    )


def test_criterion_9_aggregation_universality():
    ok = True
    details = []
    for algo in (Aggregator.FEDAVG, Aggregator.FEDPROX, Aggregator.SCAFFOLD):
        config = ordering_config(k_values=[10], seeds=list(range(10)), aggregation=algo)
        order_ok, gap = check_ordering(summary_by_mechanism(config), config.k_values)
        ok &= order_ok and gap <= 0.02
        details.append(f"{algo.value} gap {gap:.2%}")
    verdict(9, ok, "ordering holds under " + ", ".join(details))


def test_criterion_10_ledger_robustness():
    config = ExperimentConfig(
        n_clients=20,
        k_values=[10],
        rounds=6,
        seeds=list(range(20)),
        theta_min=0.3,
        theta_max=1.0,
        local_epochs=2,
        learning_rate=0.1,
        mechanisms=["ours-complete"],
        tamper_alphas=[0.1, 0.3],
        tamper_betas=[1.5, 3.0],
        ledger_modes=["chained", "vulnerable"],
    )
    config.validate()
    cells = {}
    for row in run_tables(config).robustness:
        cells.setdefault((row["alpha"], row["beta"]), {})[row["ledger_mode"]] = row[
            "mean_utility"
        ]
    ok = all(d["chained"] >= d["vulnerable"] for d in cells.values())
    worst = min(d["chained"] - d["vulnerable"] for d in cells.values())

    rng = np.random.default_rng(2024)
    detected = 0
    trials = 1000
    for _ in range(trials):
        ledger = HashChainLedger()
        for idx in range(200):
            ledger.append(idx // 20, idx % 20, 0.01 * idx, 0.1 + 0.01 * idx)
        idx = int(rng.integers(200))
        raw = bytearray(ledger.records[idx].to_bytes())
        raw[int(rng.integers(RECORD_SIZE))] ^= 1 << int(rng.integers(8))
        ledger.records[idx] = ReputationRecord.from_bytes(bytes(raw))
        reported = ledger.verify()
        detected += reported is not None and reported <= idx
    ok &= detected == trials
    verdict(
        10,
        ok,
        f"chained >= vulnerable in all {len(cells)} (alpha, beta) cells "
        f"(min margin {worst:.3f}); {detected}/{trials} mutations detected",
    )


def test_criterion_11_end_to_end_determinism(tmp_path):
    body = (
        "n_clients = 8\n"
        "k_select = 4\n"
        "rounds = 3\n"
        "seeds = 0, 1\n"
        "theta_min = 0.3\n"
        "local_epochs = 2\n"
        "tamper_alphas = 0.3\n"
        "tamper_betas = 2.0\n"
        "ledger_modes = chained, vulnerable\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(body)
    names = ("rounds.csv", "summary.csv", "reputation.csv", "robustness.csv")
    assert main(["run", str(cfg_path)]) == 0
    first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    assert main(["run", str(cfg_path)]) == 0
    ok = all((tmp_path / "out" / n).read_bytes() == first[n] for n in names)
    verdict(11, ok, f"two runs produced byte-identical {', '.join(names)}")
