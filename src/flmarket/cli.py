"""Command-line experiment runner.

Subcommands:
    run <config>          run the experiment grid, write plot-ready CSVs
    verify-ledger <file>  check a persisted reputation chain for tampering
    solve --theta ...     print the contract for one efficiency type
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .auction import COLUMNS, run_tables
from .config import ConfigError, ExperimentConfig, parse_config
from .ledger import HashChainLedger
from .mechanism import MarketParams, Regime, solve


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header_comment: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {header_comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def cmd_run(config: ExperimentConfig) -> int:
    """Run the config's grids in one pass over its seeds and write their
    CSVs once every cell has run, so a run that fails writes none; raises
    ConfigError, before any cell runs, if `output_dir` cannot be created."""
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir {str(out)!r} cannot be created: {exc.strerror}") from exc
    stamp = f"config_sha={config.digest()} seeds={','.join(map(str, config.seeds))}"

    tables = run_tables(config)
    for name, columns, rows in zip(tables._fields, COLUMNS, tables):
        if name != "robustness" or config.tamper_alphas:
            _write_csv(out / f"{name}.csv", stamp, columns, rows)
    return 0


def cmd_verify_ledger(path: str) -> int:
    try:
        ledger = HashChainLedger.load(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 1
    tampered = ledger.verify()
    if tampered is None:
        print(f"OK ({len(ledger)} records)")
        return 0
    print(f"tampered at index {tampered}")
    return 1


def cmd_solve(theta: float, lam: float, delta: float, regime: str) -> int:
    contract = solve(theta, MarketParams(lam, delta, n_clients=1, k_select=1), Regime(regime))
    print(f"regime={regime} theta={theta!r} q={contract.q!r} r={contract.r!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flmarket",
        description="Auction-based federated learning simulator (buyers' market)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a flat key=value config file")

    p_verify = sub.add_parser("verify-ledger", help="verify a persisted reputation chain")
    p_verify.add_argument("ledger", help="path to a binary ledger file")

    p_solve = sub.add_parser("solve", help="print the contract for one client type")
    p_solve.add_argument("--theta", type=float, required=True)
    p_solve.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_solve.add_argument("--delta", type=float, default=2.0)
    p_solve.add_argument(
        "--regime", choices=[r.value for r in Regime], default="complete"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            return cmd_run(parse_config(args.config))
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # component failure -> nonzero exit with message
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.command == "verify-ledger":
        return cmd_verify_ledger(args.ledger)
    if args.command == "solve":
        try:
            return cmd_solve(args.theta, args.lam, args.delta, args.regime)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
