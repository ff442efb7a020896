import dataclasses
import os
import subprocess
import sys
import warnings
from enum import Enum
from pathlib import Path

import pytest

from flmarket import auction
from flmarket.cli import main
from flmarket.config import _KEYS, ConfigError, ExperimentConfig, parse_config
from flmarket.flsim import Aggregator
from flmarket.ledger import HashChainLedger

EXAMPLE = Path(__file__).resolve().parents[1] / "example.cfg"


SMALL_CONFIG = """\
n_clients = 6
k_select = 3
rounds = 2
seeds = 0, 1
theta_min = 0.3
local_epochs = 2
"""


# lambda * q_top of the top type is about 1.6e308: finite alone, not summed.
OVERFLOWING_SUM = (
    "n_clients = 8\nk_select = 8\ndelta = 0.001\nmechanisms = ours-complete\n"
    "lambda = 1.8e154"
)


def write_config(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


def small_config(tmp_path, lines=""):
    """SMALL_CONFIG writing to tmp_path/out, with `lines` in place of its
    lines for the same keys, since a config may give each key once."""
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    kept = [
        line for line in SMALL_CONFIG.splitlines()
        if line.partition("=")[0].strip() not in keys
    ]
    return "\n".join([*kept, f"output_dir = {tmp_path / 'out'}", *lines.splitlines()]) + "\n"


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(tmp_path, "n_clients = 10\nk_select = 3\n")
        config = parse_config(path)
        assert config.n_clients == 10
        assert config.k_values == [3]
        assert config.w1 == config.w2 == 0.5
        assert config.delta == 2.0
        assert config.lam == 1.0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = write_config(tmp_path, "# a comment\n\nn_clients = 4\nk_select = 2\n")
        assert parse_config(path).n_clients == 4

    def test_k_exceeding_n_names_the_invariant(self, tmp_path):
        path = write_config(tmp_path, "n_clients = 3\nk_select = 5\n")
        with pytest.raises(ConfigError, match="k_select <= n_clients"):
            parse_config(path)

    def test_bad_weights_name_the_invariant(self, tmp_path):
        path = write_config(tmp_path, "w1 = 0.9\nw2 = 0.2\n")
        with pytest.raises(ConfigError, match=r"w1 \+ w2 = 1"):
            parse_config(path)

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = write_config(tmp_path, "n_clients = 3\nbogus = 1\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_config(tmp_path, "just some words\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_config(path)

    def test_unparseable_value_reports_key(self, tmp_path):
        path = write_config(tmp_path, "rounds = many\n")
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(path)

    def test_key_given_twice_names_the_key(self, tmp_path):
        path = write_config(tmp_path, "rounds = 2\nn_clients = 4\nrounds = 3\n")
        with pytest.raises(ConfigError, match=r":3: key 'rounds' given twice \(first on line 1\)"):
            parse_config(path)

    def test_digest_tracks_config_content(self, tmp_path):
        a = parse_config(write_config(tmp_path, "n_clients = 5\nk_select = 2\n", "a.cfg"))
        b = parse_config(write_config(tmp_path, "n_clients = 5\nk_select = 2\n", "b.cfg"))
        c = parse_config(write_config(tmp_path, "n_clients = 6\nk_select = 2\n", "c.cfg"))
        d = parse_config(  # the same experiment, written elsewhere
            write_config(tmp_path, "n_clients = 5\nk_select = 2\noutput_dir = o2\n", "d.cfg")
        )
        assert a.digest() == b.digest() == d.digest()
        assert a.digest() != c.digest()


# A config that sets every key away from its default.
NON_DEFAULT = ExperimentConfig(
    n_clients=7, k_values=[2, 3], rounds=4, seeds=[3, 1], lam=1.5, delta=1.25,
    mechanisms=["randomized", "ours-incomplete"], aggregation=Aggregator.SCAFFOLD,
    local_epochs=4, learning_rate=0.25, prox_mu=0.05, w1=0.25, w2=0.75,
    theta_min=0.1, theta_max=0.9, poison_count=2, poison_flip_rate=0.5,
    tamper_alphas=[0.1, 0.2], tamper_betas=[2.0], ledger_modes=["vulnerable", "chained"],
    trust_policy="zero", output_dir="elsewhere",
)


def config_lines(config):
    """`config` as "key = value" lines, one for each key of the parse table."""

    def text(value):
        if isinstance(value, list):
            return ", ".join(map(str, value))
        return value.value if isinstance(value, Enum) else str(value)

    return "".join(f"{key} = {text(getattr(config, name))}\n" for key, (name, _) in _KEYS.items())


class TestConfigKeys:
    """Each key is its field, parsed by the field's type; only `k_select`
    and `lambda` are spelled apart from theirs."""

    def test_every_key_is_a_field(self):
        assert sorted(name for name, _ in _KEYS.values()) == sorted(
            f.name for f in dataclasses.fields(ExperimentConfig)
        )
        renamed = {key: name for key, (name, _) in _KEYS.items() if key != name}
        assert renamed == {"k_select": "k_values", "lambda": "lam"}

    def test_a_non_default_config_parses_back_equal(self, tmp_path):
        default = ExperimentConfig()
        assert all(
            getattr(NON_DEFAULT, f.name) != getattr(default, f.name)
            for f in dataclasses.fields(ExperimentConfig)
        )
        parsed = parse_config(write_config(tmp_path, config_lines(NON_DEFAULT)))
        assert parsed == NON_DEFAULT
        assert parsed.digest() == NON_DEFAULT.digest()

    def test_the_example_sets_every_key_once(self):
        keys = [
            line.partition("=")[0].strip()
            for line in EXAMPLE.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        assert sorted(keys) == sorted(_KEYS)

    @pytest.mark.parametrize("line", ["k_values = 3", "lam = 1"])
    def test_a_field_spelled_apart_from_its_key_is_unknown(self, tmp_path, capsys, line):
        path = write_config(tmp_path, small_config(tmp_path, line))
        assert main(["run", str(path)]) == 2
        key = line.partition(" ")[0]
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_config_is_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.rounds = 3
        assert dataclasses.replace(config, rounds=3).rounds == 3
        assert config.rounds == ExperimentConfig.rounds


class TestSolveCommand:
    def test_defaults_are_the_config_market(self, capsys, monkeypatch):
        assert main(["solve", "--theta", "0.8"]) == 0
        assert capsys.readouterr().out == "regime=complete theta=0.8 q=1.3 r=0.65\n"
        # Read from ExperimentConfig when the parser is built, not restated.
        monkeypatch.setattr(ExperimentConfig, "lam", 1.5)
        monkeypatch.setattr(ExperimentConfig, "delta", 0.5)
        assert main(["solve", "--theta", "0.8"]) == 0
        defaulted = capsys.readouterr().out
        assert main(["solve", "--theta", "0.8", "--lambda", "1.5", "--delta", "0.5"]) == 0
        assert capsys.readouterr().out == defaulted != "regime=complete theta=0.8 q=1.3 r=0.65\n"

    def test_complete_top_type(self, capsys):
        assert main(["solve", "--theta", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "q=1.5" in out and "r=0.75" in out

    def test_incomplete_regime(self, capsys):
        assert main(["solve", "--theta", "0.5", "--regime", "incomplete"]) == 0
        out = capsys.readouterr().out
        # q* = (1 + 2*0.5)^2 / 6
        assert f"q={(2.0 ** 2) / 6!r}" in out

    def test_invalid_theta_is_a_usage_error(self, capsys):
        assert main(["solve", "--theta", "1.5"]) == 2
        # A float's message names no index; only an array's does.
        assert capsys.readouterr().err == "error: efficiency theta must lie in [0, 1], got 1.5\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["--theta", "1", "--lambda", "1e200"],
            ["--theta", "0.5", "--delta", "1e308", "--regime", "incomplete"],
            # 1.3 q_top^2 is finite here, but the rent's numerator is not.
            ["--theta", "0.8", "--delta", "1e150", "--regime", "incomplete"],
        ],
        ids=["lambda=1e200", "delta=1e308", "delta=1e150"],
    )
    def test_overflowing_market_is_a_usage_error(self, capsys, args):
        assert main(["solve", *args]) == 2
        assert "overflow a contract" in capsys.readouterr().err


class TestVerifyLedgerCommand:
    def _chain_file(self, tmp_path, n=12):
        ledger = HashChainLedger()
        for i in range(n):
            ledger.append(i // 3, i % 3, 0.01 * i, 0.1 * i)
        path = tmp_path / "chain.bin"
        ledger.save(path)
        return path

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self._chain_file(tmp_path)
        assert main(["verify-ledger", str(path)]) == 0
        assert "OK (12 records)" in capsys.readouterr().out

    def test_flipped_byte_exits_one_with_index(self, tmp_path, capsys):
        path = self._chain_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8 + 5 * 96 + 24] ^= 0x01  # epsilon byte of record 5
        path.write_bytes(bytes(raw))
        assert main(["verify-ledger", str(path)]) == 1
        assert "tampered at index 5" in capsys.readouterr().out

    def test_empty_file_is_a_valid_empty_chain(self, tmp_path, capsys):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert main(["verify-ledger", str(path)]) == 0
        assert "OK (0 records)" in capsys.readouterr().out

    def test_truncated_file_is_a_format_error(self, tmp_path, capsys):
        path = self._chain_file(tmp_path)
        path.write_bytes(path.read_bytes()[:-7])
        assert main(["verify-ledger", str(path)]) == 1
        assert "format error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["verify-ledger", str(tmp_path / "nope.bin")]) == 1


class TestRunCommand:
    def test_writes_all_csvs(self, tmp_path):
        body = SMALL_CONFIG + (
            f"output_dir = {tmp_path / 'out'}\n"
            "tamper_alphas = 0.5\n"
            "tamper_betas = 2.0\n"
            "ledger_modes = chained, vulnerable\n"
        )
        path = write_config(tmp_path, body)
        assert main(["run", str(path)]) == 0
        out = tmp_path / "out"
        for name in ("rounds.csv", "summary.csv", "reputation.csv", "robustness.csv"):
            assert (out / name).exists(), name

    def test_csv_headers_carry_config_hash_and_seeds(self, tmp_path):
        body = SMALL_CONFIG + f"output_dir = {tmp_path / 'out'}\n"
        path = write_config(tmp_path, body)
        config = parse_config(path)
        assert main(["run", str(path)]) == 0
        first = (tmp_path / "out" / "summary.csv").read_text().splitlines()[0]
        assert first == f"# config_sha={config.digest()} seeds=0,1"

    def test_summary_has_one_row_per_mechanism_per_k(self, tmp_path):
        body = SMALL_CONFIG + f"output_dir = {tmp_path / 'out'}\n"
        path = write_config(tmp_path, body)
        assert main(["run", str(path)]) == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[1] == "mechanism,k,mean_utility,std_utility"
        assert len(lines) == 2 + 4  # comment + header + 4 mechanisms at one k

    def test_reruns_are_byte_identical(self, tmp_path):
        body = SMALL_CONFIG + f"output_dir = {tmp_path / 'out'}\n"
        path = write_config(tmp_path, body)
        assert main(["run", str(path)]) == 0
        first = {
            n: (tmp_path / "out" / n).read_bytes()
            for n in ("rounds.csv", "summary.csv", "reputation.csv")
        }
        assert main(["run", str(path)]) == 0
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob, name

    def test_missing_config_is_a_usage_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize(
        "key, invariant",
        [
            ("seeds", "seeds must list at least one seed"),
            ("k_select", "k_select must list at least one value"),
            ("mechanisms", "mechanisms must list at least one mechanism"),
            ("ledger_modes", "ledger_modes must list at least one mode"),
        ],
    )
    def test_empty_list_is_a_usage_error_naming_the_invariant(
        self, tmp_path, capsys, key, invariant
    ):
        path = write_config(tmp_path, small_config(tmp_path, f"{key} ="))
        assert main(["run", str(path)]) == 2
        assert invariant in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            pytest.param(lines, message, id=lines.splitlines()[-1])
            for lines, message in [
                ("seeds = -1", "seeds must be nonnegative"),
                ("local_epochs = 0", "local_epochs must be a positive integer"),
                ("prox_mu = -1", "prox_mu must be nonnegative and finite"),
                ("learning_rate = -0.5", "learning_rate must be nonnegative and finite"),
                ("lambda = nan", "lambda must be positive and finite, got nan"),
                ("tamper_alphas = 0.5\ntamper_betas = nan", "beta must be positive and finite"),
                ("lambda = inf", "lambda must be positive and finite, got inf"),
                ("delta = inf", "delta must be positive and finite, got inf"),
                ("lambda = 1e200", "overflow a contract"),
                ("delta = 1e308", "overflow a contract"),
                ("learning_rate = inf", "learning_rate must be nonnegative and finite"),
                ("prox_mu = inf", "prox_mu must be nonnegative and finite"),
                ("tamper_alphas = 0.5\ntamper_betas = inf", "beta must be positive and finite"),
                ("mechanisms = ours-screening", "unknown mechanisms ['ours-screening']"),
                # A tamper grid is tamper_alphas x tamper_betas: half of one is empty.
                ("tamper_alphas = 0.3", "tamper_betas must list at least one value"),
                ("tamper_betas = 2.0", "tamper_alphas must list at least one value"),
                # Each payoff is finite, but 8 of them per round overflow a sum.
                (OVERFLOWING_SUM, "overflow a utility sum"),
                # Checked before poison_count, whose bound it would break.
                ("n_clients = -3", "n_clients must be a positive integer"),
                # Every listed k, not only the first, lies in 1..n_clients (6).
                ("k_select = 0", "1 <= k_select <= n_clients"),
                ("k_select = -1", "1 <= k_select <= n_clients"),
                ("k_select = 3, 7", "1 <= k_select <= n_clients"),
            ]
        ],
    )
    def test_out_of_range_value_is_a_usage_error(self, tmp_path, capsys, lines, message):
        path = write_config(tmp_path, small_config(tmp_path, lines))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_utility_sum_names_the_invariant(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path, OVERFLOWING_SUM + "\nseeds = 0"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "overflow a utility sum: rounds * max(k_select) * seeds = 2 * 8 * 1" in err
        # The same market with one payoff per run sums nothing.
        one = OVERFLOWING_SUM.replace("k_select = 8", "k_select = 1") + "\nseeds = 0\nrounds = 1"
        assert parse_config(write_config(tmp_path, small_config(tmp_path, one))).k_values == [1]

    @pytest.mark.parametrize(
        "lines, cause",
        [
            # Finite local weights near the float maximum overflow their average.
            ("learning_rate = 1e308", "aggregation diverged"),
            # FedProx steps scale w - w_global by 1 - lr * mu = -9 per epoch.
            (
                "aggregation = fedprox\nprox_mu = 1\nlocal_epochs = 400\nlearning_rate = 10",
                "local training diverged",
            ),
            # The third epoch's prox pull, mu * (w - w_global), overflows.
            (
                "aggregation = fedprox\nprox_mu = 1e300\nlocal_epochs = 3",
                "local training diverged",
            ),
        ],
        ids=["learning_rate=1e308", "fedprox", "prox_mu=1e300"],
    )
    def test_diverged_model_is_a_component_failure(self, tmp_path, capsys, lines, cause):
        # Training and aggregation check finiteness themselves, so their
        # overflow must not surface first as a numpy RuntimeWarning.
        path = write_config(tmp_path, small_config(tmp_path, lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cause}" in err and "non-finite weights" in err
        assert not (tmp_path / "out" / "rounds.csv").exists()

    @pytest.mark.parametrize("target", ["file", "file/out"])
    def test_output_dir_that_cannot_be_made_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, target
    ):
        (tmp_path / "file").write_text("")
        body = small_config(tmp_path).replace(str(tmp_path / "out"), str(tmp_path / target))
        evaluated = []
        # Every cell runs on its seed's prices, and plays through one of
        # these: an `ours-*` round or a baseline cell.
        for name in ("_prices", "run_cell", "run_round"):
            monkeypatch.setattr(auction, name, lambda *args, **kw: evaluated.append(args))
        assert main(["run", str(write_config(tmp_path, body))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir") and str(tmp_path / target) in err
        assert evaluated == []

    def test_csv_that_cannot_be_written_is_a_component_failure(self, tmp_path, capsys):
        (tmp_path / "out" / "rounds.csv").mkdir(parents=True)
        assert main(["run", str(write_config(tmp_path, small_config(tmp_path)))]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_key_given_twice_is_a_usage_error(self, tmp_path, capsys):
        body = small_config(tmp_path) + "rounds = 3\n"  # SMALL_CONFIG sets rounds = 2
        assert main(["run", str(write_config(tmp_path, body))]) == 2
        assert "key 'rounds' given twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, lines",
        [
            ("k_select", "k_select = 2, 3, 2"),
            ("mechanisms", "mechanisms = ours-complete, price-first, ours-complete"),
            (
                "ledger_modes",
                "ledger_modes = chained, chained\ntamper_alphas = 0.3\ntamper_betas = 2",
            ),
            ("tamper_alphas", "tamper_alphas = 0.3, 0.30\ntamper_betas = 2"),
            ("tamper_betas", "tamper_alphas = 0.3\ntamper_betas = 2, 2.0"),
        ],
        ids=["k_select", "mechanisms", "ledger_modes", "tamper_alphas", "tamper_betas"],
    )
    def test_repeated_list_entry_is_a_usage_error(self, tmp_path, capsys, key, lines):
        path = write_config(tmp_path, small_config(tmp_path, lines))
        assert main(["run", str(path)]) == 2
        assert f"config error: {key} repeats" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config_is_a_usage_error(self, tmp_path, capsys, kind):
        path = tmp_path / "exp.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"n_clients = 4\n# caf\xe9\n")
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_saved_with_a_byte_order_mark_runs(self, tmp_path):
        # Windows editors save UTF-8 with a BOM, which must not read as part
        # of the first key.
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + small_config(tmp_path).encode())
        plain = write_config(tmp_path, small_config(tmp_path), "plain.cfg")
        assert parse_config(path) == parse_config(plain)
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "rounds.csv").exists()

    def test_invalid_config_is_a_usage_error(self, tmp_path):
        path = write_config(tmp_path, "n_clients = 3\nk_select = 9\n")
        assert main(["run", str(path)]) == 2

    def test_no_ours_mechanism_writes_an_empty_reputation_csv(self, tmp_path):
        body = (
            "n_clients = 6\nk_select = 3\nrounds = 2\nseeds = 0\n"
            f"mechanisms = price-first\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(write_config(tmp_path, body))]) == 0
        lines = (tmp_path / "out" / "reputation.csv").read_text().splitlines()
        assert lines[1:] == ["round,client,epsilon,behavior"]
        assert len((tmp_path / "out" / "rounds.csv").read_text().splitlines()) == 2 + 2

    def test_tamper_grid_without_ours_mechanism_is_a_usage_error(self, tmp_path, capsys):
        body = (
            "n_clients = 6\nk_select = 3\nrounds = 2\nseeds = 0\n"
            "mechanisms = price-first\ntamper_alphas = 0.3\ntamper_betas = 2.0\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(write_config(tmp_path, body))]) == 2
        assert "needs an ours-* mechanism" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestModuleEntryPoint:
    """`python -m flmarket` in a fresh process keeps the documented exit codes."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "flmarket", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        return proc.returncode

    def test_documented_exit_codes(self, tmp_path):
        ledger = HashChainLedger()
        for i in range(6):
            ledger.append(i // 2, i % 2, 0.01 * i, 0.1 * i)
        intact = tmp_path / "intact.bin"
        ledger.save(intact)
        raw = bytearray(intact.read_bytes())
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(raw[:-5])
        raw[8 + 3 * 96 + 16] ^= 0x01  # epsilon byte of record 3
        tampered = tmp_path / "tampered.bin"
        tampered.write_bytes(raw)
        bad_config = write_config(tmp_path, "n_clients = 3\nk_select = 9\n")
        overflowing = write_config(tmp_path, small_config(tmp_path, OVERFLOWING_SUM), "sum.cfg")
        diverging = write_config(
            tmp_path, small_config(tmp_path, "learning_rate = 1e308"), "lr.cfg"
        )
        unwritable = write_config(
            tmp_path, f"n_clients = 3\nk_select = 2\noutput_dir = {intact}\n", "out.cfg"
        )
        assert self._run("verify-ledger", str(intact)) == 0
        assert self._run("verify-ledger", str(tampered)) == 1
        assert self._run("verify-ledger", str(truncated)) == 1
        assert self._run("run", str(bad_config)) == 2
        assert self._run("run", str(overflowing)) == 2
        assert self._run("run", str(diverging)) == 1
        assert self._run("run", str(unwritable)) == 2
