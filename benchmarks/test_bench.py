"""Tests of the benchmark itself: configs, metric names, tracing, output checks."""

import json
import re
import time
from pathlib import Path

import pytest

import tracer as tracing
from bench import END_TO_END_UNITS, layer_unit
from flmarket import auction, cli, flsim
from flmarket.config import parse_config
from workloads import WORKLOADS, check_outputs, count_rounds, make_config, write_config

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(workload: str, tmp_path: Path, traced: bool = False, **overrides):
    config = make_config(workload, 0, str(tmp_path / "out"))
    config.update(overrides)
    path = tmp_path / "workload.cfg"
    write_config(config, path)
    tracer = tracing.Tracer().install() if traced else None
    try:
        start = time.perf_counter()
        rc = cli.main(["run", str(path)])
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert rc == 0
    return config, tracer, wall


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_configs_parse(workload, tmp_path):
    for seed in (0, 1, 12345):
        config = make_config(workload, seed, str(tmp_path / "out"))
        write_config(config, tmp_path / "c.cfg")
        parsed = parse_config(tmp_path / "c.cfg")
        assert parsed.seeds == config["seeds"]
        assert len(set(parsed.seeds)) == WORKLOADS[workload]["n_seeds"]
        assert count_rounds(config) > 0
    assert make_config(workload, 7, "o") == make_config(workload, 7, "o")
    assert make_config(workload, 7, "o")["seeds"] != make_config(workload, 8, "o")["seeds"]


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == END_TO_END_UNITS
    emitted = list(tracing.Tracer().metrics()) + ["trace.overhead_frac"]
    assert per_layer == {name: layer_unit(name) for name in emitted}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in list(end_to_end) + list(per_layer):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_self_times_sum_to_at_most_wall(tmp_path):
    _, tracer, wall = _run("ledger-long", tmp_path, traced=True, rounds=4)
    metrics = tracer.metrics()
    assert 0.0 < sum(tracer.self_s.values()) <= wall
    assert metrics["auction.run_round.calls"] == 4 * 4
    assert metrics["ledger.append.plain.calls"] > 0
    assert metrics["ledger.hash_calls"] > 0
    assert metrics["reputation.coalition_evals"] > 0
    # Uninstalling restores every rebinding.
    assert auction.local_train is flsim.local_train
    assert auction.run_round.__name__ == "run_round"


def test_missing_function_reads_as_zero(monkeypatch):
    monkeypatch.setattr(
        tracing, "SPANS", tracing.SPANS + [("flmarket.flsim", "no_such_function", "flsim.gone")]
    )
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    assert tracer.calls["flsim.gone"] == 0


def test_changed_signature_does_not_break_the_run():
    tracer = tracing.Tracer().install()
    try:
        merged = flsim.aggregate(
            models=[flsim.init_model()], sample_counts=[1], cfg=flsim.AggregationConfig()
        )
    finally:
        tracer.uninstall()
    assert merged.weights.shape == (flsim.FEATURE_DIM + 1,)
    assert tracer.metrics()["trace.hook_errors"] == 1


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("grid")
    config, _, _ = _run("grid-ordering", tmp_path, seeds=[3], rounds=2)
    return config, tmp_path / "out"


def test_checks_pass_on_real_outputs(grid_run):
    config, out = grid_run
    errors, digests = check_outputs("grid-ordering", config, out)
    assert errors == []
    assert set(digests) == {"rounds.csv", "summary.csv", "reputation.csv"}


def _set_field(column: int, value: str):
    """Edit that sets one field of the first data row of rounds.csv."""

    def edit(lines):
        fields = lines[2].rstrip("\n").split(",")
        fields[column] = value
        return lines[:2] + [",".join(fields) + "\n"] + lines[3:]

    return edit


def _swap_mechanisms(lines):
    swap = {"ours-complete": "randomized", "randomized": "ours-complete"}
    out = []
    for line in lines:
        head, sep, rest = line.partition(",")
        out.append(swap.get(head, head) + sep + rest)
    return out


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("summary.csv", _swap_mechanisms, "breaks ordering"),
        ("summary.csv", lambda lines: lines[:-1], "rows, expected"),
        ("rounds.csv", lambda lines: [lines[0].replace("seeds=", "seeds=9")] + lines[1:], "provenance"),
        ("rounds.csv", _set_field(4, "nan"), "not finite"),
        ("rounds.csv", _set_field(5, "1.5"), "outside [0, 1]"),
    ],
)
def test_checks_fail_on_corrupted_csv(grid_run, tmp_path, name, edit, message):
    config, out = grid_run
    copy = tmp_path / "out"
    copy.mkdir()
    for csv in out.iterdir():
        (copy / csv.name).write_text(csv.read_text())
    lines = (copy / name).read_text().splitlines(keepends=True)
    (copy / name).write_text("".join(edit(lines)))
    errors, _ = check_outputs("grid-ordering", config, copy)
    assert any(message in e for e in errors), errors
