"""Tests of the benchmark itself.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's own test run.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from vflhssl import cli, nn, vfl  # noqa: E402


@pytest.mark.parametrize("shape", [(3,), (5, 16), (128, 32), (1, 1)])
def test_frame_bytes_match_encoder(shape):
    msg = vfl.WireMessage(vfl.MSG_REPR, 1, 1, np.zeros(shape))
    assert len(vfl.encode_message(msg)) == workloads.frame_bytes(shape)


def test_read_checkpoint_matches_program(tmp_path):
    config = cli.load_config(preset="fedhssl-simsiam")
    dataset = cli.build_dataset(config)
    nodes = vfl.make_parties(dataset, cli.build_model_config(config, dataset), "simsiam", 0)
    path = tmp_path / "checkpoint.bin"
    nn.save_checkpoint(path, [p.model for p in nodes], "fp", seeds=[0])
    parties = run.read_checkpoint(path)
    for node, arrays in zip(nodes, parties):
        named = dict(node.model.named_params())
        assert set(named) == set(arrays)
        for name, tensor in named.items():
            assert arrays[name] == tensor.values.astype("<f8").tobytes()


def test_csv_inputs_follow_the_seed(tmp_path):
    a = workloads.write_csv_parties(3, tmp_path / "a")
    b = workloads.write_csv_parties(3, tmp_path / "b")
    c = workloads.write_csv_parties(4, tmp_path / "c")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert [p.read_bytes() for p in a] != [p.read_bytes() for p in c]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_sizes_do_not_depend_on_seed(name, tmp_path):
    _, _, first = workloads.build(name, 1, tmp_path / "1")
    _, _, second = workloads.build(name, 9, tmp_path / "9")
    assert first == second


def test_self_time_excludes_traced_children():
    t = tracer.Tracer()

    def inner():
        return sum(range(20000))

    inner_span = t._span("inner", inner)

    def outer():
        return inner_span() + inner_span()

    outer_span = t._span("outer", outer)
    t.command(outer_span)
    assert t.calls == {"inner": 2, "outer": 1}
    assert all(v >= 0 for v in t.self_s.values())
    assert t.self_s["inner"] > t.self_s["outer"]


def test_missing_wrap_target_is_reported():
    assert tracer._resolve("nn:NoSuchClass.forward") is None
    assert tracer._resolve("data:no_such_function") is None
    assert tracer._resolve("no_such_module:f") is None
    assert tracer._resolve("data:PartyBlock.rows") is not None


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hssl-unaligned",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_round_checks_catch_wrong_frame_counts(tmp_path):
    cfg, preset, expect = workloads.build("default-privacy", 1, tmp_path)
    result = {"commands": {c: {"exit": 0, "frames": {}, "bytes": {}, "trainers": []}
                           for c in run.COMMANDS}}
    failed, problems, _ = run.check_round(result, tmp_path, cfg, expect, 4)
    assert failed == 0
    assert any("closed form" in p for p in problems)


def test_failed_command_fails_its_operations(tmp_path):
    cfg, preset, expect = workloads.build("default-privacy", 1, tmp_path)
    result = {"commands": {"pretrain": {"exit": 4, "frames": {}, "bytes": {}, "trainers": []}}}
    failed, _, _ = run.check_round(result, tmp_path, cfg, expect, 4)
    assert failed == expect["operations"]


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(tracer.REPORTED) <= per_layer
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_times_are_scaled_by_the_sampled_slowdown():
    rounds = [
        {"setup_slowdown": 1.5, "commands": {
            "pretrain": {"seconds": 1.0, "slowdown": 2.0},
            "finetune": {"seconds": 2.0, "slowdown": None},
        }},
        {"setup_slowdown": 1.0, "commands": {"pretrain": {"seconds": 3.0, "slowdown": 1.0}}},
    ]
    assert run.command_pairs(rounds, "pretrain") == [(1.0, 2.0), (3.0, 1.0)]
    # An unsampled command takes the slowdown measured after the set-up.
    assert run.command_pairs(rounds, "finetune") == [(2.0, 1.5)]
    assert run.command_pairs(rounds, "attack") == []
    assert calibrate.scaled_seconds([(1.0, 2.0), (3.0, 1.0)]) == pytest.approx(4.0 / 3.0)
    # The same wall time in a phase half as fast reads half as long.
    assert calibrate.scaled_seconds([(2.0, 2.0)]) == pytest.approx(
        calibrate.scaled_seconds([(2.0, 1.0)]) / 2)


def test_sampler_measures_while_work_runs_and_restores_the_handler():
    before = (calibrate._W1.copy(), calibrate._W2.copy())
    handler = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler()
    with sampler:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(sampler.samples) >= 2
    assert 0 < sampler.busy_s < 0.35
    assert sampler.slowdown() > 0
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert calibrate.Sampler().slowdown() is None
    assert np.array_equal(calibrate._W1, before[0]) and np.array_equal(calibrate._W2, before[1])
