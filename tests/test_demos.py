"""Smoke runs of each demo's ``main()`` with its data, seeds and noise
strengths shrunk, so that an API change cannot leave a demo broken, and
checks that demos 02 and 03 print what the CLI's artifacts hold."""

import contextlib
import importlib.util
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

SHRUNK = {
    "01_autodiff_basics": {},
    "02_pretraining_ablation": {"SEEDS": range(2)},
    "03_privacy_tradeoff": {"LAMBDAS": (1.0,)},
}


def load(name):
    """A demo's module with its data, seeds and noise strengths shrunk."""
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    if hasattr(demo, "SPEC"):
        demo.SPEC = replace(demo.SPEC, latent_dim=4, feature_dims=(6, 6), aligned=130,
                            unaligned=(30, 30), labeled=100, test=40)
    for key, value in SHRUNK[name].items():
        setattr(demo, key, value)
    return demo


@pytest.fixture(scope="module")
def run_demo(tmp_path_factory):
    """Run a shrunk demo once per module, in a fresh working directory
    (demos 02 and 03 write under ./runs); returns (module, directory, stdout)."""
    runs = {}

    def run(name):
        if name not in runs:
            demo = load(name)
            cwd, out = tmp_path_factory.mktemp(name), io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
                mp.chdir(cwd)
                demo.main()
            runs[name] = demo, cwd, out.getvalue()
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_demo_main_runs(name, run_demo):
    assert run_demo(name)[2]


def test_ablation_demo_pretrains_each_seed(run_demo):
    demo, cwd, _ = run_demo("02_pretraining_ablation")
    runs = cwd / "runs" / "demo02"
    assert sorted(p.relative_to(runs) for p in runs.glob("*/*/checkpoint.bin")) == sorted(
        Path(preset, f"seed{seed}", "checkpoint.bin")
        for preset in demo.PRESETS for seed in demo.SEEDS)
    for preset in demo.PRESETS:
        assert (runs / preset / "seed0" / "checkpoint.bin").read_bytes() != \
            (runs / preset / "seed1" / "checkpoint.bin").read_bytes()


def test_privacy_demo_prints_the_cap_of_attack_json(run_demo):
    _, cwd, out = run_demo("03_privacy_tradeoff")
    attack = json.loads((cwd / "runs" / "demo03" / "attack.json").read_text())
    cap_line = next(line for line in out.splitlines() if line.startswith("CAP"))
    assert cap_line.split()[-1] == f"{attack['cap']:.4f}"


@pytest.mark.parametrize("name", ["02_pretraining_ablation", "03_privacy_tradeoff"])
def test_demo_stops_on_a_failed_command(name, tmp_path, monkeypatch):
    demo = load(name)
    monkeypatch.setattr(demo.cli, "main", lambda argv: 3)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="vflhssl pretrain .* exited 3"):
        demo.main()
