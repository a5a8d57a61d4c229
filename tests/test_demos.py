"""Smoke runs of each demo's ``main()`` with its data, seeds and noise
strengths shrunk, so that an API change cannot leave a demo broken."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

SHRUNK = {
    "01_autodiff_basics": {},
    "02_pretraining_ablation": {"SEEDS": range(1)},
    "03_privacy_tradeoff": {"LAMBDAS": (0.0, 1.0)},
}


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_demo_main_runs(name, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    if hasattr(demo, "SPEC"):  # the demos' models are built for 10 classes
        monkeypatch.setattr(demo, "SPEC", replace(
            demo.SPEC, latent_dim=4, feature_dims=(6, 6), aligned=130,
            unaligned=(30, 30), labeled=100, test=40,
        ))
    for key, value in SHRUNK[name].items():
        monkeypatch.setattr(demo, key, value)
    monkeypatch.chdir(tmp_path)  # demo 03 writes tradeoff.csv to the working directory
    demo.main()
    assert capsys.readouterr().out
