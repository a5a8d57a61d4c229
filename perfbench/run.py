"""Pretrain -> finetune -> attack benchmark of vflhssl.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round starts a fresh interpreter
(perfbench/round.py) that imports vflhssl from ./src, builds the
workload's dataset once, and calls the public CLI entry point for
``pretrain``, ``finetune`` from that checkpoint and ``attack`` from the
same checkpoint. Rounds repeat until ``--seconds`` is used up; every
round is whole. The machine moves between fast and slow phases lasting
from under a second to minutes, so each round also gauges the machine's
speed with a fixed piece of reference work: once after its set-up, and
every 0.1 s all through each untraced command (calibrate.py).
``setup_s`` and the command times are reported at the reference speed:
the run's total wall time of the step over the total of its slowdowns.
Memory is a median over rounds. The raw wall-time means are printed on
the line before the result.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` each round is an untraced process followed by a
traced one, and the line holds per-layer self times and counts plus the
traced-minus-untraced overhead per command. The line before it records
the machine and the checks. Exit codes: 0 done (see ``correct``),
2 bad arguments or no program to benchmark, 3 a round process crashed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROGRAM = ROOT / "src" / "vflhssl"

COMMANDS = ("pretrain", "finetune", "attack")
END_TO_END = {
    "setup_s": "s", "pretrain_s": "s", "finetune_s": "s", "attack_s": "s",
    "test_top1": "fraction", "cap": "score", "wire_bytes": "bytes", "peak_rss_mb": "MB",
}
MESSAGE_TYPES = ("Repr", "Grad", "ModelBlob")
CHANCE_MARGIN = 1.5  # test_top1 must exceed 1.5x the chance level 1/classes
TOLERANCE = 1e-12
ROUND_TIMEOUT_S = 170.0
LAST_START_S = 120.0  # no round starts later than this, so a run ends within 180 s

# Pinned in the round's environment: one BLAS/OpenMP thread, serial
# scheduler (VFLHSSL_THREADS removed), fixed hash seed.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


# -- checks computed apart from the program ------------------------------

def read_checkpoint(path):
    """Per-party {name: raw little-endian bytes} from a checkpoint file.

    Layout: b"VFLH", u16 version, u32 header length, JSON header whose
    "parties" lists (name, rows, cols) per array, then float64 arrays.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != b"VFLH":
        raise ValueError("checkpoint magic")
    hlen = int.from_bytes(raw[6:10], "little")
    header = json.loads(raw[10:10 + hlen])
    offset = 10 + hlen
    parties = []
    for entries in header["parties"]:
        arrays = {}
        for e in entries:
            size = 8 * e["rows"] * e["cols"]
            arrays[e["name"]] = raw[offset:offset + size]
            offset += size
        parties.append(arrays)
    if offset != len(raw):
        raise ValueError("checkpoint length")
    return parties


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_pretrain(out_dir, problems):
    parties = read_checkpoint(out_dir / "checkpoint.bin")
    first = parties[0]
    pma = [n for n in first if n.startswith(("f_lt.", "h_l."))]
    if not pma:
        problems.append("checkpoint holds no f_lt/h_l arrays")
    for i, party in enumerate(parties[1:], start=2):
        for name in pma:
            if party.get(name) != first[name]:
                problems.append(f"PMA array {name} of party {i} differs from party 1")
    cross = [n for n in first if n.startswith("f_c.")]
    if not cross or all(p[n] == first[n] for p in parties[1:] for n in cross):
        problems.append("f_c arrays are identical across parties")
    return {"checkpoint_sha256": _sha256(out_dir / "checkpoint.bin")}


def check_finetune(out_dir, expect, classes, problems):
    report = json.loads((out_dir / "report.json").read_text())
    runs = report["per_run"]
    if len(runs) != expect["runs"]:
        problems.append(f"report.json has {len(runs)} runs, expected {expect['runs']}")
    first = report["summary"][0]
    accs = [r["test_top1"] for r in runs if r["labeled_count"] == first["labeled_count"]]
    top1 = first["mean_test_top1"]
    if not all(_finite(a) for a in accs) or abs(sum(accs) / len(accs) - top1) > TOLERANCE:
        problems.append("report.json mean_test_top1 disagrees with its per-run entries")
    if not top1 > CHANCE_MARGIN / classes:
        problems.append(f"test_top1 {top1} is not well above chance 1/{classes}")
    return {"test_top1": top1, "report_csv_sha256": _sha256(out_dir / "report.csv")}


def check_attack(out_dir, expect, lambdas, problems):
    result = json.loads((out_dir / "attack.json").read_text())
    points = result["points"]
    if [p[0] for p in points] != [float(x) for x in lambdas]:
        problems.append("attack.json points do not follow the lambda_f sweep")
    if len(result["per_seed"]) != expect["points"]:
        problems.append(f"attack.json has {len(result['per_seed'])} points, expected {expect['points']}")
    for lam, utility, _ in points:
        accs = [s["test_top1"] for s in result["per_seed"] if s["lambda_f"] == lam]
        if not accs or abs(sum(accs) / len(accs) - utility) > TOLERANCE:
            problems.append(f"utility at lambda_f={lam} disagrees with per-seed entries")
    cap = sum(u * (1.0 - r) for _, u, r in points) / len(points)
    if not _finite(result["cap"]) or abs(cap - result["cap"]) > TOLERANCE:
        problems.append(f"cap {result['cap']} != recomputed {cap}")
    return {"cap": result["cap"]}


def check_round(result, round_dir, cfg, expect, classes):
    """Output checks of one untraced or traced round.

    Returns (failed operations, problems, deterministic outputs)."""
    problems, outputs, failed = [], {}, 0
    commands = result["commands"]
    lambdas = cfg["privacy"]["lambda_f"]
    for command in COMMANDS:
        exp = expect[command]
        entry = commands.get(command)
        if entry is None or entry["exit"] != 0:
            # A failed or skipped command fails with every model and point in it.
            failed += 1 + exp["trainers"] + exp.get("points", 0)
            if entry is not None:
                problems.append(f"{command} exited {entry['exit']}: {entry.get('error', '')[-400:]}")
            continue
        for kind in MESSAGE_TYPES:
            for what in ("frames", "bytes"):
                got, want = entry[what].get(kind, 0), exp[what].get(kind, 0)
                if got != want:
                    problems.append(f"{command}: {kind} {what} {got} != closed form {want}")
        trainers = entry["trainers"]
        if len(trainers) != exp["trainers"]:
            problems.append(f"{command}: {len(trainers)} fine-tuned models, expected {exp['trainers']}")
        if any(steps != exp["steps_per_trainer"] for steps, _ in trainers):
            problems.append(f"{command}: a model took other than {exp['steps_per_trainer']} steps")
        diverged = [bad > 0 for _, bad in trainers]
        failed += sum(diverged)
        if command == "attack":
            group = len(cfg["finetune"]["lr_candidates"])
            failed += sum(any(diverged[i:i + group]) for i in range(0, len(diverged), group))
        out_dir = round_dir / command
        try:
            if command == "pretrain":
                outputs.update(check_pretrain(out_dir, problems))
            elif command == "finetune":
                outputs.update(check_finetune(out_dir, exp, classes, problems))
            else:
                outputs.update(check_attack(out_dir, exp, lambdas, problems))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{command}: unreadable output: {exc!r}")
    outputs["wire_bytes"] = sum(
        sum(c["bytes"].values()) for c in commands.values() if c["exit"] == 0
    )
    if outputs["wire_bytes"] != expect["wire_bytes"]:
        problems.append(f"wire_bytes {outputs['wire_bytes']} != closed form {expect['wire_bytes']}")
    return failed, problems, outputs


# -- running rounds -------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("VFLHSSL_THREADS", None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_round(run_dir, index, preset, trace, env):
    round_dir = run_dir / f"round{index}-{'traced' if trace else 'plain'}"
    round_dir.mkdir(parents=True)
    spec = {
        "config": str(run_dir / "config.json"), "preset": preset, "trace": bool(trace),
        "out": str(round_dir), "result": str(round_dir / "result.json"),
    }
    spec_path = round_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "round.py"), str(spec_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    result_path = round_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise RuntimeError(f"round process exited {proc.returncode} without a result")
    return json.loads(result_path.read_text()), round_dir


def command_pairs(results, command):
    """(wall seconds, slowdown) of ``command`` in each round that ran it.

    A command too short to be sampled takes the slowdown measured after
    the set-up."""
    pairs = []
    for r in results:
        entry = r["commands"].get(command)
        if entry is not None:
            slow = entry["slowdown"]
            pairs.append((entry["seconds"], r["setup_slowdown"] if slow is None else slow))
    return pairs


def machine_record():
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def source_digest():
    """Digest of the program and of the benchmark that feeds it."""
    h = hashlib.sha256()
    for path in sorted(PROGRAM.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_with_earlier_runs(workload, seed, outputs, problems):
    """Outputs must repeat exactly across runs of one source tree and seed."""
    path = OUT / "digests" / f"{workload}-s{seed}-{source_digest()[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for key, value in outputs.items():
            if key in earlier and earlier[key] != value:
                problems.append(f"{key} differs from an earlier run at the same seed")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(outputs, sort_keys=True))


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (PROGRAM / "cli.py").is_file():
        print(f"no program to benchmark: {PROGRAM} is missing", file=sys.stderr)
        return 2

    machine = machine_record()
    run_dir = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg, preset, expect = workloads.build(args.workload, args.seed, run_dir)
    (run_dir / "config.json").write_text(json.dumps(cfg, indent=1))
    classes = (cfg["data"]["synthetic"]["classes"] if "synthetic" in cfg["data"]
               else workloads.CSV_CLASSES)
    env = child_env()

    plain, traced = [], []
    attempted = failed = 0
    problems, outputs_seen = [], []
    started = time.perf_counter()
    index = 0
    try:
        while True:
            unit_start = time.perf_counter()
            for trace in ((0, 1) if args.trace else (0,)):
                result, round_dir = run_round(run_dir, index, preset, trace, env)
                bad, found, outputs = check_round(result, round_dir, cfg, expect, classes)
                attempted += expect["operations"]
                failed += bad
                problems += [f"round {index}: {p}" for p in found]
                outputs_seen.append(outputs)
                (traced if trace else plain).append(result)
                if not (bad or found):  # a failing round's outputs stay for inspection
                    shutil.rmtree(round_dir)
            index += 1
            now = time.perf_counter()
            unit = now - unit_start
            elapsed = now - started
            if elapsed + unit > min(args.seconds, LAST_START_S):
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        return 3

    if any(o != outputs_seen[0] for o in outputs_seen[1:]):
        problems.append("outputs differ between rounds at one seed")
    compare_with_earlier_runs(args.workload, args.seed, outputs_seen[0], problems)

    def command_pairs_or_exit(results, command):
        pairs = command_pairs(results, command)
        if not pairs:
            print(f"no round ran {command}", file=sys.stderr)
            sys.exit(3)
        return pairs

    def command_seconds(results, command):
        return calibrate.scaled_seconds(command_pairs_or_exit(results, command))

    def wall_mean(results, command):
        return statistics.fmean(w for w, _ in command_pairs_or_exit(results, command))

    first = outputs_seen[0]
    if args.trace:
        metrics = {}
        layers = [r["layers"] for r in traced]
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        ledger = [r["commands"].values() for r in traced]
        metrics["vfl.frames"] = {
            "value": statistics.median([sum(sum(c["frames"].values()) for c in cmds) for cmds in ledger]),
            "unit": "count",
        }
        for kind in MESSAGE_TYPES:
            metrics[f"vfl.bytes.{kind}"] = {
                "value": statistics.median([sum(c["bytes"].get(kind, 0) for c in cmds) for cmds in ledger]),
                "unit": "bytes",
            }
        for command in COMMANDS:
            # Unscaled: no sampler runs in a traced round.
            metrics[f"trace.overhead_{command}_s"] = {
                "value": wall_mean(traced, command) - wall_mean(plain, command),
                "unit": "s",
            }
        missing = sorted({m for r in traced for m in r["missing"]})
    else:
        values = {
            "setup_s": calibrate.scaled_seconds(
                [(r["setup_s"], r["setup_slowdown"]) for r in plain]),
            "test_top1": first.get("test_top1", 0.0),
            "cap": first.get("cap", 0.0),
            "wire_bytes": first["wire_bytes"],
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
        for command in COMMANDS:
            values[f"{command}_s"] = command_seconds(plain, command)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        missing = []

    machine["loadavg_end"] = list(os.getloadavg())
    wall = {  # unscaled, for reference
        "setup_s": statistics.median([r["setup_s"] for r in plain]),
        "setup_slowdown": statistics.median([r["setup_slowdown"] for r in plain]),
        "command_slowdown": statistics.median(
            [s for c in COMMANDS for _, s in command_pairs(plain, c)]),
        **{f"{c}_s": wall_mean(plain, c) for c in COMMANDS},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": index, "machine": machine, "wall": wall,
        "outputs": first, "missing": missing, "problems": problems,
        "plain": plain, "traced": traced,
    }
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    if not problems and not failed:
        shutil.rmtree(run_dir)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "machine": machine, "rounds": index, "wall": wall, "outputs": first, "missing": missing,
    }))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
