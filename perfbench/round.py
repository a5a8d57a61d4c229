"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/round.py SPEC.json

SPEC names the config file, CLI preset, output directory, result path and
whether to trace. The round times the set-up (importing vflhssl, loading
the config, building the dataset once), then calls ``vflhssl.cli.main``
for ``pretrain``, ``finetune`` and ``attack`` in turn and times each call.
It gauges the machine's speed (calibrate.py) right after the set-up
and, in an untraced round, all through each command. It records the
bytes of every encoded frame and the loss of every split training step,
and writes everything to the result path as JSON.
"""

import sys
import time

_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

COMMANDS = ("pretrain", "finetune", "attack")


def _argv(command, spec):
    argv = [command, "--config", spec["config"], "--preset", spec["preset"],
            "--out", os.path.join(spec["out"], command)]
    if command != "pretrain":
        argv += ["--checkpoint", os.path.join(spec["out"], "pretrain", "checkpoint.bin")]
    return argv


class Ledger:
    """Frame bytes per message type and the losses of each split trainer,
    read from return values of the program's own functions."""

    def __init__(self, vfl):
        self.frames = {}
        self.bytes = {}
        self.trainers = []  # per trainer: [steps, non-finite losses]
        self._trainer = None
        names = vfl.MSG_NAMES
        encode = vfl.encode_message
        train_step = vfl.SplitTrainer.train_step

        def encode_message(msg):
            raw = encode(msg)
            kind = names[msg.msg_type]
            self.frames[kind] = self.frames.get(kind, 0) + 1
            self.bytes[kind] = self.bytes.get(kind, 0) + len(raw)
            return raw

        def step(trainer, ids):
            loss = train_step(trainer, ids)
            if trainer is not self._trainer:
                self._trainer = trainer
                self.trainers.append([0, 0])
            self.trainers[-1][0] += 1
            if not math.isfinite(loss):
                self.trainers[-1][1] += 1
            return loss

        vfl.encode_message = encode_message
        vfl.SplitTrainer.train_step = step

    def take(self):
        out = {"frames": self.frames, "bytes": self.bytes, "trainers": self.trainers}
        self.frames, self.bytes, self.trainers, self._trainer = {}, {}, [], None
        return out


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)

    from vflhssl import cli, vfl

    config = cli.load_config(spec["config"], preset=spec["preset"])
    cli.build_dataset(config)
    result = {"setup_s": time.perf_counter() - _START, "commands": {}}

    import calibrate

    steps = calibrate.SETUP_STEPS
    result["setup_slowdown"] = calibrate.slowdown(steps, calibrate.reference(steps))

    ledger = Ledger(vfl)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    for command in COMMANDS:
        argv = _argv(command, spec)
        error = None
        sampler = calibrate.Sampler()
        start = time.perf_counter()
        try:
            if tracer is None:
                with sampler:
                    code = cli.main(argv)
            else:
                code = tracer.command(cli.main, argv)
        except Exception:  # a crash is a failed command, reported by the harness
            code, error = 1, traceback.format_exc()
        seconds = time.perf_counter() - start
        sys.stdout.flush()
        # "seconds" leaves out the sampler's time; "slowdown" is None in a
        # traced round, where no sampler runs.
        entry = {
            "exit": code, "seconds": seconds - sampler.busy_s, "sampler_s": sampler.busy_s,
            "slowdown": sampler.slowdown(), **ledger.take(),
        }
        if error:
            entry["error"] = error
        result["commands"][command] = entry
        if code != 0:
            break

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing"] = tracer.missing
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
