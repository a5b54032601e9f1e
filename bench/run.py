"""Benchmark of the zubov learn -> certify pipeline.

    python3 bench/run.py --workload learn-vdp --seed 1 --seconds 12 --trace 0

Runs whole rounds of one workload's `zubov` commands through the CLI
entry point (`zubov.cli.run`) in this process until ``--seconds`` have
passed, checks the outputs against computations made outside the
program (bench/checks.py), and prints one JSON line last.  With
``--trace 1`` the rounds run under the span tracer (bench/spans.py) and
the line holds the per-layer metrics instead of the end-to-end ones.
Workloads, metrics and reference figures: bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

LEARN_EPOCHS = 5        # far from loss_threshold (1e-5): the loss is ~1e-3 after 200
SETUP_REPEATS = 5
SETUP_SLICES = 20      # speed-probe slices around each set-up
CHECK_SAMPLE = 40       # lattice points integrated with scipy per dataset check

# check-vdp decides at fixed levels a little inside what certify-vdp
# certifies on net_vdp.json (c1 = 0.0224609, c2 = 0.743205, local c = 0.289667)
CHECK_C1 = 0.0224
CHECK_C2 = 0.74
CHECK_LOCAL_C = 0.2896
POLY2D_C = 2.0


class Failed(Exception):
    """A zubov command ended with another exit code than expected."""


class Round:
    """Runs zubov commands in a work directory and times each one.

    ``kind`` names the speed-probe slice that resembles the command's work
    (see speed.py): "narrow" for training, "wide" for the rest.
    """

    def __init__(self, work: Path):
        self.work = work
        self.commands = []      # (stage key, probe kind, start, end)
        self.done = 0

    def zubov(self, key, argv, expect=0, kind="wide"):
        from zubov import cli
        t0 = time.perf_counter()
        code = cli.run([str(a) for a in argv])
        self.commands.append((key, kind, t0, time.perf_counter()))
        if code != expect:
            raise Failed(f"zubov {' '.join(map(str, argv))}: exit code {code}, "
                         f"expected {expect}")
        self.done += 1

    def account(self, probe):
        """Wall and normalized seconds per stage, without the probe's time."""
        self.times, self.norm, self.wall = {}, 0.0, 0.0
        for key, kind, t0, t1 in self.commands:
            wall, norm = probe.scaled(kind, t0, t1)
            self.times[key] = self.times.get(key, 0.0) + wall
            self.wall += wall
            self.norm += norm


def write_json(path: Path, doc):
    path.write_text(json.dumps(doc))


def read_json(path: Path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Workloads: set-up, one round, checks
# ---------------------------------------------------------------------------

class LearnVdp:
    """gen-data on the 150x150 lattice, then a fixed number of epochs."""

    ops_per_round = 2

    def setup(self, work: Path):
        import common
        write_json(work / "config.json", common.desk_config(LEARN_EPOCHS))

    def run_round(self, r: Round):
        w = r.work
        r.zubov("data_s", ["gen-data", "--config", w / "config.json",
                           "--out", w / "data.csv"])
        r.zubov("train_s", ["train", "--config", w / "config.json",
                            "--data", w / "data.csv", "--out-dir", w], kind="narrow")

    def quality(self, work: Path):
        with open(work / "train_record.csv") as fh:
            lines = fh.read().split("\n\n")[0].splitlines()
        return {"final_loss": float(lines[-1].split(",")[1])}

    def check(self, work: Path, rng):
        import checks
        import common
        fails = []
        record = (work / "train_record.csv").read_text()
        if "stop_reason,max_epochs" not in record:
            fails.append("training stopped before its epoch count")
        X, v, w, conv = checks.read_dataset(work / "data.csv")
        fails += checks.check_dataset(X, v, w, conv, common.GRID, rng, CHECK_SAMPLE)
        # the untrained network: same config, no epochs
        init = work / "init"
        write_json(work / "config0.json", common.desk_config(0))
        Round(work).zubov("init", ["train", "--config", work / "config0.json",
                                   "--data", work / "data.csv", "--out-dir", init])
        fails += checks.check_training(checks.Net.load(init / "net.json"),
                                       checks.Net.load(work / "net.json"), X, w, conv)
        return fails


class CertifyVdp:
    """verify-roa level search on the fixed network, volume against the lattice."""

    ops_per_round = 1

    def setup(self, work: Path):
        import common
        write_json(work / "config.json", common.desk_config(0))
        shutil.copyfile(common.NET_PATH, work / "net.json")

    def reference(self, work: Path):
        """The 150x150 value dataset the volume is measured against."""
        Round(work).zubov("reference", ["gen-data", "--config", work / "config.json",
                                        "--out", work / "data.csv"])

    def run_round(self, r: Round):
        w = r.work
        r.zubov("certify_s", ["verify-roa", "--config", w / "config.json",
                              "--net", w / "net.json", "--data", w / "data.csv",
                              "--out-dir", w])

    def quality(self, work: Path):
        cert = read_json(work / "roa_cert.json")
        return {"c_local": cert["local"]["c"], "c2": cert["c2"],
                "volume_pct": cert["volume_percent"]}

    def check(self, work: Path, rng):
        import checks
        cert = read_json(work / "roa_cert.json")
        net = checks.Net.load(work / "net.json")
        X, _, _, conv = checks.read_dataset(work / "data.csv")
        fails = [] if cert["certified"] else ["the searched level is not certified"]
        fails += checks.check_roa(net, cert, rng)
        fails += checks.check_level_floor(cert["c2"])
        fails += checks.check_volume(net, cert["c2"], X, conv, cert["volume_percent"])
        return fails


class CheckVdp:
    """Single decisions at fixed levels: one proof each, one early refutation."""

    ops_per_round = 3

    def setup(self, work: Path):
        import common
        write_json(work / "config.json", common.desk_config(0))
        shutil.copyfile(common.NET_PATH, work / "net.json")

    def run_round(self, r: Round):
        w = r.work
        r.zubov("check_s", ["verify-roa", "--config", w / "config.json",
                            "--net", w / "net.json", "--c1", CHECK_C1, "--c2", CHECK_C2,
                            "--out-dir", w / "roa"])
        r.zubov("check_s", ["verify-local", "--config", w / "config.json",
                            "--c", CHECK_LOCAL_C, "--out-dir", w / "local"])
        r.zubov("check_s", ["verify-local", "--system", "poly2d", "--c", POLY2D_C,
                            "--out-dir", w / "poly2d"], expect=3)

    def quality(self, work: Path):
        return {}

    def check(self, work: Path, rng):
        import checks
        net = checks.Net.load(work / "net.json")
        cert = read_json(work / "roa" / "roa_cert.json")
        local = read_json(work / "local" / "local_cert.json")
        poly = read_json(work / "poly2d" / "local_cert.json")
        fails = [] if cert["certified"] else ["the fixed levels are not certified"]
        fails += checks.check_roa(net, cert, rng)
        if local["outcome"]["status"] != "certified":
            fails.append("the fixed local level is not certified")
        fails += checks.check_local_condition(checks.VDP_P, local["c"], rng)
        fails += checks.check_poly2d_witness(poly["outcome"]["witness"], POLY2D_C)
        # the level the local search finds on poly2d, against its closed form
        search = work / "poly2d-search"
        Round(work).zubov("search", ["verify-local", "--system", "poly2d",
                                     "--out-dir", search])
        fails += checks.check_poly2d_local(read_json(search / "local_cert.json")["c"])
        return fails


WORKLOADS = {"learn-vdp": LearnVdp, "certify-vdp": CertifyVdp, "check-vdp": CheckVdp}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

STAGES = ("data_s", "train_s", "certify_s", "check_s")
QUALITY_UNITS = {"final_loss": "loss", "c_local": "level", "c2": "level",
                 "volume_pct": "%"}


def fresh_import():
    """Import the zubov package anew, as every `zubov` command does.

    The loaded modules are set aside and put back afterwards, so the rest
    of the run keeps using the same module objects.
    """
    loaded = {k: m for k, m in sys.modules.items() if k == "zubov" or k.startswith("zubov.")}
    for k in loaded:
        del sys.modules[k]
    try:
        importlib.import_module("zubov.cli")
    finally:
        sys.modules.update(loaded)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="zubov pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "zubov" / "cli.py").is_file():
        print(f"bench: no zubov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import common  # noqa: F401  (caps BLAS threads before numpy loads)
    import numpy as np
    import zubov.cli  # noqa: F401  (loaded before any round is timed)

    run_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result = run(WORKLOADS[args.workload](), args, run_dir,
                     np.random.default_rng(args.seed))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(workload, args, run_dir: Path, rng) -> dict:
    import speed

    # set-up: zubov's own start-up (importing the package) plus the
    # workload's input files in a fresh directory; repeated, and the last
    # directory is used.  It is too short for the probe's timer, so the
    # speed is sampled just before and after it.
    setups, setup_walls = [], []
    for i in range(SETUP_REPEATS):
        work = run_dir / f"setup{i}"
        slices = [speed.time_slices() for _ in range(SETUP_SLICES)]
        t0 = time.perf_counter()
        fresh_import()
        work.mkdir(parents=True)
        workload.setup(work)
        wall = time.perf_counter() - t0
        slices += [speed.time_slices() for _ in range(SETUP_SLICES)]
        setup_walls.append(wall)
        setups.append(speed.normalize(wall, "narrow", slices))
    if hasattr(workload, "reference"):
        workload.reference(work)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            r = Round(work)
            attempted += workload.ops_per_round
            with speed.Probe() as probe:
                try:
                    workload.run_round(r)
                except Failed as e:
                    print(f"bench: {e}", file=sys.stderr)
                    failed += workload.ops_per_round - r.done
            r.account(probe)
            r.slices = [s for _, s in probe.ticks]
            rounds.append(r)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails = ["a zubov command failed"] if failed else workload.check(work, rng)
    for msg in fails:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    stage = {k: statistics.median(r.times.get(k, 0.0) for r in rounds) for k in STAGES}
    quality = {k: 0.0 for k in QUALITY_UNITS}
    if not failed:
        quality.update(workload.quality(work))
    round_s = statistics.median(r.norm for r in rounds)
    round_wall_s = statistics.median(r.wall for r in rounds)
    slice_us = {k: 1e6 * statistics.median(s[k] for r in rounds for s in r.slices)
                for k in ("wide", "narrow")}
    print(f"bench: {args.workload}: {len(rounds)} rounds, round_s {round_s:.6g} "
          f"(wall {round_wall_s:.6g}, probe slices {slice_us['wide']:.4g} / "
          f"{slice_us['narrow']:.4g} us), "
          + ", ".join(f"{k} {v:.6g}" for k, v in {**stage, **quality}.items() if v))

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "round_s": (round_s, "s"),
        }
    else:
        import spans
        metrics = {k: (v, spans.unit(k))
                   for k, v in spans.layer_metrics(tracer, len(rounds)).items()}
        metrics.update({k: (v, "s") for k, v in stage.items()})
        metrics.update({k: (v, QUALITY_UNITS[k]) for k, v in quality.items()})
        metrics.update({"round_wall_s": (round_wall_s, "s"),
                        "setup_wall_s": (statistics.median(setup_walls), "s"),
                        "speed.wide_slice_us": (slice_us["wide"], "us"),
                        "speed.narrow_slice_us": (slice_us["narrow"], "us")})
    return {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
