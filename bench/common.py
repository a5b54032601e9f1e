"""Shared set-up for the benchmark scripts: thread cap, import path, configs.

Importing this module caps the BLAS thread pools at the number of usable
cores (it must run before numpy is imported), puts the checkout's
``src`` on the import path and exposes the desk-scale configuration that
the workloads and ``regen_net.py`` share.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# desk-scale pipeline: reversed Van der Pol, 150x150 lattice, 3x10 tanh
# network, seed 3 (the acceptance suite's vdp_run fixture, through the CLI)
GRID = [150, 150]
HIDDEN = [10, 10, 10]
TRAIN_SEED = 3

# the fixed network that certify-vdp and check-vdp verify: 2x10, 200
# epochs.  The level search on the 3x10 network takes about 208 s, longer
# than one benchmark run may last; on the 2x10 network it takes about 80 s.
NET_PATH = BENCH_DIR / "net_vdp.json"
NET_HIDDEN = [10, 10]
NET_EPOCHS = 200


def desk_config(max_epochs: int, hidden=HIDDEN) -> dict:
    """Run configuration for `zubov gen-data` / `zubov train`."""
    return {"system": "reversed_vdp", "grid": GRID, "seed": TRAIN_SEED,
            "train": {"hidden": list(hidden), "max_epochs": max_epochs}}
