"""Regenerate the fixed network verified by certify-vdp and check-vdp.

    python3 bench/regen_net.py              # rewrites bench/net_vdp.json
    python3 bench/regen_net.py --out x.json # writes elsewhere, to compare

It runs `zubov gen-data` on reversed Van der Pol over the 150x150
lattice and `zubov train` with layer sizes [2, 10, 10, 1], seed 3 and
200 epochs, with the local hinge taken from the searched local
certificate (the CLI default).  Training is deterministic, so on the
same code the output is byte-identical to the checked-in file.  It takes
about two and a half minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import common

from zubov import cli


def regenerate(out: Path) -> None:
    with tempfile.TemporaryDirectory(prefix="regen-net-") as tmp:
        work = Path(tmp)
        config = work / "config.json"
        config.write_text(json.dumps(common.desk_config(common.NET_EPOCHS, common.NET_HIDDEN)))
        data = work / "dataset.csv"
        for argv in (["gen-data", "--config", str(config), "--out", str(data)],
                     ["train", "--config", str(config), "--data", str(data),
                      "--out-dir", str(work)]):
            code = cli.run(argv)
            if code != cli.EXIT_OK:
                sys.exit(f"zubov {argv[0]} exited with code {code}")
        shutil.copyfile(work / "net.json", out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=common.NET_PATH)
    regenerate(ap.parse_args().out)


if __name__ == "__main__":
    main()
