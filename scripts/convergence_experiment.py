#!/usr/bin/env python3
"""Dilation convergence experiment: how fast the accumulated spectrogram
approaches its indicator-shaped limit for the sine and gaussian kernels.

Writes results/convergence_<kernel>.csv via the package CLI, then prints
the normalized error column so the decay is visible at a glance.
"""

import argparse
import csv
import sys
from pathlib import Path

from accspec.cli import main as accspec_main


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = {
        "sine": ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
                 "--R", "2,4,8,16", "--nodes-per-unit", "40",
                 "--out", str(out_dir / "convergence_sine.csv")],
        "ginibre": ["spectrogram", "--kernel", "ginibre",
                    "--region", "box:0,0:1,1", "--R", "1,2,3",
                    "--nodes-per-unit", "16", "--eval-spacing", "0.1",
                    "--out", str(out_dir / "convergence_ginibre.csv")],
    }
    for name, args in jobs.items():
        code = accspec_main(args)
        if code != 0:
            return code
        path = out_dir / f"convergence_{name}.csv"
        print(f"{name}: {path}")
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        for row in csv.DictReader(lines):
            print(f"  R={row['R']:>4}  N={row['N']:>3}  "
                  f"err_normalized={row['err_normalized']}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    sys.exit(run(parser.parse_args().out_dir))
