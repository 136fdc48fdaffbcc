#!/usr/bin/env python3
"""Log-variance asymptotics of the band-limited family.

Sweeps ball radii over a decade, fits var / R^{d-1} against log R, and
compares the slope with the closed-form constant (1/pi^2 in d = 1 and 2,
1/(2 pi^2) in d = 3). Writes one CSV per dimension under results/.
"""

import argparse
import sys
from pathlib import Path

from accspec.cli import main as accspec_main


def run(out_dir: Path, dims, r_spec: str) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for d in dims:
        out = out_dir / f"variance_asymptotics_d{d}.csv"
        ball = "ball:" + ",".join(["0"] * d) + ":1"  # the unit ball in R^d
        code = accspec_main(["variance", "--kernel", "paley-wiener",
                             "--region", ball, "--R", r_spec,
                             "--spectral", "off", "--out", str(out)])
        if code != 0:
            return code
        fit_lines = [line[2:] for line in out.read_text().splitlines()
                     if line.startswith("# fit_")]
        print(f"d={d}: {out}")
        for line in fit_lines:
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--dims", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--R", default="10:200:log20")
    args = parser.parse_args()
    sys.exit(run(args.out_dir, args.dims, args.R))
