"""Command line front end: deterministic experiment runs with CSV/JSON output.

Subcommands:

* ``spectrogram``: dilation ladder of accumulated spectrograms, one
  ``spectrogram.dilation_snapshot`` per scale in ascending order; emits
  its summary table and a per-node field table.
* ``variance``: hyperuniformity curve (expectation, variance routes,
  ratio) in its own summary table, plus the log-asymptotic fit when the
  radii span a decade.
* ``check``: prints the fixed self-check suite of ``accspec.checks``
  (lens routes, the Paley-Wiener amplitude against its series, kernel
  admissibility and the paper's six identities on the reference sine
  window), the same lines the acceptance tests assert; it takes no
  option; exit 1 on any failure, a NaN line included.
* ``lens``: both lens-volume routes for one (dim, r, R).

The window, ``--region``, fixes the dimension d, which picks the kernel:
sine needs d = 1, Paley-Wiener takes 1 to 3 and Ginibre 2 or 4
(C^(d/2)). Without ``--region``, ``variance`` takes the unit ball in the
kernel's lowest dimension (1, 2 for Ginibre).
The window grid has ceil(``--nodes-per-unit`` x longest side) nodes per
axis under ``--node-cap`` (``discretize.window_grid``). Each setting has
one spelling: option names in full, kernel names as listed.

The module only parses arguments, calls the library and prints.
Exit codes: 0 success, 1 check failure, 2 usage/configuration error
(an ``--out`` file that cannot be written included; argparse's usage
errors are one line that names the subcommand), 3 numerical failure
(a series that misses its tolerance within the term cap, a resource
limit, a float overflow, an expected count that underflows, an
eigensolve that fails its residual check, a mode count above the grid's
nodes or its modes above the floor, or a NaN or infinite value
in an output table, which is refused before any file is written; the
field table is one float array, checked in one pass).
A reader that closes stdout early (``accspec --schema | head -1``) ends
the run quietly with exit 0: the rest of the output is discarded.
Identical configurations produce byte-identical output apart from the
version header line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checks import self_checks
from .discretize import (DEFAULT_NODE_CAP, NODES_PER_UNIT, ResourceLimitError,
                         SpectralSolverError)
from .geometry import (Ball, Box, DisjointBallUnion, LensSpec, Region,
                       SeriesDivergenceError, lens_volume_exact,
                       lens_volume_series)
from .kernels import GinibreKernel, PaleyWienerKernel, sine_kernel
from .spectrogram import RankDeficiencyError, dilation_snapshot
from .variance import FitRangeError, fit_asymptotics, hyperuniformity_curve

SPECTROGRAM_COLUMNS = ("R", "trace", "N", "err_raw", "err_normalized",
                       "tail_mass", "saturated")
VARIANCE_COLUMNS = ("R", "E_count", "var_spectral", "var_radial", "ratio")
MAX_LOG_COUNT = 10_000  # most scales a 'lo:hi:logN' list may ask for

SCHEMA_TEXT = f"""accspec output schemas (version {__version__})

spectrogram summary table, columns:
  {",".join(SPECTROGRAM_COLUMNS)}
  R               dilation scale
  trace           discrete trace of the restricted operator, the
                  spectral expected point count
  N               upper integer part of the trace
  err_raw         L1 distance between rho and its limit shape, plus the
                  mass-accounting remainder
  err_normalized  err_raw / N
  tail_mass       N - integral of rho over the evaluation box
  saturated       1 if the window grid was coarsened to the finest grid
                  within --node-cap (or the factor's memory limit), short
                  of --nodes-per-unit; else 0

variance summary table, columns:
  {",".join(VARIANCE_COLUMNS)}
  R               dilation scale
  E_count         expected point count in the dilated window
  var_spectral    sum mu (1-mu) over the discretized spectrum, unclipped
                  (empty when the spectral route is off or auto drops it;
                  negative on a grid that cannot hold the window's modes)
  var_radial      radial-route variance (balls; upper bound for unions;
                  empty on a box)
  ratio           best variance / E_count
Absent quantities are emitted as empty fields, never as zeros.

field table (spectrogram subcommand, <out>.fields.csv), columns:
  R               dilation scale
  x1..xd          evaluation node coordinates
  rho             accumulated spectrogram value at the node
  target          kernel diagonal times the window indicator

variance fit block (CSV: '# fit_*' comment lines; JSON: 'fit' object):
  slope, reference_constant, relative_deviation, window_low

CSV files start with a '# accspec <version>' header line, use '.' as
the decimal separator and 17 significant digits. JSON output is a
single UTF-8 document with 'summary' (one object per row, keyed by the
CSV header), and where applicable 'fields' and 'fit' entries.
"""


class UsageError(Exception):
    """Configuration problem; maps to exit code 2."""


class NonFiniteOutputError(ArithmeticError):
    """A table cell is NaN or infinite; maps to exit code 3."""


# ---------------------------------------------------------------------------
# parsing helpers


def parse_scale_list(text: str) -> tuple:
    """Either 'a,b,c' explicit values or 'lo:hi:logN' log spacing."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("log"):
            raise UsageError(f"R: cannot parse '{text}' (want a,b,c or lo:hi:logN)")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2][3:])
        except ValueError as exc:
            raise UsageError(f"R: cannot parse '{text}': {exc}") from None
        if not 0 < lo < hi < math.inf or not 2 <= n <= MAX_LOG_COUNT:
            raise UsageError(f"R: log range needs 0 < lo < hi < inf and "
                             f"2 <= N <= {MAX_LOG_COUNT}")
        vals = np.logspace(math.log10(lo), math.log10(hi), n)
        return tuple(float(v) for v in vals)
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"R: cannot parse '{text}': {exc}") from None
    if any(v <= 0 for v in vals):
        raise UsageError("R: values must be positive")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise UsageError("R: values must be strictly ascending")
    return vals


def _parse_ball(text: str) -> Ball:
    """'c1,..,cd:r' as a Ball."""
    c_s, r_s = text.rsplit(":", 1)
    return Ball(np.array([float(v) for v in c_s.split(",")]), float(r_s))


def parse_region(text: str) -> Region:
    kind, _, body = text.partition(":")
    try:
        if kind == "interval":
            a, b = (float(v) for v in body.split(","))
            return Box(np.array([a]), np.array([b]))
        if kind == "box":
            lo_s, hi_s = body.split(":")
            lo = np.array([float(v) for v in lo_s.split(",")])
            hi = np.array([float(v) for v in hi_s.split(",")])
            return Box(lo, hi)
        if kind == "ball":
            return _parse_ball(body)
        if kind == "union":
            balls = tuple(_parse_ball(part) for part in body.split(";"))
            try:
                return DisjointBallUnion(balls)
            except ValueError as exc:
                if "overlap" in str(exc):
                    raise UsageError("union: balls overlap") from None
                raise UsageError(f"union: {exc}") from None
    except (ValueError, TypeError) as exc:
        raise UsageError(f"region: cannot parse '{text}': {exc}") from None
    raise UsageError(f"region: unknown kind '{kind}' "
                     "(want interval/box/ball/union)")


def kernel_region_scales(args, region_required: bool):
    """The run's kernel, window (default: the unit ball) and scales."""
    scales = parse_scale_list(args.R) if args.R else ()
    if args.kernel is None:
        raise UsageError("kernel: required")
    name = args.kernel
    by_dim = {"sine": {1: sine_kernel()},
              "paley-wiener": {d: PaleyWienerKernel(d) for d in (1, 2, 3)},
              "ginibre": {2: GinibreKernel(1), 4: GinibreKernel(2)}}.get(name)
    if by_dim is None:
        raise UsageError(f"kernel: unknown '{name}' "
                         "(want sine, paley-wiener or ginibre)")
    if args.region is not None:
        region = parse_region(args.region)
    elif region_required:
        raise UsageError("region: required")
    else:
        region = Ball(np.zeros(min(by_dim)), 1.0)
    if region.dim not in by_dim:
        raise UsageError(f"kernel: {name} takes windows of dimension "
                         f"{', '.join(map(str, by_dim))}, not {region.dim}")
    if not scales:
        raise UsageError("R: required")
    return by_dim[region.dim], region, scales


# ---------------------------------------------------------------------------
# output formatting


def _fmt(value) -> str:
    """A summary, fit or lens cell as text, "" for None; NaN or infinity
    raises NonFiniteOutputError."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteOutputError("refusing to emit a non-finite value")
    return f"{value:.17g}"


def _emit(path: Path | None, text: str) -> None:
    """``text`` to stdout or to ``path``; an unwritable path is a
    UsageError."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def write_csv(path: Path | None, header: tuple, lines, comments=()) -> None:
    """CSV of ``lines``, each one or more rows whose cells are already
    formatted, cells joined by commas and rows by newlines."""
    _emit(path, "".join([f"# accspec {__version__}\n",
                         *(f"# {line}\n" for line in comments),
                         ",".join(header) + "\n",
                         *(line + "\n" for line in lines)]))


def write_json(path: Path | None, document: dict) -> None:
    """``document`` after a version key, as indented JSON; a NaN or
    infinite number in it raises NonFiniteOutputError before anything is
    written. A "fields" entry is a (header, float array) pair, written as
    one object per row keyed by the header: one template of float reprs
    (what ``json`` prints for a float) formats the rows, which are
    spliced into the text of the rest. The array's cells must be finite
    (``write_tables`` checks them)."""
    doc = {"version": __version__, **document}
    header, table = doc.get("fields", ((), None))
    if table is not None:
        doc["fields"] = []
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteOutputError(
            "refusing to emit a non-finite value") from None
    if table is not None and len(table):
        row = "    {\n%s\n    }" % ",\n".join(
            f"      {json.dumps(key)}: %r" for key in header)
        rows = ",\n".join([row] * len(table)) % tuple(table.ravel().tolist())
        text = text.replace('\n  "fields": []',
                            '\n  "fields": [\n' + rows + '\n  ]', 1)
    _emit(path, text + "\n")


def fields_path(out: Path) -> Path:
    return out.with_name(out.stem + ".fields" + (out.suffix or ".csv"))


def write_tables(args, header, summary, fields=None, fit=None) -> None:
    """Summary table under ``header``, (header, float array) field table
    and fit block: one JSON document, or CSV with '# fit_*' comments and
    the fields file. One pass over the field array refuses NaN and
    infinity, and every cell is checked before any file is written."""
    field_header, table = fields or ((), None)
    if table is not None and not np.isfinite(table).all():
        raise NonFiniteOutputError("refusing to emit a non-finite value")
    if args.format == "json":
        doc = {"summary": [dict(zip(header, row)) for row in summary]}
        if table is not None:
            doc["fields"] = (field_header, table)
        if fit is not None:
            doc["fit"] = fit
        write_json(args.out, doc)
        return
    comments = [f"fit_{key}: {v if isinstance(v, str) else _fmt(v)}"
                for key, v in (fit or {}).items()]
    write_csv(args.out, header, [",".join(map(_fmt, row)) for row in summary],
              comments=comments)
    if table is not None and args.out is not None:
        # one % over every cell, not one per row: 40% less time on a
        # 28,000-row table
        row = ",".join(["%.17g"] * len(field_header))
        rows = "\n".join([row] * len(table)) % tuple(table.ravel().tolist())
        write_csv(fields_path(args.out), field_header,
                  [rows] if len(table) else [])


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrogram(args) -> int:
    kernel, region, scales = kernel_region_scales(args, region_required=True)
    rows = [dilation_snapshot(kernel, region, scale, node_cap=args.node_cap,
                              nodes_per_unit=args.nodes_per_unit,
                              margin=args.margin,
                              eval_spacing=args.eval_spacing)
            for scale in scales]
    summary = [(row.scale, row.trace, row.field.n_count, row.err_raw,
                row.err_normalized, row.field.tail_mass, int(row.saturated))
               for row in rows]
    fields = None
    # the per-node rows go only to JSON and to the --out fields file
    if args.format == "json" or args.out is not None:
        field_header = ("R", *[f"x{k + 1}"
                               for k in range(kernel.ambient_dim)],
                        "rho", "target")
        fields = (field_header, np.vstack([
            np.column_stack((np.full(row.field.rho.size, row.scale),
                             row.field.eval_grid.nodes, row.field.rho,
                             row.field.target)) for row in rows]))
    write_tables(args, SPECTROGRAM_COLUMNS, summary, fields=fields)
    return 0


def cmd_variance(args) -> int:
    kernel, region, scales = kernel_region_scales(args, region_required=False)
    points = hyperuniformity_curve(
        kernel, region, scales, spectral=args.spectral, node_cap=args.node_cap,
        nodes_per_unit=args.nodes_per_unit)
    summary = [(p.scale, p.e_count, p.var_spectral, p.var_radial, p.ratio)
               for p in points]

    fit = None
    if isinstance(kernel, PaleyWienerKernel) and isinstance(region, Ball):
        try:
            result = fit_asymptotics(kernel.dim,
                                     [p.scale * region.radius for p in points],
                                     [p.var_radial for p in points])
            fit = {"slope": result.slope,
                   "reference_constant": result.reference_constant,
                   "relative_deviation": result.relative_deviation,
                   "window_low": result.window_low}
        except FitRangeError as exc:
            fit = {"warning": str(exc)}

    write_tables(args, VARIANCE_COLUMNS, summary, fit=fit)
    return 0


def cmd_lens(args) -> int:
    if not args.tol > 0:
        raise UsageError("tol: must be positive")
    spec = LensSpec(args.dim, args.r, args.R)
    series = lens_volume_series(spec, tol=args.tol)
    exact = lens_volume_exact(spec)
    print(f"series = {_fmt(series)}")
    print(f"exact  = {_fmt(exact)}")
    print(f"diff   = {_fmt(series - exact)}")
    return 0


def cmd_check(args) -> int:
    lines = self_checks()
    for line in lines:
        status = "PASS" if line.passed else "FAIL"
        print(f"{status} {line.name} lhs={line.lhs:.17g} rhs={line.rhs:.17g} "
              f"slack={line.slack:.17g}")
    failures = sum(not line.passed for line in lines)
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print(f"all {len(lines)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one line that names the
    (sub)command; ``-h`` still prints the usage."""

    def parse_known_args(self, args=None, namespace=None):
        # each parser refuses the arguments it does not know itself, so
        # an option unknown to a subcommand is that subcommand's error
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="accspec", allow_abbrev=False,
        description="accumulated spectrograms and number-variance diagnostics",
    )
    parser.add_argument("--schema", action="store_true",
                        help="print the output column documentation and exit")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, run, nodes_per_unit):
        p.set_defaults(run=run)
        p.add_argument("--kernel", help="sine, paley-wiener or ginibre")
        p.add_argument("--region", help="interval:a,b | box:lo..:hi.. | "
                                        "ball:c..:r | union:c..:r;c..:r "
                                        "(variance default: the unit ball, "
                                        "in R^2 for ginibre, else R^1)")
        p.add_argument("--R", help="dilation scales: a,b,c or lo:hi:logN")
        p.add_argument(
            "--nodes-per-unit", type=float, default=nodes_per_unit,
            help="window grid nodes per unit length of its longest side "
                 f"(default: {NODES_PER_UNIT:g}; variance above 1-D: the "
                 "finest grid within --node-cap)")
        p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=Path, default=None)

    p_spec = sub.add_parser("spectrogram", allow_abbrev=False,
                            help="dilation convergence study")
    add_common(p_spec, cmd_spectrogram, NODES_PER_UNIT)
    p_spec.add_argument("--margin", type=float, default=None,
                        help="evaluation margin (default: 4 correlation lengths)")
    p_spec.add_argument("--eval-spacing", type=float, default=None,
                        help="evaluation grid spacing (default: the window "
                             "grid's)")

    p_var = sub.add_parser("variance", allow_abbrev=False,
                           help="hyperuniformity curve and fit")
    add_common(p_var, cmd_variance, None)
    p_var.add_argument("--spectral", choices=("auto", "on", "off"),
                       default="auto",
                       help="also compute the discretized-spectrum "
                            "variance (auto: at every scale or at none)")

    p_check = sub.add_parser("check", allow_abbrev=False,
                             help="self-check suite")
    p_check.set_defaults(run=cmd_check)

    p_lens = sub.add_parser("lens", allow_abbrev=False,
                            help="lens volume, both routes")
    p_lens.set_defaults(run=cmd_lens)
    p_lens.add_argument("--dim", type=int, required=True)
    p_lens.add_argument("--r", type=float, required=True)
    p_lens.add_argument("--R", type=float, required=True)
    p_lens.add_argument("--tol", type=float, default=1e-9)
    return parser


def _dispatch(parser: argparse.ArgumentParser, argv) -> int:
    args = parser.parse_args(argv)
    if args.schema:
        print(SCHEMA_TEXT)
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.run(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SeriesDivergenceError, ResourceLimitError, SpectralSolverError,
            RankDeficiencyError, NonFiniteOutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # e.g. a unit-ball volume past d = 340
        print(f"error: float overflow: {exc.args[-1]}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:  # e.g. an expected count below 2^-1022
        print(f"error: float underflow: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    try:
        try:
            return _dispatch(build_parser(), argv)
        finally:
            sys.stdout.flush()  # a closed stdout surfaces here, not at exit
    except BrokenPipeError:
        # the reader went away: send the unflushed rest to devnull so the
        # interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
