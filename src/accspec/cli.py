"""Command line front end: deterministic experiment runs with CSV/JSON output.

Subcommands:

* ``spectrogram``: dilation ladder of accumulated spectrograms; emits a
  summary table and a per-node field table.
* ``variance``: hyperuniformity curve (expectation, variance routes,
  ratio) plus the log-asymptotic fit when the radii span a decade.
* ``check``: self-check suite (lens routes, Bessel series, kernel
  admissibility, inequality diagnostics); exit 1 on any failure.
* ``lens``: both lens-volume routes for one (dim, r, R).

Exit codes: 0 success, 1 check failure, 2 usage/configuration error,
3 numerical failure (a series that misses its tolerance within the term
cap, a resource limit, an eigensolve that fails its residual check, or
a spectrum with fewer modes above the floor than the mode count needs).
Identical configurations produce byte-identical output apart from the
version header line. ``ACC_SPECGRAM_THREADS`` caps how many dilation
scales run concurrently (0 or unset: automatic).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .discretize import (ResourceLimitError, SpectralSolverError,
                         assemble_operator, build_grid, spectral_decompose)
from .geometry import (Ball, Box, DisjointBallUnion, LensSpec, Region,
                       SeriesDivergenceError, lens_volume_exact,
                       lens_volume_series)
from .kernels import (GinibreKernel, Kernel, PaleyWienerKernel, bessel_j,
                      radial_normalization_check, sine_kernel)
from .spectrogram import (InequalityCheck, RankDeficiencyError,
                          ResolutionPolicy, accumulated_spectrogram,
                          build_eval_grid, compute_psi, defect_g,
                          dilation_snapshot, inequality_report,
                          inner_product_direct, inner_product_spectral)
from .variance import (FitRangeError, asymptotic_constant,
                       asymptotic_constant_geometric, fit_asymptotics,
                       hyperuniformity_curve)

SUMMARY_COLUMNS = ("R", "trace", "N", "E_count", "var_spectral", "var_radial",
                   "ratio", "err_raw", "err_normalized", "tail_mass")

SCHEMA_TEXT = f"""accspec output schemas (version {__version__})

summary table (spectrogram and variance subcommands), columns:
  {",".join(SUMMARY_COLUMNS)}
  R               dilation scale
  trace           discrete trace of the restricted operator (= E_count
                  when computed spectrally; empty for radial-only rows)
  N               upper integer part of the trace (spectrogram rows)
  E_count         expected point count in the dilated window
  var_spectral    sum mu (1-mu) over the discretized spectrum
  var_radial      radial-route variance (balls; upper bound for unions)
  ratio           best variance / E_count
  err_raw         L1 distance between rho and its limit shape, plus the
                  mass-accounting remainder (spectrogram rows)
  err_normalized  err_raw / N (spectrogram rows)
  tail_mass       N - integral of rho over the evaluation box
Absent quantities are emitted as empty fields, never as zeros.

field table (spectrogram subcommand, <out>.fields.csv), columns:
  x1..xd          evaluation node coordinates
  rho             accumulated spectrogram value at the node
  target          kernel diagonal times the window indicator

variance fit block (CSV: '# fit_*' comment lines; JSON: 'fit' object):
  slope, reference_constant, relative_deviation, window_low

CSV files start with a '# accspec <version>' header line, use '.' as
the decimal separator and 17 significant digits. JSON output is a
single UTF-8 document with 'summary', and where applicable 'fields'
and 'fit' entries.
"""


class UsageError(Exception):
    """Configuration problem; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    kernel_name: str | None = None
    dim: int = 1
    cdim: int = 1
    region_spec: str | None = None
    scales: tuple = ()
    n_per_axis: int | None = None
    nodes_per_unit: float = 40.0
    margin: float | None = None
    eval_spacing: float | None = None
    delta: float = 0.25
    lens_tol: float = 1e-9
    node_cap: int = 4096
    spectral_mode: str = "auto"
    fmt: str = "csv"
    out: Path | None = None
    debug_max_series_terms: int | None = None
    lens_dim: int = 2
    lens_r: float = 1.0
    lens_R: float = 1.0


# ---------------------------------------------------------------------------
# parsing helpers


def parse_scale_list(text: str) -> tuple:
    """Either 'a,b,c' explicit values or 'lo:hi:logN' log spacing."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("log"):
            raise UsageError(f"R: cannot parse '{text}' (want a,b,c or lo:hi:logN)")
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2][3:])
        if lo <= 0 or hi <= lo or n < 2:
            raise UsageError("R: log range needs 0 < lo < hi and N >= 2")
        vals = np.logspace(math.log10(lo), math.log10(hi), n)
        return tuple(float(v) for v in vals)
    try:
        vals = tuple(float(v) for v in text.split(",") if v)
    except ValueError as exc:
        raise UsageError(f"R: cannot parse '{text}': {exc}") from None
    if not vals or any(v <= 0 for v in vals):
        raise UsageError("R: values must be positive")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise UsageError("R: values must be strictly ascending")
    return vals


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
            c_s, r_s = body.rsplit(":", 1)
            center = np.array([float(v) for v in c_s.split(",")])
            return Ball(center, float(r_s))
        if kind == "union":
            balls = []
            for part in body.split(";"):
                c_s, r_s = part.rsplit(":", 1)
                center = np.array([float(v) for v in c_s.split(",")])
                balls.append(Ball(center, float(r_s)))
            try:
                return DisjointBallUnion(tuple(balls))
            except ValueError as exc:
                if "overlap" in str(exc):
                    raise UsageError("union: balls overlap") from None
                raise UsageError(f"union: {exc}") from None
    except UsageError:
        raise
    except (ValueError, TypeError) as exc:
        raise UsageError(f"region: cannot parse '{text}': {exc}") from None
    raise UsageError(f"region: unknown kind '{kind}' "
                     "(want interval/box/ball/union)")


def make_kernel(cfg: RunConfig) -> Kernel:
    if cfg.kernel_name is None:
        raise UsageError("kernel: required")
    name = cfg.kernel_name.lower()
    if name == "sine":
        return sine_kernel()
    if name in ("paley-wiener", "paleywiener", "pw"):
        return PaleyWienerKernel(cfg.dim)
    if name == "ginibre":
        return GinibreKernel(cfg.cdim)
    raise UsageError(f"kernel: unknown '{cfg.kernel_name}' "
                     "(want sine, paley-wiener or ginibre)")


def default_region(kernel: Kernel) -> Region:
    return Ball(np.zeros(kernel.ambient_dim), 1.0)


def worker_count(n_tasks: int) -> int:
    raw = os.environ.get("ACC_SPECGRAM_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = min(4, os.cpu_count() or 1)
    return max(1, min(cap, n_tasks))


# ---------------------------------------------------------------------------
# output formatting


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        raise RuntimeError("refusing to emit a non-finite value")
    return f"{value:.17g}"


def write_csv(path: Path | None, header: tuple, rows, comments=()) -> None:
    buf = io.StringIO()
    buf.write(f"# accspec {__version__}\n")
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def write_json(path: Path | None, document: dict) -> None:
    document = {"version": __version__, **document}
    _reject_nonfinite(document)
    text = json.dumps(document, indent=2, allow_nan=False)
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        path.write_text(text + "\n", encoding="utf-8")


def _reject_nonfinite(obj) -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise RuntimeError("refusing to emit a non-finite value")
    if isinstance(obj, dict):
        for v in obj.values():
            _reject_nonfinite(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _reject_nonfinite(v)


def fields_path(out: Path) -> Path:
    return out.with_name(out.stem + ".fields" + (out.suffix or ".csv"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrogram(cfg: RunConfig) -> int:
    kernel = make_kernel(cfg)
    if cfg.region_spec is None:
        raise UsageError("region: required")
    region = parse_region(cfg.region_spec)
    if region.dim != kernel.ambient_dim:
        raise UsageError(
            f"region dimension {region.dim} does not match kernel dimension "
            f"{kernel.ambient_dim}"
        )
    if not cfg.scales:
        raise UsageError("R: required")
    policy = ResolutionPolicy(nodes_per_unit=cfg.nodes_per_unit,
                              margin=cfg.margin, eval_spacing=cfg.eval_spacing,
                              node_cap=cfg.node_cap)

    def run_one(scale):
        return dilation_snapshot(kernel, region, scale, policy,
                                 n_per_axis=cfg.n_per_axis)

    with ThreadPoolExecutor(max_workers=worker_count(len(cfg.scales))) as pool:
        results = list(pool.map(run_one, cfg.scales))

    summary = []
    for row, _ in results:
        summary.append((row.scale, row.trace, row.n_count, row.trace, None,
                        None, None, row.err_raw, row.err_normalized,
                        row.tail_mass))

    field_header = None
    field_rows = []
    for (row, fld) in results:
        nodes = fld.eval_grid.nodes
        d = nodes.shape[1]
        if field_header is None:
            field_header = ("R", *[f"x{k + 1}" for k in range(d)], "rho", "target")
        inside = fld.eval_grid.inside_base()
        target = kernel.diagonal_value * inside
        for i in range(nodes.shape[0]):
            field_rows.append((row.scale, *nodes[i], fld.rho[i], target[i]))

    if cfg.fmt == "json":
        doc = {
            "summary": [dict(zip(SUMMARY_COLUMNS, map(_json_val, row)))
                        for row in summary],
            "fields": [dict(zip(field_header, map(_json_val, row)))
                       for row in field_rows],
        }
        write_json(cfg.out, doc)
    else:
        write_csv(cfg.out, SUMMARY_COLUMNS, summary)
        if cfg.out is not None:
            write_csv(fields_path(cfg.out), field_header, field_rows)
    return 0


def _json_val(v):
    if v is None:
        return None
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def cmd_variance(cfg: RunConfig) -> int:
    kernel = make_kernel(cfg)
    region = (parse_region(cfg.region_spec) if cfg.region_spec is not None
              else default_region(kernel))
    if region.dim != kernel.ambient_dim:
        raise UsageError(
            f"region dimension {region.dim} does not match kernel dimension "
            f"{kernel.ambient_dim}"
        )
    if not cfg.scales:
        raise UsageError("R: required")
    include_spectral, curve_npu = _spectral_policy(cfg, kernel, region)
    points = hyperuniformity_curve(kernel, region, cfg.scales,
                                   include_spectral=include_spectral,
                                   node_cap=cfg.node_cap,
                                   nodes_per_unit=curve_npu,
                                   n_per_axis=cfg.n_per_axis)
    summary = [(p.scale, None, None, p.e_count, p.var_spectral, p.var_radial,
                p.ratio, None, None, None) for p in points]

    fit = None
    fit_warning = None
    if isinstance(kernel, PaleyWienerKernel) and isinstance(region, Ball):
        try:
            fit = fit_asymptotics(kernel.dim,
                                  [p.scale * region.radius for p in points],
                                  [p.var_radial for p in points])
        except FitRangeError as exc:
            fit_warning = str(exc)

    if cfg.fmt == "json":
        doc = {"summary": [dict(zip(SUMMARY_COLUMNS, map(_json_val, row)))
                           for row in summary]}
        if fit is not None:
            doc["fit"] = {"slope": fit.slope,
                          "reference_constant": fit.reference_constant,
                          "relative_deviation": fit.relative_deviation,
                          "window_low": fit.window_low}
        elif fit_warning is not None:
            doc["fit"] = {"warning": fit_warning}
        write_json(cfg.out, doc)
    else:
        comments = []
        if fit is not None:
            comments = [f"fit_slope: {_fmt(fit.slope)}",
                        f"fit_reference_constant: {_fmt(fit.reference_constant)}",
                        f"fit_relative_deviation: {_fmt(fit.relative_deviation)}",
                        f"fit_window_low: {_fmt(fit.window_low)}"]
        elif fit_warning is not None:
            comments = [f"fit_warning: {fit_warning}"]
        write_csv(cfg.out, SUMMARY_COLUMNS, summary, comments=comments)
    return 0


def _spectral_policy(cfg: RunConfig, kernel: Kernel,
                     region: Region) -> tuple[bool, float | None]:
    """Whether the spectral variance column is computed, and at which
    per-unit resolution (None = fill the node cap per scale).

    In one dimension the grid scales with the window and the column is
    feasible as long as every scale fits the cap; in higher dimensions
    the cap is filled, feasible as long as the resulting spacing still
    resolves the kernel's correlation structure at every scale.
    """
    d = kernel.ambient_dim
    npu = cfg.nodes_per_unit if d == 1 else None
    if cfg.spectral_mode == "off":
        return False, npu
    if cfg.spectral_mode == "on":
        return True, npu
    for scale in cfg.scales:
        dilated = region.dilate(scale)
        bbox = dilated.bounding_box()
        side = float((bbox.upper - bbox.lower).max())
        fill = dilated.volume() / bbox.volume()
        if d == 1:
            n_axis = max(2, int(math.ceil(cfg.nodes_per_unit * side)))
            if fill * n_axis ** d > cfg.node_cap * 1.05:
                return False, npu
        else:
            n_axis = int((cfg.node_cap / fill) ** (1.0 / d))
            if side / n_axis > kernel.correlation_length() / 4.0:
                return False, npu
    return True, npu


def cmd_lens(cfg: RunConfig) -> int:
    try:
        spec = LensSpec(cfg.lens_dim, cfg.lens_r, cfg.lens_R)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    series = lens_volume_series(spec, tol=cfg.lens_tol,
                                max_terms=cfg.debug_max_series_terms)
    exact = lens_volume_exact(spec)
    print(f"series = {_fmt(series)}")
    print(f"exact  = {_fmt(exact)}")
    print(f"diff   = {_fmt(series - exact)}")
    return 0


def _self_checks(cfg: RunConfig):
    """The check suite: every line is (name, lhs <= rhs + slack)."""
    lines = []

    # lens: series agrees with the cap-integral route on a 50-point grid
    for d in (1, 2, 3):
        worst = 0.0
        for r in np.linspace(0.0, 2.0, 50):
            spec = LensSpec(d, float(r), 1.0)
            series = lens_volume_series(spec, tol=cfg.lens_tol,
                                        max_terms=cfg.debug_max_series_terms)
            worst = max(worst, abs(series - lens_volume_exact(spec)))
        lines.append(InequalityCheck(f"lens_series_vs_exact_d{d}", worst,
                                     1e-8, 0.0))

    # Bessel implementation against a compensated direct series sum
    for nu in (0.5, 1.0, 1.5):
        xs = np.linspace(0.0, 10.0, 101)
        worst = 0.0
        for x in xs:
            ref = _bessel_series_fsum(nu, float(x))
            worst = max(worst, abs(bessel_j(nu, float(x)) - ref))
        lines.append(InequalityCheck(f"bessel_vs_series_nu{nu}", worst,
                                     1e-10, 0.0))

    # asymptotic constant: Gamma closed form vs geometric pre-simplification
    for d in (1, 2, 3):
        lines.append(InequalityCheck(
            f"asymptotic_constant_identity_d{d}",
            abs(asymptotic_constant(d) - asymptotic_constant_geometric(d)),
            1e-12, 0.0))

    # kernel admissibility residuals
    for kernel, r_max, bound in ((GinibreKernel(1), 10.0, 1e-10),
                                 (sine_kernel(), 1e4, 1e-3),
                                 (PaleyWienerKernel(2), 1e4, 1e-2)):
        res = radial_normalization_check(kernel, r_max)
        lines.append(InequalityCheck(
            f"radial_normalization_{kernel.name}_d{kernel.ambient_dim}",
            abs(res), bound, 0.0))

    # inequality suite and identities on the reference configuration
    kernel = sine_kernel()
    region = Box(np.array([-5.0]), np.array([5.0]))
    grid = build_grid(region, 400)
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    eval_grid = build_eval_grid(kernel, region, margin=cfg.margin,
                                reference_grid=grid)
    psi = compute_psi(kernel, spectral, eval_grid)
    fld = accumulated_spectrogram(kernel, spectral, eval_grid, psi=psi)
    defect = defect_g(kernel, grid, eval_grid)
    report = inequality_report(kernel, spectral, fld, psi, defect, cfg.delta)
    for chk in report.checks:
        lines.append(replace(chk, name=f"{chk.name}_delta{cfg.delta:g}"
                                       f"_Cdelta{report.c_delta:g}"))

    ips, _ = inner_product_spectral(psi)
    ipd = inner_product_direct(kernel, grid, eval_grid.nodes)
    rel = float(np.max(np.abs(ips - ipd) / ipd))
    lines.append(InequalityCheck("inner_product_identity_max_rel", rel,
                                 0.02, 0.0))

    conservation = abs(fld.integral() + fld.tail_mass - fld.n_count)
    lines.append(InequalityCheck("rho_mass_conservation", conservation,
                                 1e-8, 0.0))
    return lines


def _bessel_series_fsum(nu: float, x: float) -> float:
    terms = []
    t = (x / 2.0) ** nu / math.gamma(1.0 + nu)
    for k in range(60):
        terms.append(t)
        t *= -(x / 2.0) ** 2 / ((k + 1.0) * (k + 1.0 + nu))
    return math.fsum(terms)


def cmd_check(cfg: RunConfig) -> int:
    lines = _self_checks(cfg)
    failures = 0
    for line in lines:
        status = "PASS" if line.passed else "FAIL"
        failures += 0 if line.passed else 1
        print(f"{status} {line.name} lhs={_fmt(line.lhs)} rhs={_fmt(line.rhs)} "
              f"slack={_fmt(line.slack)}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print(f"all {len(lines)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accspec",
        description="accumulated spectrograms and number-variance diagnostics",
    )
    parser.add_argument("--schema", action="store_true",
                        help="print the output column documentation and exit")
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--kernel", help="sine, paley-wiener or ginibre")
        p.add_argument("--dim", type=int, default=1,
                       help="dimension for paley-wiener")
        p.add_argument("--cdim", type=int, default=1,
                       help="complex dimension for ginibre")
        p.add_argument("--region", help="interval:a,b | box:lo..:hi.. | "
                                        "ball:c..:r | union:c..:r;c..:r")
        p.add_argument("--R", help="dilation scales: a,b,c or lo:hi:logN")
        p.add_argument("--n", type=int, default=None,
                       help="fixed window grid nodes per axis")
        p.add_argument("--nodes-per-unit", type=float, default=40.0,
                       help="window grid resolution per unit length")
        p.add_argument("--margin", type=float, default=None,
                       help="evaluation margin (default: 4 correlation lengths)")
        p.add_argument("--eval-spacing", type=float, default=None)
        p.add_argument("--delta", type=float, default=0.25)
        p.add_argument("--node-cap", type=int, default=4096)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=Path, default=None)

    p_spec = sub.add_parser("spectrogram", help="dilation convergence study")
    add_common(p_spec)

    p_var = sub.add_parser("variance", help="hyperuniformity curve and fit")
    add_common(p_var)
    p_var.add_argument("--spectral", choices=("auto", "on", "off"),
                       default="auto",
                       help="also compute the discretized-spectrum variance")

    p_check = sub.add_parser("check", help="self-check suite")
    p_check.add_argument("--delta", type=float, default=0.25)
    p_check.add_argument("--margin", type=float, default=None)
    p_check.add_argument("--lens-tol", type=float, default=1e-9)
    p_check.add_argument("--debug-max-series-terms", type=int, default=None,
                         help="fault injection: hard-truncate the lens series")

    p_lens = sub.add_parser("lens", help="lens volume, both routes")
    p_lens.add_argument("--dim", type=int, required=True)
    p_lens.add_argument("--r", type=float, required=True)
    p_lens.add_argument("--R", type=float, required=True)
    p_lens.add_argument("--tol", type=float, default=1e-9)
    return parser


def config_from_args(args) -> RunConfig:
    command = args.command
    if command == "lens":
        if not args.tol > 0:
            raise UsageError("tol: must be positive")
        return RunConfig(command="lens", lens_dim=args.dim, lens_r=args.r,
                         lens_R=args.R, lens_tol=args.tol)
    if command == "check":
        if not args.lens_tol > 0:
            raise UsageError("lens-tol: must be positive")
        return RunConfig(command="check", delta=args.delta, margin=args.margin,
                         lens_tol=args.lens_tol,
                         debug_max_series_terms=args.debug_max_series_terms)
    scales = parse_scale_list(args.R) if args.R else ()
    return RunConfig(command=command, kernel_name=args.kernel, dim=args.dim,
                     cdim=args.cdim, region_spec=args.region, scales=scales,
                     n_per_axis=args.n, nodes_per_unit=args.nodes_per_unit,
                     margin=args.margin, eval_spacing=args.eval_spacing,
                     delta=args.delta, node_cap=args.node_cap,
                     spectral_mode=getattr(args, "spectral", "auto"),
                     fmt=args.format, out=args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        print(SCHEMA_TEXT)
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = config_from_args(args)
        if cfg.command == "spectrogram":
            return cmd_spectrogram(cfg)
        if cfg.command == "variance":
            return cmd_variance(cfg)
        if cfg.command == "check":
            return cmd_check(cfg)
        if cfg.command == "lens":
            return cmd_lens(cfg)
        raise UsageError(f"unknown command {cfg.command}")
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SeriesDivergenceError, ResourceLimitError, SpectralSolverError,
            RankDeficiencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
