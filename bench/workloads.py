"""The three benchmark workloads: seeded inputs, timed operations, checks.

Every operation calls the package only through its documented entry
points (``accspec.cli.main(argv)`` and names in ``accspec.__all__``),
always by attribute lookup on the module, so that the tracer's rebinding
of those attributes is seen. An operation is a timed call into the
program followed by an untimed verification against the paper's
identities at the acceptance suite's tolerances.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import accspec
import accspec.cli

WORKLOADS = ("spectral-2d", "radial-sweep", "cli-curves")

# acceptance-suite tolerances
TOL_TRACE = 1e-10
TOL_MASS = 1e-8
TOL_LENS = 1e-8          # relative to the ball volume c_d R^d
TOL_FIT = 0.10
TOL_CROSS_ROUTE = 0.02
TOL_DUAL = 0.02
DELTAS = (0.1, 0.25, 0.5)
# The dual identity is checked where the direct window integral carries at
# least this share of the diagonal. Below it the modes under compute_psi's
# spectrum floor (mu <= 1e-12), which the mode sum drops by design, dominate
# both sides (ginibre fields fall to 1e-150 at the edge of the box).
DUAL_FLOOR = 1e-6


@dataclass
class Check:
    """One verified property of an operation's result.

    ``gap`` is observed gap / tolerance for the independent-route checks
    (None for pass/fail properties). ``known_defect`` marks a failure the
    parent code is documented to have; it still fails the operation.
    """

    name: str
    passed: bool
    gap: float | None = None
    known_defect: bool = False


def gap_check(name: str, gap: float, tol: float,
              known_defect: bool = False) -> Check:
    ratio = float(gap) / tol
    return Check(name, bool(ratio <= 1.0), ratio, known_defect)


@dataclass
class Op:
    """A timed call into the program and the verification of its result.

    ``verify`` returns the checks and a digest of the outputs; repeated
    runs of one seed must reproduce the digest exactly.
    """

    name: str
    run: Callable[[], object]
    verify: Callable[[object], tuple[list[Check], str]]


@dataclass
class Ledger:
    """Operation outcomes over every pass of a run."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    gap_max: float = 0.0
    digests: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    def record(self, op_name: str, checks: list[Check], digest: str | None):
        if digest is not None:
            first = self.digests.setdefault(op_name, digest)
            checks = checks + [Check("deterministic_output", digest == first)]
        self.attempted += 1
        bad = [c for c in checks if not c.passed]
        if bad:
            self.failed += 1
            self.failures.setdefault(op_name, [c.name for c in bad])
        if any(not c.known_defect for c in bad):
            self.unexpected += 1
        gaps = [c.gap for c in checks if c.gap is not None]
        if gaps:
            self.gap_max = max(self.gap_max, max(gaps))

    @property
    def correct(self) -> bool:
        """No failure outside the documented defects of the parent code."""
        return self.attempted > 0 and self.unexpected == 0


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def build(name: str, seed: int, size: str = "full",
          workdir: Path | None = None) -> list[Op]:
    """The fixed operation list of one workload for one seed."""
    rng = np.random.default_rng(seed)
    if name == "spectral-2d":
        return spectral_2d(rng, size)
    if name == "radial-sweep":
        return radial_sweep(rng, size)
    if name == "cli-curves":
        if workdir is None:
            raise ValueError("cli-curves writes its outputs to a workdir")
        return cli_curves(rng, size, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _jitter(rng, value: float, rel: float = 0.02) -> float:
    """value scaled by a seeded factor in [1 - rel, 1 + rel]."""
    return float(value * (1.0 + rng.uniform(-rel, rel)))


# ---------------------------------------------------------------------------
# spectral-2d: the full certified spectrogram on three 2-D windows


def spectral_2d(rng, size: str) -> list[Op]:
    # (label, kernel, region, nodes per axis, eval margin, eval spacing).
    # Nodes per axis are fixed, so n is exact for every seed; the seed
    # moves centres and scales sides and radii by at most 2%.
    tiny = size == "tiny"
    centre = lambda: rng.uniform(-1.0, 1.0, 2)
    lo = centre()
    sides = np.array([_jitter(rng, 3.0), _jitter(rng, 2.5)])
    cases = [
        ("ginibre-disk", accspec.GinibreKernel(1),
         accspec.Ball(centre(), _jitter(rng, 1.0 if tiny else 2.0)),
         12 if tiny else 40, 2.0 if tiny else None, None),
        ("ginibre-box", accspec.GinibreKernel(1),
         accspec.Box(lo, lo + (0.4 if tiny else 1.0) * sides),
         10 if tiny else 34, 2.0 if tiny else None, 0.25 if tiny else 0.1),
        ("pw2-disk", accspec.PaleyWienerKernel(2),
         accspec.Ball(centre(), _jitter(rng, 2.0 if tiny else 5.0)),
         12 if tiny else 40, 2.0 if tiny else 5.0, 0.5 if tiny else 0.25),
    ]
    return [Op(label, _spectral_run(*case), _spectral_verify)
            for label, *case in cases]


def _spectral_run(kernel, region, n_axis, margin, spacing):
    def run():
        grid = accspec.build_grid(region, n_axis)
        operator = accspec.assemble_operator(kernel, grid)
        spectral = accspec.spectral_decompose(operator)
        eval_grid = accspec.build_eval_grid(kernel, region, margin=margin,
                                            spacing=spacing,
                                            reference_grid=grid)
        psi = accspec.compute_psi(kernel, spectral, eval_grid)
        fld = accspec.accumulated_spectrogram(kernel, spectral, eval_grid,
                                              psi=psi)
        defect = accspec.defect_g(kernel, grid, eval_grid)
        reports = [accspec.inequality_report(kernel, spectral, fld, psi,
                                             defect, delta)
                   for delta in DELTAS]
        var_spectral = accspec.variance_spectral(spectral)
        radial = (accspec.variance_radial(kernel, region.radius)
                  if isinstance(region, accspec.Ball) else None)
        return SimpleNamespace(kernel=kernel, region=region, grid=grid,
                               spectral=spectral, eval_grid=eval_grid,
                               psi=psi, field=fld, defect=defect,
                               reports=reports, var_spectral=var_spectral,
                               radial=radial)
    return run


def _spectral_verify(r) -> tuple[list[Check], str]:
    diag = r.kernel.diagonal_value
    # trace identity: sum of eigenvalues = tr A = K(x,x) * sum of weights
    checks = [gap_check("trace_identity",
                        abs(r.spectral.trace - diag * r.grid.weight_sum),
                        TOL_TRACE),
              gap_check("tail_mass", abs(r.field.tail_mass), TOL_MASS),
              gap_check("mass_conservation",
                        abs(r.field.integral() + r.field.tail_mass
                            - r.field.n_count), TOL_MASS)]
    for report in r.reports:
        checks += [Check(f"{c.name}_delta{report.delta:g}", c.passed)
                   for c in report.checks]
    # dual inner product: mu-weighted mode sum vs the direct window
    # integral, which the defect field carries as K(x,x) 1_window - G
    ips, _ = accspec.inner_product_spectral(r.psi)
    ipd = diag * r.eval_grid.inside_base() - r.defect.values
    keep = ipd >= DUAL_FLOOR * diag
    checks.append(gap_check("dual_inner_product",
                            np.max(np.abs(ips[keep] - ipd[keep]) / ipd[keep]),
                            TOL_DUAL))
    e_count = r.spectral.trace
    checks.append(Check("variance_in_0_E", 0.0 <= r.var_spectral <= e_count))
    values = [r.var_spectral]
    if r.radial is not None:
        checks += [gap_check("spectral_vs_radial_variance",
                             abs(r.var_spectral - r.radial.value)
                             / r.radial.value, TOL_CROSS_ROUTE),
                   Check("radial_variance_in_0_E",
                         0.0 <= r.radial.value
                         <= accspec.expected_count(r.kernel, r.region)),
                   Check("radial_no_accuracy_warning",
                         not r.radial.accuracy_warning)]
        values.append(r.radial.value)
    return checks, digest_of(r.spectral.eigenvalues, r.field.rho,
                             r.defect.values, values)


# ---------------------------------------------------------------------------
# radial-sweep: radial-route variance from small to very large radii


def radial_sweep(rng, size: str) -> list[Op]:
    tiny = size == "tiny"
    n_radii = 6 if tiny else 20
    results = {}
    ops = []
    for d, hi in ((1, 1000.0), (2, 1000.0), (3, 3000.0)):
        if tiny:
            hi = 100.0
        shift = _jitter(rng, 1.0)  # moves the grid, keeps its span
        radii = shift * np.logspace(1.0, math.log10(hi), n_radii)
        kernel = accspec.PaleyWienerKernel(d)
        keys = []
        for radius in radii:
            key = (f"pw{d}", float(radius))
            keys.append(key)
            ops.append(_radial_op(kernel, float(radius), key, results,
                                  known_defect=True))
        ops.append(Op(f"fit-pw{d}", _fit_run(d, radii, keys, results),
                      _fit_verify))
    for cdim, base in ((1, (1.0, 2.0, 4.0, 8.0)), (2, (1.0, 2.0, 3.0))):
        kernel = accspec.GinibreKernel(cdim)
        for radius in base[:2] if tiny else base:
            radius = _jitter(rng, radius)
            ops.append(_radial_op(kernel, radius, (f"gin{cdim}", radius),
                                  results, known_defect=False))
    return ops


def _radial_op(kernel, radius: float, key, results: dict,
               known_defect: bool) -> Op:
    def run():
        rv = accspec.variance_radial(kernel, radius)
        results[key] = rv.value
        return rv

    def verify(rv):
        d = kernel.ambient_dim
        e_count = accspec.expected_count(
            kernel, accspec.Ball(np.zeros(d), radius))
        checks = [Check("variance_in_0_E", 0.0 <= rv.value <= e_count),
                  # the radial route integrates to r_max and only bounds
                  # the remainder, which misses 1% at many large radii
                  Check("no_accuracy_warning", not rv.accuracy_warning,
                        known_defect=known_defect)]
        volume = accspec.unit_ball_volume(d) * radius ** d
        worst = 0.0
        for q in (0.1, 0.5, 0.9):
            spec = accspec.LensSpec(d, 2.0 * q * radius, radius)
            series = accspec.lens_volume_series(spec, tol=0.1 * TOL_LENS
                                                * volume)
            worst = max(worst, abs(series - accspec.lens_volume_exact(spec)))
        checks.append(gap_check("lens_routes", worst / volume, TOL_LENS))
        return checks, digest_of(rv.value, rv.error_estimate)

    return Op(f"{key[0]}-R{radius:.6g}", run, verify)


def _fit_run(d: int, radii, keys, results: dict):
    def run():
        return accspec.fit_asymptotics(d, radii, [results[k] for k in keys])
    return run


def _fit_verify(fit) -> tuple[list[Check], str]:
    return ([Check("reference_constant",
                   math.isclose(fit.reference_constant,
                                accspec.asymptotic_constant(fit.dim),
                                rel_tol=1e-12)),
             # missed for d = 1 and d = 3 by the same truncation bias
             gap_check("fit_vs_constant", fit.relative_deviation, TOL_FIT,
                       known_defect=True)],
            digest_of(fit.slope, fit.intercept))


# ---------------------------------------------------------------------------
# cli-curves: documented commands through accspec.cli.main


def cli_curves(rng, size: str, workdir: Path) -> list[Op]:
    tiny = size == "tiny"
    centre = rng.uniform(-0.5, 0.5)
    half = _jitter(rng, 1.0)
    interval = f"interval:{centre - half!r},{centre + half!r}"
    ladder = "2,4" if tiny else "2,4,8,16"
    npu = ["--nodes-per-unit", "10"] if tiny else []
    shift = _jitter(rng, 1.0)
    lo, hi = shift, shift * (10.0 if tiny else 40.0)
    sine_r = f"{lo!r}:{hi!r}:log{6 if tiny else 12}"
    gin_r = f"{_jitter(rng, 1.0)!r},{_jitter(rng, 2.0)!r}"
    out = workdir
    return [
        _cli_op("spectrogram-csv",
                ["spectrogram", "--kernel", "sine", "--region", interval,
                 "--R", ladder, *npu, "--out", str(out / "ladder.csv")],
                [out / "ladder.csv", out / "ladder.fields.csv"],
                _verify_ladder_csv),
        _cli_op("spectrogram-json",
                ["spectrogram", "--kernel", "sine", "--region", interval,
                 "--R", ladder, *npu, "--format", "json",
                 "--out", str(out / "ladder.json")],
                [out / "ladder.json", out / "ladder.csv"],
                _verify_ladder_json),
        _cli_op("variance-sine",
                ["variance", "--kernel", "sine", "--region", "ball:0:1",
                 "--R", sine_r, "--spectral", "on",
                 "--out", str(out / "sine.csv")],
                [out / "sine.csv"], _verify_variance),
        _cli_op("variance-ginibre",
                ["variance", "--kernel", "ginibre", "--R", gin_r,
                 "--node-cap", "256" if tiny else "2048",
                 "--out", str(out / "ginibre.csv")],
                [out / "ginibre.csv"], _verify_variance),
        _cli_op("check", ["check"], [], _verify_check),
    ]


def _cli_op(name: str, argv: list[str], files: list[Path], verify) -> Op:
    # files[0] is the op's own output; the rest are read for comparison
    def run():
        if files:
            files[0].unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = accspec.cli.main(argv)
        return code, buf.getvalue()

    def check(result):
        code, stdout = result
        texts = {p.name: p.read_text(encoding="utf-8")
                 for p in files if p.exists()}
        own = texts.get(files[0].name) if files else ""
        checks = [Check("exit_code_0", code == 0)]
        if own is None:
            return checks + [Check("output_written", False)], \
                digest_of(code, stdout)
        return checks + verify(stdout, texts), digest_of(code, stdout, own)

    return Op(name, run, check)


def _csv_rows(text: str):
    """(comment lines, rows as dicts keyed by column name)."""
    lines = text.splitlines()
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, list(csv.DictReader(body))


def _num(value):
    return None if value in ("", None) else float(value)


def _ladder_checks(summary, fields) -> list[Check]:
    """Mass accounting of the spectrogram ladder, from its output tables."""
    checks = [Check("rows_present", len(summary) > 0)]
    by_scale = {}
    for f in fields:
        by_scale.setdefault(_num(f["R"]), []).append((_num(f["x1"]),
                                                      _num(f["rho"])))
    for row in summary:
        scale, n_count, tail = (_num(row["R"]), _num(row["N"]),
                                _num(row["tail_mass"]))
        checks.append(gap_check(f"tail_mass_R{scale:g}", abs(tail), TOL_MASS))
        pairs = np.array(by_scale.get(scale, []), dtype=float).reshape(-1, 2)
        xs, rho = pairs[:, 0], pairs[:, 1]
        if xs.size < 2:
            checks.append(Check(f"field_rows_R{scale:g}", False))
            continue
        # uniform evaluation lattice: cell width from the node span
        width = (xs.max() - xs.min()) / (xs.size - 1)
        checks.append(gap_check(f"mass_conservation_R{scale:g}",
                                abs(rho.sum() * width + tail - n_count),
                                TOL_MASS))
    errs = [_num(row["err_normalized"]) for row in summary]
    checks.append(Check("l1_error_decreasing",
                        all(b < a for a, b in zip(errs, errs[1:]))))
    return checks


def _verify_ladder_csv(stdout: str, texts: dict) -> list[Check]:
    _, summary = _csv_rows(texts["ladder.csv"])
    _, fields = _csv_rows(texts.get("ladder.fields.csv", ""))
    return _ladder_checks(summary, fields)


def _verify_ladder_json(stdout: str, texts: dict) -> list[Check]:
    doc = json.loads(texts["ladder.json"])
    summary = [{k: ("" if v is None else repr(v)) for k, v in row.items()}
               for row in doc["summary"]]
    fields = [{k: repr(v) for k, v in row.items()} for row in doc["fields"]]
    checks = _ladder_checks(summary, fields)
    if "ladder.csv" in texts:
        _, csv_summary = _csv_rows(texts["ladder.csv"])
        same = [{k: _num(v) for k, v in row.items()} for row in csv_summary] \
            == [{k: _num(v) for k, v in row.items()} for row in summary]
        checks.append(Check("json_matches_csv_summary", same))
    return checks


def _verify_variance(stdout: str, texts: dict) -> list[Check]:
    name = next(iter(texts))
    comments, rows = _csv_rows(texts[name])
    checks = [Check("rows_present", len(rows) > 0)]
    for row in rows:
        scale, e_count = _num(row["R"]), _num(row["E_count"])
        radial, spectral = _num(row["var_radial"]), _num(row["var_spectral"])
        for label, value in (("radial", radial), ("spectral", spectral)):
            if value is not None:
                checks.append(Check(f"{label}_variance_in_0_E_R{scale:.4g}",
                                    0.0 <= value <= e_count))
        if radial is not None and spectral is not None:
            checks.append(gap_check(f"spectral_vs_radial_R{scale:.4g}",
                                    abs(spectral - radial) / radial,
                                    TOL_CROSS_ROUTE))
    fit = dict(c.split(": ", 1) for c in comments if c.startswith("fit_")
               and ": " in c)
    if "fit_relative_deviation" in fit:
        checks.append(gap_check("fit_vs_constant",
                                float(fit["fit_relative_deviation"]), TOL_FIT))
    return checks


# `check` lines that compare two independent routes; rhs + slack is the
# tolerance
_CHECK_ROUTE_LINES = ("lens_series_vs_exact", "inner_product_identity",
                      "rho_mass_conservation")


def _verify_check(stdout: str, texts: dict) -> list[Check]:
    checks = []
    lines = [ln for ln in stdout.splitlines()
             if ln.startswith(("PASS ", "FAIL "))]
    checks.append(Check("check_lines_present", len(lines) > 0))
    for ln in lines:
        status, name, *fields = ln.split()
        checks.append(Check(name, status == "PASS"))
        if name.startswith(_CHECK_ROUTE_LINES):
            vals = dict(f.split("=", 1) for f in fields)
            checks.append(gap_check(f"{name}_gap", float(vals["lhs"]),
                                    float(vals["rhs"]) + float(vals["slack"])))
    return checks
