"""Command-line front end.

Commands
    table     noise-tolerance table per family and qubit count
    eval      exact witness expectation on a noisy target state
    simulate  two-setting measurement simulation and witness estimation
    certify   biseparability certification via see-saw minimisation

Human-readable output goes to stdout, machine records to --out files, and
notices to stderr.  Exit codes: 0 success or PASS, 1 check failure or FAIL,
2 usage error.  Every command is deterministic given its full configuration
including the seed (default from STABWIT_SEED, else 0), and every record
embeds the resolved configuration and the tool version.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

from . import __version__
from .bisep import PASS_TOLERANCE, certify
from .errors import StabwitError
from .families import FAMILIES
from .jsontext import dumps
from .measurement import (
    DETECTION_DELTA,
    MAX_SEED,
    MAX_SHOTS,
    CountsTable,
    draw_counts,
    estimate_witness,
    mix_white_noise,
    stabilizer_distributions,
)
from .pauli import generators_for
from .states import MAX_QUBITS
from .witnesses import build_witness, noise_threshold, witness_line

SEED_ENV_VAR = "STABWIT_SEED"
# expectations this close to zero cannot certify detection
DETECTION_ATOL = 1e-12

TABLE_N_RANGE = (2, 16)
CERTIFY_MAX_QUBITS = 12
SIMULATE_SHOTS = 100000


class UsageError(Exception):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation, embedded into every machine record."""

    command: str
    family: str | None = None
    n: int | None = None
    n_range: tuple[int, int] | None = None
    p_noise: float | None = None
    shots: int | None = None
    seed: int | None = None
    restarts: int | None = None
    fmt: str = "json"
    out: str | None = None
    counts_out: str | None = None
    check: bool = False
    negate: bool = False
    ingest: tuple[str, str] | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_range"] = list(self.n_range) if self.n_range else None
        d["ingest"] = list(self.ingest) if self.ingest else None
        return d


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse qubit range {text!r}; use N or LO..HI") from exc
    if lo > hi:
        raise UsageError(f"empty qubit range {text!r}")
    return lo, hi


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _families(arg: str) -> list[str]:
    return list(FAMILIES) if arg == "both" else [arg]


def load_reference_table() -> dict:
    """Versioned fixture of published two-decimal noise tolerances."""
    path = resources.files("stabwit").joinpath("data/noise_tolerance_reference.json")
    return json.loads(path.read_text())


def _write_record(record: dict, out: str, fmt: str, csv_text: str | None = None) -> None:
    """Write the record as JSON, or as the CSV text of a command that has
    one (argparse offers csv only there)."""
    path = Path(out)
    path.write_text(csv_text if fmt == "csv" else dumps(record) + "\n")
    print(f"wrote {fmt} record to {path}", file=sys.stderr)


# --- table -------------------------------------------------------------------

def cmd_table(config: RunConfig) -> int:
    lo, hi = config.n_range
    if lo < TABLE_N_RANGE[0] or hi > TABLE_N_RANGE[1]:
        raise UsageError(f"table supports n in {TABLE_N_RANGE[0]}..{TABLE_N_RANGE[1]}")
    families = _families(config.family)
    ns = list(range(lo, hi + 1))
    if config.check:
        reference = load_reference_table()
        for fam in families:
            for n in ns:
                if str(n) not in reference.get(fam, {}):
                    raise UsageError(f"no reference value for {fam} n={n}")
    reports = {fam: [noise_threshold(fam, n) for n in ns] for fam in families}

    header = "N        " + "".join(f"{n:>7d}" for n in ns)
    print(header)
    for fam in families:
        row = "".join(f"{r.p_threshold:>7.2f}" for r in reports[fam])
        print(f"{fam:<9s}{row}")

    failed = False
    if config.check:
        tolerance = reference["tolerance"]
        for fam in families:
            for n, report in zip(ns, reports[fam]):
                ref = reference[fam][str(n)]
                ok = abs(report.p_threshold - ref) <= tolerance
                failed |= not ok
                print(f"check {fam} n={n}: computed {report.p_threshold:.4f} "
                      f"reference {ref:.2f} -> {'PASS' if ok else 'FAIL'}")
        print("table check:", "FAIL" if failed else "PASS")

    if config.out:
        record = {
            "version": __version__,
            "config": config.to_dict(),
            "thresholds": [r.to_dict() for fam in families for r in reports[fam]],
        }
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["N"] + ns)
        for fam in families:
            writer.writerow([fam] + [f"{r.p_threshold:.2f}" for r in reports[fam]])
        _write_record(record, config.out, config.fmt, buf.getvalue())
    return 1 if failed else 0


# --- eval --------------------------------------------------------------------

def _claim(n: int) -> str:
    # for two qubits "genuine multipartite" is vacuous
    return "entanglement" if n == 2 else "genuine multipartite entanglement"


def cmd_eval(config: RunConfig) -> int:
    report = noise_threshold(config.family, config.n)
    value = report.line.at(config.p_noise)
    detected = value < -DETECTION_ATOL
    verdict = "detected" if detected else "not detected"
    print(f"family {config.family}, n={config.n}, p_noise={config.p_noise}")
    print(f"<W> on noisy target = {value:.12g}")
    print(f"noise threshold     = {report.p_threshold:.12g}")
    print(f"{_claim(config.n)}: {verdict}")
    if config.out:
        record = {
            "version": __version__,
            "config": config.to_dict(),
            "value": value,
            "threshold": report.to_dict(),
            "detected": detected,
            "verdict": verdict,
            "claim": _claim(config.n),
        }
        _write_record(record, config.out, config.fmt)
    return 0


# --- simulate ----------------------------------------------------------------

def _simulate_counts(config: RunConfig) -> tuple[CountsTable, CountsTable, float | None]:
    """Counts drawn from the pure target's distributions, built from its
    generators and mixed with the noise, and the exact value on the
    witness line through the pure one."""
    settings, dists, pure = stabilizer_distributions(generators_for(config.family, config.n),
                                                     config.family)
    exact = witness_line(config.family, config.n, pure).at(config.p_noise)
    counts_a, counts_b = (draw_counts(setting, mix_white_noise(dist, config.p_noise),
                                      config.shots, seed=config.seed + k)
                          for k, (setting, dist) in enumerate(zip(settings, dists)))
    return counts_a, counts_b, exact


def cmd_simulate(config: RunConfig) -> int:
    if config.ingest:
        counts_a = CountsTable.load(config.ingest[0])
        counts_b = CountsTable.load(config.ingest[1])
        exact = None
    else:
        counts_a, counts_b, exact = _simulate_counts(config)

    estimate = estimate_witness(counts_a, counts_b, config.family)
    # a negative estimate is a detection only if the bound supports it
    detected = estimate.upper_bound < 0.0
    if detected:
        verdict = "detected"
    elif estimate.estimate < -DETECTION_ATOL:
        verdict = "not detected (insufficient statistics)"
    else:
        verdict = "not detected"
    n = counts_a.setting.n
    print(f"family {config.family}, n={n}, settings "
          f"{counts_a.setting.axes}/{counts_b.setting.axes}, "
          f"shots {counts_a.shots}+{counts_b.shots}")
    print(f"estimate  = {estimate.estimate:.6f} +- {estimate.std_error:.6f}")
    print(f"bound     = {estimate.upper_bound:.6f} "
          f"(one-sided, confidence {1.0 - DETECTION_DELTA:g})")
    if exact is not None:
        print(f"exact     = {exact:.12g}")
    print(f"{_claim(n)}: {verdict}")

    if config.counts_out:
        counts_a.save(config.counts_out + "_a.json")
        counts_b.save(config.counts_out + "_b.json")
        print(f"wrote counts to {config.counts_out}_a.json and _b.json", file=sys.stderr)
    if config.out:
        record = {
            "version": __version__,
            "config": config.to_dict(),
            "estimate": estimate.estimate,
            "std_error": estimate.std_error,
            "upper_bound": estimate.upper_bound,
            "pass_freq_a": estimate.pass_freq_a,
            "pass_freq_b": estimate.pass_freq_b,
            "exact": exact,
            "detected": detected,
            "verdict": verdict,
            "counts_a": counts_a.to_dict(),
            "counts_b": counts_b.to_dict(),
        }
        _write_record(record, config.out, config.fmt)
    return 0


# --- certify -----------------------------------------------------------------

def cmd_certify(config: RunConfig) -> int:
    w = build_witness(config.family, config.n)
    if config.negate:
        w = w.negated()
    report = certify(w, restarts=config.restarts, seed=config.seed)
    print(f"family {config.family}, n={config.n}, restarts {config.restarts}, "
          f"seed {config.seed}{', negated control' if config.negate else ''}")
    for cut in report.cuts:
        carried = f"  carried from {cut.orbit_of.label}" if cut.orbit_of else ""
        print(f"  cut {cut.cut.label:<15s} min {cut.min_value:+.3e} "
              f"converged {cut.converged}{carried}")
    print(f"global minimum {report.global_min:+.3e} "
          f"(pass tolerance -{PASS_TOLERANCE:g})")
    print("certification:", "PASS" if report.passed else "FAIL")
    if config.out:
        record = {
            "version": __version__,
            "config": config.to_dict(),
            "report": report.to_dict(),
        }
        _write_record(record, config.out, config.fmt)
    return 0 if report.passed else 1


# --- argument parsing ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabwit",
        description="Two-setting stabilizer witnesses for GHZ and linear "
                    "cluster states.")
    parser.add_argument("--version", action="version", version=f"stabwit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="noise-tolerance table")
    table.add_argument("--family", choices=[*FAMILIES, "both"], default="both")
    table.add_argument("--n", default="2..10", help="qubit count N or range LO..HI")
    table.add_argument("--check", action="store_true",
                       help="compare against the shipped reference values")
    _output_args(table, ["json", "csv"])

    ev = sub.add_parser("eval", help="exact witness value on a noisy target")
    ev.add_argument("--family", choices=list(FAMILIES), required=True)
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--p-noise", type=float, default=0.0)
    _output_args(ev)

    sim = sub.add_parser("simulate", help="sample the two settings and estimate")
    sim.add_argument("--family", choices=list(FAMILIES), required=True)
    sim.add_argument("--n", type=int)
    sim.add_argument("--p-noise", type=float, help="noise fraction (default 0)")
    sim.add_argument("--shots", type=int, help=f"shots per setting (default {SIMULATE_SHOTS})")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--ingest", nargs=2, metavar=("COUNTS_A", "COUNTS_B"),
                     help="evaluate externally produced counts tables instead "
                          "of simulating")
    sim.add_argument("--counts-out", metavar="PREFIX",
                     help="write the two counts tables to PREFIX_a.json/_b.json")
    _output_args(sim)

    cert = sub.add_parser("certify", help="biseparability certification")
    cert.add_argument("--family", choices=list(FAMILIES), required=True)
    cert.add_argument("--n", type=int, required=True)
    cert.add_argument("--restarts", type=int, default=20)
    cert.add_argument("--seed", type=int)
    cert.add_argument("--negate", action="store_true",
                      help="certify the sign-flipped operator (expected FAIL)")
    _output_args(cert)
    return parser


def _output_args(sub: argparse.ArgumentParser, formats=("json",)) -> None:
    sub.add_argument("--format", dest="fmt", choices=list(formats), default="json")
    sub.add_argument("--out", help="write the machine record to this path")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _default_seed()
    common = dict(command=args.command, fmt=args.fmt, out=args.out)
    if args.command == "table":
        return RunConfig(n_range=_parse_n_range(args.n), family=args.family,
                         check=args.check, **common)
    if args.command == "eval":
        return RunConfig(family=args.family, n=args.n, p_noise=args.p_noise, **common)
    if args.command == "simulate":
        # ingested counts are read, not drawn, so nothing may configure a draw
        drawn = {"--n": args.n, "--p-noise": args.p_noise, "--shots": args.shots,
                 "--seed": args.seed}
        given = [flag for flag, value in drawn.items() if value is not None]
        if args.ingest and given:
            raise UsageError(f"{', '.join(given)} cannot be combined with --ingest")
        ingest = tuple(args.ingest) if args.ingest else None
        return RunConfig(family=args.family, n=args.n,
                         p_noise=0.0 if args.p_noise is None else args.p_noise,
                         shots=SIMULATE_SHOTS if args.shots is None else args.shots,
                         seed=seed, ingest=ingest, counts_out=args.counts_out, **common)
    if args.command == "certify":
        return RunConfig(family=args.family, n=args.n, restarts=args.restarts,
                         seed=seed, negate=args.negate, **common)
    raise UsageError(f"unknown command {args.command!r}")


def _validate(config: RunConfig) -> None:
    if config.command == "eval":
        if not 2 <= config.n <= MAX_QUBITS:
            raise UsageError(f"eval supports n in 2..{MAX_QUBITS}, got {config.n}")
        if not 0.0 <= config.p_noise <= 1.0:
            raise UsageError(f"p_noise must lie in [0, 1], got {config.p_noise}")
    elif config.command == "simulate":
        if config.ingest is None:
            if config.n is None:
                raise UsageError("simulate needs --n unless --ingest is used")
            if not 2 <= config.n <= MAX_QUBITS:
                raise UsageError(f"simulate supports n in 2..{MAX_QUBITS}, "
                                 f"got {config.n}")
            if not 0.0 <= config.p_noise <= 1.0:
                raise UsageError(f"p_noise must lie in [0, 1], got {config.p_noise}")
            if not 1 <= config.shots <= MAX_SHOTS:
                raise UsageError(f"shots must lie in 1..{MAX_SHOTS}, got {config.shots}")
            # setting B draws with seed + 1
            if not 0 <= config.seed < MAX_SEED:
                raise UsageError(f"seed must lie in 0..{MAX_SEED - 1}, got {config.seed}")
    elif config.command == "certify":
        if not 2 <= config.n <= CERTIFY_MAX_QUBITS:
            raise UsageError(f"certify supports n in 2..{CERTIFY_MAX_QUBITS}, "
                             f"got {config.n}")
        if config.restarts < 1:
            raise UsageError(f"restarts must be positive, got {config.restarts}")
        if config.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {config.seed}")


_DISPATCH = {
    "table": cmd_table,
    "eval": cmd_eval,
    "simulate": cmd_simulate,
    "certify": cmd_certify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        _validate(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[config.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StabwitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
