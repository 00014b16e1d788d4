"""Op lists, warm-up ops and output checks for the three workloads.

A workload runs in rounds.  Every round runs the same cells once each, in
a seeded order.  A cell fixes every parameter that sets an op's cost:
command, family, qubit count, shots, noise fraction for sampled ops,
qubit range, restarts.  The seed picks the parameters that do not: the
noise fraction of ``eval`` ops, the op seeds of ``simulate`` and
``certify``, the counts tables read by ``--ingest`` ops, and the order.
Timing each cell several times lets run.py take per-cell medians, which
keeps the metrics steady on a shared machine.

Each op is one ``stabwit`` command line.  Its output files go to a scratch
directory and are checked, outside the timed interval, against closed
forms computed here independently of the package, and against the shipped
JSON schemas.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

FAMILIES = ("ghz", "cluster")

# workload -> (main command, aux command); the aux ops are 30 % (exact),
# 33 % (sample) and 20 % (certify) of each round
KINDS = {
    "exact": ("eval", "table"),
    "sample": ("simulate", "ingest"),
    "certify": ("certify", "control"),
}

EVAL_NS = range(2, 21)
# (lo, hi) ranges; --check only where the reference fixture reaches.  An
# odd number of cells puts the median inside one cell.
TABLE_RANGES = ((3, 5), (2, 7), (5, 9), (2, 10), (8, 12), (11, 14), (2, 16))
TABLE_CELLS = (tuple(("ghz",) + r for r in ((2, 3),) + TABLE_RANGES)
               + tuple(("cluster",) + r for r in TABLE_RANGES))
REFERENCE_MAX_N = 10
SIM_NS = range(8, 21)
SHOTS = (100_000, 10_000)
# noise fractions of sampled ops; the plug-in standard error collapses to
# 0 for a noise fraction between 0 and about 1/shots, where the 6-sigma
# check below cannot hold (NOTES.md, known behaviours)
SIM_P_GRID = tuple(k / 20 for k in range(9))
CERTIFY_NS = (3, 4, 5)
CERTIFY_RESTARTS = (5, 20)
CERTIFY_COPIES = 2
CONTROL_NS = (2, 3, 4)
CONTROL_RESTARTS = 5

EVAL_ATOL = 1e-12
THRESHOLD_ATOL = 1e-9
SIGMAS = 6.0


@dataclass
class Op:
    """One command line plus what its check needs to know."""

    kind: str
    cell: str
    argv: list[str]
    params: dict
    outputs: list[Path] = field(default_factory=list)
    inputs: list[Path] = field(default_factory=list)


def simulate_cell(f: int, n: int) -> tuple[str, int, int, float]:
    """(family, n, shots, p) of a simulate cell; shots and p vary with n."""
    return FAMILIES[f], n, SHOTS[(n + f) % 2], SIM_P_GRID[(2 * n + 5 * f) % 9]


def ingest_cell(n: int) -> tuple[str, int, int, float]:
    """(family, n, shots, p) of the counts tables an ingest cell reads."""
    return FAMILIES[n % 2], n, SHOTS[(n // 2) % 2], SIM_P_GRID[(2 * n + 3) % 9]


def projector_fractions(family: str, n: int) -> float:
    """(tr P1 + tr P2) / 2^n from the number of generators in each projector."""
    a, b = (1, n - 1) if family == "ghz" else (n // 2, (n + 1) // 2)
    return 2.0 ** -a + 2.0 ** -b


def exact_value(family: str, n: int, p: float) -> float:
    """<W> on the family target mixed with white noise at fraction p."""
    return p * (3.0 - 2.0 * projector_fractions(family, n)) - (1.0 - p)


def closed_threshold(family: str, n: int) -> float:
    """Root of exact_value in p."""
    return 1.0 / (4.0 - 2.0 * projector_fractions(family, n))


# --- op construction ---------------------------------------------------------

class OpFactory:
    """Builds ops whose files live in one scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.serial = 0

    def new_path(self, stem: str) -> Path:
        self.serial += 1
        return self.work / f"{stem}{self.serial}.json"

    def table(self, family: str, lo: int, hi: int) -> Op:
        out = self.new_path("table")
        argv = ["table", "--family", family, "--n", f"{lo}..{hi}", "--out", str(out)]
        check = hi <= REFERENCE_MAX_N
        if check:
            argv.append("--check")
        return Op("table", f"table {family} {lo}..{hi}", argv,
                  dict(family=family, lo=lo, hi=hi, check=check), [out])

    def eval(self, family: str, n: int, p: float) -> Op:
        out = self.new_path("eval")
        argv = ["eval", "--family", family, "--n", str(n), "--p-noise", repr(p),
                "--out", str(out)]
        return Op("eval", f"eval {family} {n}", argv, dict(family=family, n=n, p=p), [out])

    def simulate(self, family: str, n: int, shots: int, p: float, seed: int) -> Op:
        out = self.new_path("sim")
        prefix = str(out)[:-len(".json")] + "_counts"
        argv = ["simulate", "--family", family, "--n", str(n), "--shots", str(shots),
                "--p-noise", repr(p), "--seed", str(seed), "--out", str(out),
                "--counts-out", prefix]
        files = [out, Path(prefix + "_a.json"), Path(prefix + "_b.json")]
        return Op("simulate", f"simulate {family} {n} {shots} {p}", argv,
                  dict(family=family, n=n, shots=shots, p=p), files)

    def ingest(self, family: str, counts_a: Path, counts_b: Path) -> Op:
        out = self.new_path("ingest")
        argv = ["simulate", "--family", family, "--ingest", str(counts_a),
                str(counts_b), "--out", str(out)]
        return Op("ingest", f"ingest {counts_a.name}", argv, dict(family=family),
                  [out], [counts_a, counts_b])

    def certify(self, family: str, n: int, restarts: int, seed: int,
                negate: bool = False, copy: int = 0) -> Op:
        out = self.new_path("cert")
        argv = ["certify", "--family", family, "--n", str(n), "--restarts",
                str(restarts), "--seed", str(seed), "--out", str(out)]
        if negate:
            argv.append("--negate")
        kind = "control" if negate else "certify"
        return Op(kind, f"{kind} {family} {n} {restarts} {copy}", argv,
                  dict(family=family, n=n), [out])


def write_counts_inputs(sw, factory: OpFactory, family: str, n: int, shots: int,
                        p: float, seed: int) -> tuple[Path, Path]:
    """Counts tables for an ingest op, drawn in-process with sample_outcomes."""
    state = sw.white_noise_mix(p, sw.target_state(family, n))
    paths = []
    for k, setting in enumerate(sw.settings_for(family, n)):
        path = factory.new_path(f"in{'ab'[k]}")
        sw.sample_outcomes(state, setting, shots, seed=seed + k).save(path)
        paths.append(path)
    return paths[0], paths[1]


def make_inputs(sw, workload: str, factory: OpFactory,
                rng: random.Random) -> dict[int, tuple[Path, Path]]:
    """Counts tables for the ingest cells, written once per run during
    set-up and read again in every round."""
    if workload != "sample":
        return {}
    return {n: write_counts_inputs(sw, factory, *ingest_cell(n), rng.randrange(1 << 30))
            for n in SIM_NS}


def round_ops(workload: str, factory: OpFactory, rng: random.Random,
              inputs: dict[int, tuple[Path, Path]]) -> list[Op]:
    """One op per cell of the workload, in seeded order."""
    ops: list[Op] = []
    if workload == "exact":
        for family in FAMILIES:
            ops += [factory.eval(family, n, rng.uniform(0.0, 1.0)) for n in EVAL_NS]
        ops += [factory.table(*cell) for cell in TABLE_CELLS]
    elif workload == "sample":
        ops += [factory.simulate(*simulate_cell(f, n), rng.randrange(1 << 30))
                for f in range(len(FAMILIES)) for n in SIM_NS]
        ops += [factory.ingest(ingest_cell(n)[0], *inputs[n]) for n in SIM_NS]
    elif workload == "certify":
        for family in FAMILIES:
            ops += [factory.certify(family, n, restarts, rng.randrange(1 << 30), copy=c)
                    for n in CERTIFY_NS for restarts in CERTIFY_RESTARTS
                    for c in range(CERTIFY_COPIES)]
            ops += [factory.certify(family, n, CONTROL_RESTARTS, rng.randrange(1 << 30),
                                    negate=True) for n in CONTROL_NS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def warmup_ops(sw, workload: str, factory: OpFactory) -> list[Op]:
    """One small fixed op of each command kind of the workload."""
    if workload == "exact":
        return [factory.eval("ghz", 4, 0.1), factory.table("both", 2, 4)]
    if workload == "sample":
        a, b = write_counts_inputs(sw, factory, "cluster", 8, 10_000, 0.1, 1)
        return [factory.simulate("cluster", 8, 10_000, 0.1, 1),
                factory.ingest("cluster", a, b)]
    if workload == "certify":
        return [factory.certify("ghz", 3, 5, 1),
                factory.certify("ghz", 2, 5, 1, negate=True)]
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks -----------------------------------------------------------

def _pattern_properties_once_per_value(validator, patterns, instance, schema):
    """jsonschema's patternProperties, validating each distinct value once
    per pattern.  Whether a value meets the subschema does not depend on
    its key, so the verdict is unchanged; a counts table has up to 10^5
    keys but few distinct counts."""
    if not validator.is_type(instance, "object"):
        return
    for pattern, subschema in patterns.items():
        regex = re.compile(pattern)
        seen = set()
        for key, value in instance.items():
            tag = (type(value), repr(value))
            if tag in seen or not regex.search(key):
                continue
            seen.add(tag)
            yield from validator.descend(value, subschema, path=key,
                                         schema_path=pattern)


class Checker:
    """Validates one op's exit code, stdout and files; returns an error
    message or None."""

    def __init__(self, sw, schema_dir: Path):
        import jsonschema

        self.sw = sw
        self.validators = {}
        for path in sorted(schema_dir.glob("*.schema.json")):
            schema = json.loads(path.read_text())
            cls = jsonschema.validators.extend(
                jsonschema.validators.validator_for(schema),
                {"patternProperties": _pattern_properties_once_per_value})
            self.validators[path.name.split(".")[0]] = cls(schema)

    def _valid(self, name: str, obj) -> str | None:
        error = next(iter(self.validators[name].iter_errors(obj)), None)
        return None if error is None else f"{name} schema: {error.message[:200]}"

    def check(self, op: Op, rc: int, stdout: str) -> str | None:
        try:
            return getattr(self, "_check_" + op.kind)(op, rc, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def _check_table(self, op, rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        prm = op.params
        if prm["check"] and "table check: PASS" not in stdout:
            return "table --check did not print PASS"
        families = FAMILIES if prm["family"] == "both" else (prm["family"],)
        rows = json.loads(op.outputs[0].read_text())["thresholds"]
        expect = [(f, n) for f in families for n in range(prm["lo"], prm["hi"] + 1)]
        if [(row["family"], row["n"]) for row in rows] != expect:
            return "threshold rows do not cover the requested range"
        for row in rows:
            closed = closed_threshold(row["family"], row["n"])
            for key in ("p_threshold", "p_closed_form", "p_root_find"):
                if abs(row[key] - closed) > THRESHOLD_ATOL:
                    return f"{key} {row[key]!r} != closed form {closed!r}"
            if (err := self._valid("threshold_report", row)):
                return err
        return None

    def _check_eval(self, op, rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        prm = op.params
        record = json.loads(op.outputs[0].read_text())
        want = exact_value(prm["family"], prm["n"], prm["p"])
        if abs(record["value"] - want) > EVAL_ATOL:
            return f"value {record['value']!r} != {want!r}"
        closed = closed_threshold(prm["family"], prm["n"])
        if abs(record["threshold"]["p_threshold"] - closed) > THRESHOLD_ATOL:
            return "threshold does not match the closed form"
        return self._valid("threshold_report", record["threshold"])

    def _check_simulate(self, op, rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        prm = op.params
        record_path, counts_a, counts_b = op.outputs
        record = json.loads(record_path.read_text())
        want = exact_value(prm["family"], prm["n"], prm["p"])
        if abs(record["exact"] - want) > EVAL_ATOL:
            return f"exact {record['exact']!r} != {want!r}"
        for label, path in (("a", counts_a), ("b", counts_b)):
            table = record["counts_" + label]
            if (err := self._valid("counts_table", table)):
                return err
            if json.loads(path.read_text()) != table:
                return f"counts file {label} differs from the record"
            if table["shots"] != prm["shots"] or sum(table["counts"].values()) != prm["shots"]:
                return f"counts {label} do not sum to {prm['shots']} shots"
        if abs(record["estimate"] - want) > SIGMAS * record["std_error"] + EVAL_ATOL:
            return (f"estimate {record['estimate']!r} is more than {SIGMAS:g} SE "
                    f"({record['std_error']!r}) from {want!r}")
        return None

    def _check_ingest(self, op, rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        sw = self.sw
        record = json.loads(op.outputs[0].read_text())
        tables = [sw.CountsTable.load(path) for path in op.inputs]
        want = sw.estimate_witness(tables[0], tables[1], op.params["family"])
        if (record["estimate"], record["std_error"]) != (want.estimate, want.std_error):
            return "ingest estimate differs from the in-process estimate_witness"
        for label, path in zip("ab", op.inputs):
            table = record["counts_" + label]
            if (err := self._valid("counts_table", table)):
                return err
            if json.loads(path.read_text()) != table:
                return f"record counts {label} differ from the ingested file"
        return None

    def _check_certify(self, op, rc, stdout):
        return self._check_cert(op, rc, stdout, 0, "PASS")

    def _check_control(self, op, rc, stdout):
        return self._check_cert(op, rc, stdout, 1, "FAIL")

    def _check_cert(self, op, rc, stdout, want_rc, verdict):
        if rc != want_rc:
            return f"exit {rc}, expected {want_rc}"
        if f"certification: {verdict}" not in stdout:
            return f"certification did not print {verdict}"
        report = json.loads(op.outputs[0].read_text())["report"]
        if report["passed"] != (verdict == "PASS"):
            return "record verdict disagrees with stdout"
        return self._valid("bisep_report", report)
