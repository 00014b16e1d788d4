"""Simulation of the two local measurement settings and witness estimation.

A setting fixes one observable axis (x or z) per qubit; measuring it many
times yields counts over the 2^n coincidence outcomes, from which every
correlation among the chosen observables can be computed.  Outcome bit 0
stands for the +1 eigenvalue of the site observable, bit 1 for -1, with
qubit 1 leftmost in the outcome string.

A stabilizer state's outcome distribution in a setting follows from its
generators alone: it is uniform on an affine GF(2) subspace of the
outcomes, cut out by the parities its diagonal stabilizer elements fix.
``stabilizer_distributions`` builds both settings' distributions that way,
by bit arithmetic on the generators' masks, with no statevector and no
basis rotation.  A general state's distribution (``outcome_distribution``)
is its statevector with a Hadamard butterfly applied in place at each x
site, squared.  White noise at fraction p mixes a distribution with the
uniform one, in place (``mix_white_noise``).  The target's two
distributions serve twice: ``stabilizer_distributions`` returns them with
the exact witness value they fix, which white noise moves along a line
(``witnesses.WitnessLine``), and they are mixed only where counts are
drawn from them (``draw_counts``), so a simulation builds one distribution
per setting.

Sampling uses the counter-based Philox4x64-10 generator keyed directly by
the caller's seed, so counts tables reproduce bit-exactly across platforms.
The counts for one setting are drawn in a single multinomial step, the
aggregate of independent per-shot draws from the outcome distribution, and
the drawn outcomes' keys are rendered in one pass over their bits.

The witness value of exact distributions is each setting's probability
mass on the outcomes with even parity on every generator's support.  Those
outcomes are the GF(2) null space of the supports, enumerated in ascending
order, so the mass sums the same elements in the same order as a test of
every outcome would.  The outcome parities of counts are counted by one
routine over a 0/1 outcome matrix with a column per qubit.  A counts
table's keys become that matrix in one buffer read, so no outcome is
packed into a fixed-width integer and tables of any width work; shot
counts are summed as Python integers, so estimates are exact ratios of
the counted shots.  An estimate carries a one-sided Hoeffding bound that
the true value stays below except with probability ``DETECTION_DELTA``;
only a bound below zero supports a detection.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError, NumericError
from .families import get_family
from .jsontext import dumps
from .pauli import GeneratorSet, PauliString, gf2_reduce
from .states import NoisyState, State

_SQRT1_2 = 1.0 / np.sqrt(2.0)
# per-slot factors of the butterfly on a (low, high) pair axis
_BUTTERFLY_SIGNS = np.array([[1.0], [-1.0]])
_BUTTERFLY_SCALES = np.array([[_SQRT1_2], [-_SQRT1_2]])
PROB_ATOL = 1e-12
# the chance that a witness estimate's upper bound lies below the true value
DETECTION_DELTA = 1e-3
# numpy's multinomial counts shots in a C long; Philox takes a 128-bit key
MAX_SHOTS = (1 << 63) - 1
MAX_SEED = (1 << 128) - 1
_AXIS_OF_X_BIT = str.maketrans("10", "xz")
_X_BIT_OF_AXIS = str.maketrans("xz", "10")


@dataclass(frozen=True)
class MeasurementSetting:
    """One simultaneous choice of x- or z-axis per qubit."""

    n: int
    axes: str

    def __post_init__(self) -> None:
        if len(self.axes) != self.n:
            raise DimensionError(f"need {self.n} axes, got {self.axes!r}")
        if not set(self.axes) <= {"x", "z"}:
            raise DomainError(f"axes must be 'x' or 'z': {self.axes!r}")


def _setting_generators(family: str, n: int) -> tuple[list[PauliString], list[PauliString]]:
    """The generators behind each projector, ordered by the setting (A, B)
    that measures them: setting A measures the projector holding generator 1."""
    record = get_family(family)
    gens = record.generators(n).generators
    sets = record.projector_sets(n)
    if 1 not in sets[0]:
        sets = sets[::-1]
    return tuple([gens[k - 1] for k in indices] for indices in sets)


def _setting_of(n: int, gens: Sequence[PauliString]) -> MeasurementSetting:
    """The local setting measuring every given generator: at each site, the
    axis of the letter the generators carry there."""
    x = z = 0
    for g in gens:
        x |= g.x_bits
        z |= g.z_bits
    if x & z or x | z != (1 << n) - 1:
        raise DomainError("the generators do not fix one x or z axis per site")
    return MeasurementSetting(n, format(x, f"0{n}b").translate(_AXIS_OF_X_BIT))


def settings_for(family: str, n: int) -> tuple[MeasurementSetting, MeasurementSetting]:
    """The two settings sufficient to evaluate the family's witness.

    Each measures one projector's generators (GHZ: all-x and all-z;
    cluster: x on odd sites / z on even sites, and the complement).
    Setting A measures the projector that holds the first generator.
    """
    gens_a, gens_b = _setting_generators(family, n)
    return _setting_of(n, gens_a), _setting_of(n, gens_b)


@dataclass(frozen=True)
class CountsTable:
    """Outcome counts for one measurement setting; the experimental record."""

    setting: MeasurementSetting
    shots: int
    counts: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise DomainError(f"shots must be positive, got {self.shots}")
        keys, values = self.counts.keys(), self.counts.values()
        # every key one byte string of 0/1 of the right length; a
        # non-ASCII character becomes "?" and so fails the same test
        well_formed = (set(map(len, keys)) <= {self.setting.n}
                       and not "".join(keys).encode("ascii", "replace").translate(None, b"01")
                       and (not values or min(values) >= 0))
        if not well_formed:
            self._raise_on_first_bad_entry()
        total = sum(values)
        if total != self.shots:
            raise ContractError(f"counts sum to {total}, expected {self.shots} shots")

    def _raise_on_first_bad_entry(self) -> None:
        for key, value in self.counts.items():
            if len(key) != self.setting.n or key.strip("01"):
                raise ContractError(f"bad outcome key {key!r} for n={self.setting.n}")
            if value < 0:
                raise ContractError(f"negative count for {key!r}")

    @cached_property
    def _sorted_counts(self) -> dict[str, int]:
        """The counts in key order, built once per table and shared by every
        ``to_dict``, so a table written to a file and into a record is
        sorted once."""
        counts = self.counts
        return {k: int(counts[k]) for k in sorted(counts)}

    def to_dict(self) -> dict:
        return {
            "setting": self.setting.axes,
            "shots": self.shots,
            "counts": self._sorted_counts,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "CountsTable":
        """Build from the JSON form; shots and counts must be JSON integers,
        never booleans, floats or strings."""
        if not isinstance(d, Mapping):
            raise ContractError(f"counts table must be a JSON object, got {type(d).__name__}")
        missing = [key for key in ("setting", "shots", "counts") if key not in d]
        if missing:
            raise ContractError(f"counts table lacks {', '.join(map(repr, missing))}")
        axes, shots, raw = d["setting"], d["shots"], d["counts"]
        if not isinstance(axes, str):
            raise ContractError(f"setting must be a string, got {axes!r}")
        if type(shots) is not int:
            raise ContractError(f"shots must be an integer, got {shots!r}")
        if not isinstance(raw, Mapping):
            raise ContractError(f"counts must be a JSON object, got {type(raw).__name__}")
        counts = {k: v for k, v in raw.items() if type(k) is str and type(v) is int}
        if len(counts) != len(raw):
            key, value = next((k, v) for k, v in raw.items() if k not in counts)
            raise ContractError(f"counts must map outcome strings to integers, "
                                f"got {key!r}: {value!r}")
        return cls(MeasurementSetting(len(axes), axes), shots, counts)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CountsTable":
        try:
            d = json.loads(Path(path).read_text())
        # ValueError covers bad JSON, bad UTF-8 and integers past Python's
        # digit limit; RecursionError, nesting deeper than the parser allows
        except (ValueError, RecursionError) as exc:
            raise ContractError(f"{path} is not a JSON counts table: {exc}") from None
        return cls.from_dict(d)


def _rotate_to_measurement_basis(amps: np.ndarray, n: int, axes: str) -> np.ndarray:
    """Hadamard each x-axis site, mapping its x eigenbasis onto bit values:
    one in-place butterfly per x site on a single copy of the amplitudes.

    The butterfly adds the pair (b, -a) to (a, b) and scales by (s, -s),
    s = 1/sqrt(2), which rounds exactly as ((a + b) s, (a - b) s) does:
    negation is exact, and b - a = -(a - b) in floating point.
    """
    rotated = amps.copy()
    for site, kind in enumerate(axes):
        if kind == "x":
            pair = rotated.reshape(1 << site, 2, -1)
            swapped = pair[:, ::-1] * _BUTTERFLY_SIGNS
            pair += swapped
            pair *= _BUTTERFLY_SCALES
    return rotated


def outcome_distribution(state: State, setting: MeasurementSetting) -> np.ndarray:
    """Exact Born-rule probabilities over the 2^n outcomes of the setting."""
    n = state.n
    if setting.n != n:
        raise DimensionError(f"setting on {setting.n} qubits, state on {n}")
    pure = state.pure if isinstance(state, NoisyState) else state
    probs = np.abs(_rotate_to_measurement_basis(pure.amplitudes, n, setting.axes))
    np.square(probs, out=probs)
    if isinstance(state, NoisyState):
        mix_white_noise(probs, state.p_noise)
    if abs(probs.sum() - 1.0) > PROB_ATOL:
        raise NumericError(f"probabilities sum to {probs.sum()!r}")
    return probs


def mix_white_noise(probs: np.ndarray, p_noise: float) -> np.ndarray:
    """Mix a distribution over the 2^n outcomes in place with the uniform
    one, as white noise at fraction p mixes the state; returns ``probs``."""
    probs *= 1.0 - p_noise
    probs += p_noise / probs.size
    return probs


def draw_counts(setting: MeasurementSetting, probs: np.ndarray,
                shots: int, seed: int) -> CountsTable:
    """Draw i.i.d. outcomes from the setting's exact distribution; deterministic
    in seed.  Every drawn key is rendered in one pass over the outcome bits."""
    if not 1 <= shots <= MAX_SHOTS:
        raise DomainError(f"shots must lie in 1..{MAX_SHOTS}, got {shots}")
    if not 0 <= seed <= MAX_SEED:
        raise DomainError(f"seed must lie in 0..{MAX_SEED}, got {seed}")
    n = setting.n
    if np.shape(probs) != (1 << n,):
        raise DimensionError(f"need {1 << n} probabilities for n={n}, "
                             f"got shape {np.shape(probs)}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    drawn = rng.multinomial(shots, probs / probs.sum())
    seen = np.flatnonzero(drawn)
    codes = seen.astype(">u4").view(np.uint8).reshape(-1, 4)
    text = (np.unpackbits(codes, axis=1)[:, 32 - n:] + ord("0")).tobytes().decode("ascii")
    keys = [text[i:i + n] for i in range(0, len(text), n)]
    return CountsTable(setting, shots, dict(zip(keys, drawn[seen].tolist())))


def sample_outcomes(state: State, setting: MeasurementSetting,
                    shots: int, seed: int) -> CountsTable:
    """Draw i.i.d. outcomes from the setting's distribution; deterministic in seed."""
    return draw_counts(setting, outcome_distribution(state, setting), shots, seed)


def _even_parity(outcomes: np.ndarray, supports: Sequence[Sequence[int]]) -> np.ndarray:
    """For each row of a 0/1 outcome matrix (one column per qubit, qubit 1
    first): True iff the row has even parity on every support, given as
    0-based columns."""
    odd = np.zeros(len(outcomes), dtype=bool)
    for columns in supports:
        odd |= (outcomes[:, columns].sum(axis=1) & 1).astype(bool)
    return ~odd


def _even_shots(table: CountsTable, supports: Sequence[Sequence[int]]) -> int:
    """Shots whose outcome has even parity on every support.  The keys are
    read as one byte matrix, so no outcome becomes a fixed-width integer
    and any qubit count works; the sum stays in Python integers."""
    raw = np.frombuffer("".join(table.counts).encode("ascii"), dtype=np.uint8)
    even = _even_parity((raw - ord("0")).reshape(-1, table.setting.n), supports)
    return sum(compress(table.counts.values(), even.tolist()))


def _support_columns(gens: Sequence[PauliString]) -> list[list[int]]:
    return [[q - 1 for q in range(1, g.n + 1) if g.letter_at(q) != "I"] for g in gens]


def _span(basis: Sequence[int], offset: int = 0) -> np.ndarray:
    """``offset`` XOR every sum of the basis vectors, listed with the later
    vectors as the more significant choices.  The lower and upper halves of
    the basis are spanned in Python and combined by one outer XOR."""
    low, high = [offset], [0]
    for vector in basis[:len(basis) // 2]:
        low += [x ^ vector for x in low]
    for vector in basis[len(basis) // 2:]:
        high += [x ^ vector for x in high]
    return np.bitwise_xor.outer(high, low).ravel()


def _even_outcomes(n: int, masks: Iterable[int]) -> np.ndarray:
    """The outcomes, ascending, with even parity on every bitmask (qubit 1 =
    most significant bit): the GF(2) null space of the masks.

    The masks are reduced so that each row's lowest set bit is its pivot
    and appears in no other row (``gf2_reduce``).  The null-space vector of
    a free bit f is f plus the pivots of the rows holding f, all below f,
    so the basis vectors have distinct leading bits that no other one sets,
    and their span, listed with the later vectors as the more significant
    choices, is ascending.
    """
    rows = gf2_reduce(masks)
    free = ((1 << n) - 1) ^ sum(rows)
    vectors = {1 << f: 1 << f for f in range(n) if free >> f & 1}
    for pivot, row in rows.items():
        held = row & free
        while held:
            vectors[held & -held] |= pivot
            held &= held - 1
    return _span(list(vectors.values()))


def _witness_value(dist_a: np.ndarray, dist_b: np.ndarray, n: int,
                   gens: tuple[Sequence[PauliString], Sequence[PauliString]]) -> float:
    """3 - 2(<P_1> + <P_2>), each projector's expectation being its
    setting's probability mass on the outcomes with even parity on every
    generator's support."""
    masses = []
    for dist, setting_gens in zip((dist_a, dist_b), gens):
        masses.append(float(dist[_even_outcomes(n, [g.support for g in setting_gens])].sum()))
    return 3.0 - 2.0 * (masses[0] + masses[1])


def _stabilizer_distribution(gens: GeneratorSet, setting: MeasurementSetting) -> np.ndarray:
    """Born distribution of the generators' joint +1 eigenstate in the
    setting: uniform on an affine GF(2) subspace of the outcomes.

    A product of generators is diagonal in the setting when its off-axis
    bits (z bits on x sites, x bits on z sites) cancel; its support is
    then the XOR of the generators' on-axis bits.  Each generator's row
    holds its off-axis bits, its on-axis bits above them and its index bit
    above both, so the reduced rows with no off-axis bit left select a
    basis of the diagonal products, with their supports reduced.  A
    diagonal product with sign -1 asks for odd parity on its support, +1
    for even; setting the support pivots of the odd ones meets every
    parity.  The other rows' off-axis bits span the outcomes' differences
    (Dehaene & De Moor, PRA 68, 042318 (2003)), so r diagonal products
    leave 2^(n-r) outcomes of probability 2^-(n-r) each, an exact dyadic.
    """
    n = gens.n
    top = 1 << n
    x_sites = int(setting.axes.translate(_X_BIT_OF_AXIS), 2)
    z_sites = x_sites ^ (top - 1)
    generators = gens.generators
    rows = gf2_reduce([g.z_bits & x_sites | g.x_bits & z_sites
                       | (g.x_bits & x_sites | g.z_bits & z_sites) << n
                       | 1 << (2 * n + k) for k, g in enumerate(generators)])
    differences, offset = [], 0
    for pivot, row in rows.items():
        if pivot < top:
            differences.append(row & (top - 1))
            continue
        # the product's phase exponent as PauliString.__mul__ accumulates it
        z = exp = 0
        picks = row >> 2 * n
        while picks:
            g = generators[(picks & -picks).bit_length() - 1]
            exp += g.phase_exp + 2 * (z & g.x_bits).bit_count()
            z ^= g.z_bits
            picks &= picks - 1
        if exp & 1:
            raise NumericError("a diagonal stabilizer element has an imaginary phase")
        if exp & 2:
            if pivot >> n >= top:
                raise NumericError("the generators fix inconsistent outcome parities")
            offset |= pivot >> n
    outcomes = _span(differences, offset)
    probs = np.zeros(top)
    probs[outcomes] = 1.0 / outcomes.size
    return probs


def stabilizer_distributions(gens: GeneratorSet, family: str) -> tuple[
        tuple[MeasurementSetting, MeasurementSetting], tuple[np.ndarray, np.ndarray], float]:
    """The family's two settings, the Born distributions of the generators'
    joint +1 eigenstate in each, and the exact witness value those
    distributions fix; no statevector is built.  The generators need not
    be the family's: any stabilizer state can be measured in its settings."""
    n = gens.n
    setting_gens = _setting_generators(family, n)
    settings = _setting_of(n, setting_gens[0]), _setting_of(n, setting_gens[1])
    dists = (_stabilizer_distribution(gens, settings[0]),
             _stabilizer_distribution(gens, settings[1]))
    return settings, dists, _witness_value(*dists, n, setting_gens)


@dataclass(frozen=True)
class WitnessEstimate:
    """Witness estimate with its plug-in standard error and a one-sided
    upper confidence bound on the true value."""

    estimate: float
    std_error: float
    upper_bound: float
    pass_freq_a: float
    pass_freq_b: float
    shots_a: int
    shots_b: int


def _check_setting(table: CountsTable, expected: MeasurementSetting, label: str) -> None:
    if table.setting != expected:
        raise ContractError(
            f"counts for setting {label} use axes {table.setting.axes!r}, "
            f"expected {expected.axes!r}")


def estimate_witness(counts_a: CountsTable, counts_b: CountsTable,
                     family: str) -> WitnessEstimate:
    """Unbiased witness estimate from the two settings' counts.

    Each projector expectation is the empirical frequency of outcomes whose
    selected stabilizer parities are all +1 in its own setting; the witness
    estimate is 3 - 2(P_1 + P_2).  The two settings are independent
    experiments, so the standard error is sqrt(4 var(P_1) + 4 var(P_2))
    with plug-in binomial variances.

    The plug-in error is 0 whenever both frequencies are 0 or 1, so it
    cannot support a verdict.  Each of the N_a + N_b independent shots
    moves the estimate by at most 2/N of its setting, so by Hoeffding's
    inequality the true value exceeds

        estimate + 2 sqrt(ln(1/delta) (1/N_a + 1/N_b) / 2)

    with probability at most delta = ``DETECTION_DELTA``; that is the
    estimate's ``upper_bound``.
    """
    n = counts_a.setting.n
    if counts_b.setting.n != n:
        raise DimensionError("the two counts tables cover different qubit counts")
    gens_a, gens_b = _setting_generators(family, n)
    _check_setting(counts_a, _setting_of(n, gens_a), "A")
    _check_setting(counts_b, _setting_of(n, gens_b), "B")

    p_a = _even_shots(counts_a, _support_columns(gens_a)) / counts_a.shots
    p_b = _even_shots(counts_b, _support_columns(gens_b)) / counts_b.shots
    var_a = p_a * (1.0 - p_a) / counts_a.shots
    var_b = p_b * (1.0 - p_b) / counts_b.shots
    estimate = 3.0 - 2.0 * (p_a + p_b)
    std_error = float(np.sqrt(4.0 * var_a + 4.0 * var_b))
    upper_bound = estimate + 2.0 * float(np.sqrt(
        np.log(1.0 / DETECTION_DELTA) * (1.0 / counts_a.shots + 1.0 / counts_b.shots) / 2.0))
    return WitnessEstimate(estimate, std_error, upper_bound, p_a, p_b,
                           counts_a.shots, counts_b.shots)
