"""Simulation of the two local measurement settings and witness estimation.

A setting fixes one observable axis (x or z) per qubit; measuring it many
times yields counts over the 2^n coincidence outcomes, from which every
correlation among the chosen observables can be computed.  Outcome bit 0
stands for the +1 eigenvalue of the site observable, bit 1 for -1, with
qubit 1 leftmost in the outcome string.

Sampling uses the counter-based Philox4x64-10 generator keyed directly by
the caller's seed, so counts tables reproduce bit-exactly across platforms.
The counts for one setting are drawn in a single multinomial step, the
aggregate of independent per-shot draws from the outcome distribution.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError, NumericError
from .families import get_family
from .pauli import PauliString, generators_for
from .states import NoisyState, State

_SQRT1_2 = 1.0 / np.sqrt(2.0)
PROB_ATOL = 1e-12


@dataclass(frozen=True)
class MeasurementSetting:
    """One simultaneous choice of x- or z-axis per qubit."""

    n: int
    axes: str

    def __post_init__(self) -> None:
        if len(self.axes) != self.n:
            raise DimensionError(f"need {self.n} axes, got {self.axes!r}")
        if any(a not in "xz" for a in self.axes):
            raise DomainError(f"axes must be 'x' or 'z': {self.axes!r}")

    def axis_at(self, site: int) -> str:
        return self.axes[site - 1]


def _setting_generators(family: str, n: int) -> tuple[list[PauliString], list[PauliString]]:
    """The generators behind each projector, ordered by the setting (A, B)
    that measures them: setting A measures the projector holding generator 1."""
    gens = generators_for(family, n).generators
    sets = get_family(family).projector_sets(n)
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
    return MeasurementSetting(
        n, "".join("x" if (x >> (n - site)) & 1 else "z" for site in range(1, n + 1)))


def settings_for(family: str, n: int) -> tuple[MeasurementSetting, MeasurementSetting]:
    """The two settings sufficient to evaluate the family's witness.

    Each measures one projector's generators (GHZ: all-x and all-z;
    cluster: x on odd sites / z on even sites, and the complement).
    Setting A measures the projector that holds the first generator.
    """
    gens_a, gens_b = _setting_generators(family, n)
    return _setting_of(n, gens_a), _setting_of(n, gens_b)


def setting_measures(setting: MeasurementSetting, p: PauliString) -> bool:
    """True iff every non-identity letter of p matches the setting's axis."""
    if setting.n != p.n:
        raise DimensionError(f"setting on {setting.n} qubits, operator on {p.n}")
    for site in range(1, p.n + 1):
        letter = p.letter_at(site)
        if letter != "I" and letter.lower() != setting.axis_at(site):
            return False
    return True


@dataclass(frozen=True)
class CountsTable:
    """Outcome counts for one measurement setting; the experimental record."""

    setting: MeasurementSetting
    shots: int
    counts: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise DomainError(f"shots must be positive, got {self.shots}")
        total = 0
        for key, value in self.counts.items():
            if len(key) != self.setting.n or any(c not in "01" for c in key):
                raise ContractError(f"bad outcome key {key!r} for n={self.setting.n}")
            if value < 0:
                raise ContractError(f"negative count for {key!r}")
            total += value
        if total != self.shots:
            raise ContractError(f"counts sum to {total}, expected {self.shots} shots")

    def to_dict(self) -> dict:
        return {
            "setting": self.setting.axes,
            "shots": self.shots,
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
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
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CountsTable":
        try:
            d = json.loads(Path(path).read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ContractError(f"{path} is not a JSON counts table: {exc}") from None
        return cls.from_dict(d)


def _rotate_to_measurement_basis(amps: np.ndarray, n: int, axes: str) -> np.ndarray:
    """Hadamard each x-axis site, mapping its x eigenbasis onto bit values."""
    tensor = amps.reshape([2] * n)
    for axis, kind in enumerate(axes):
        if kind == "x":
            moved = np.moveaxis(tensor, axis, 0)
            tensor = np.moveaxis(
                np.stack(((moved[0] + moved[1]) * _SQRT1_2,
                          (moved[0] - moved[1]) * _SQRT1_2)),
                0, axis)
    return tensor.reshape(-1)


def outcome_distribution(state: State, setting: MeasurementSetting) -> np.ndarray:
    """Exact Born-rule probabilities over the 2^n outcomes of the setting."""
    n = state.n
    if setting.n != n:
        raise DimensionError(f"setting on {setting.n} qubits, state on {n}")
    pure = state.pure if isinstance(state, NoisyState) else state
    rotated = _rotate_to_measurement_basis(pure.amplitudes, n, setting.axes)
    probs = np.abs(rotated) ** 2
    if isinstance(state, NoisyState):
        probs = state.p_noise / probs.size + (1.0 - state.p_noise) * probs
    if abs(probs.sum() - 1.0) > PROB_ATOL:
        raise NumericError(f"probabilities sum to {probs.sum()!r}")
    return probs


def sample_outcomes(state: State, setting: MeasurementSetting,
                    shots: int, seed: int) -> CountsTable:
    """Draw i.i.d. outcomes from the setting's distribution; deterministic in seed."""
    if shots < 1:
        raise DomainError(f"shots must be positive, got {shots}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    probs = outcome_distribution(state, setting)
    rng = np.random.Generator(np.random.Philox(key=seed))
    drawn = rng.multinomial(shots, probs / probs.sum())
    n = setting.n
    counts = {format(i, f"0{n}b"): int(c) for i, c in enumerate(drawn) if c}
    return CountsTable(setting, shots, counts)


def correlation_from_counts(table: CountsTable, sites: Iterable[int]) -> float:
    """Empirical product correlation of the +-1 outcomes on the given sites."""
    chosen = sorted(set(sites))
    n = table.setting.n
    if not chosen:
        raise DomainError("need at least one site")
    if chosen[0] < 1 or chosen[-1] > n:
        raise DomainError(f"sites must lie in 1..{n}: {chosen}")
    mask = 0
    for q in chosen:
        mask |= 1 << (n - q)
    total = 0
    for key, value in table.counts.items():
        parity = (int(key, 2) & mask).bit_count() & 1
        total += -value if parity else value
    return total / table.shots


def _pass_fraction_counts(table: CountsTable, gens: Sequence[PauliString]) -> float:
    """Fraction of shots whose outcome has +1 parity on every generator's support."""
    supports = [g.support for g in gens]
    passed = 0
    for key, value in table.counts.items():
        bits = int(key, 2)
        if all((bits & m).bit_count() & 1 == 0 for m in supports):
            passed += value
    return passed / table.shots


def _pass_probability(dist: np.ndarray, gens: Sequence[PauliString]) -> float:
    idx = np.arange(dist.size, dtype=np.int64)
    ok = np.ones(dist.size, dtype=bool)
    for g in gens:
        ok &= (np.bitwise_count(idx & g.support) & 1) == 0
    return float(dist[ok].sum())


def estimate_from_distributions(dist_a: np.ndarray, dist_b: np.ndarray,
                                family: str, n: int) -> float:
    """Infinite-shot witness value 3 - 2(<P_1> + <P_2>) from exact outcome
    distributions of the two settings."""
    gens_a, gens_b = _setting_generators(family, n)
    return 3.0 - 2.0 * (_pass_probability(dist_a, gens_a)
                        + _pass_probability(dist_b, gens_b))


@dataclass(frozen=True)
class WitnessEstimate:
    """Witness estimate with its plug-in standard error."""

    estimate: float
    std_error: float
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
    """
    n = counts_a.setting.n
    if counts_b.setting.n != n:
        raise DimensionError("the two counts tables cover different qubit counts")
    gens_a, gens_b = _setting_generators(family, n)
    _check_setting(counts_a, _setting_of(n, gens_a), "A")
    _check_setting(counts_b, _setting_of(n, gens_b), "B")

    p_a = _pass_fraction_counts(counts_a, gens_a)
    p_b = _pass_fraction_counts(counts_b, gens_b)
    var_a = p_a * (1.0 - p_a) / counts_a.shots
    var_b = p_b * (1.0 - p_b) / counts_b.shots
    estimate = 3.0 - 2.0 * (p_a + p_b)
    std_error = float(np.sqrt(4.0 * var_a + 4.0 * var_b))
    return WitnessEstimate(estimate, std_error, p_a, p_b,
                           counts_a.shots, counts_b.shots)
