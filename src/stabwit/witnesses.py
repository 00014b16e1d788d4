"""Two-setting entanglement witnesses built from stabilizer projectors.

Every family shares the shape

    W = 3*1 - 2*(P_1 + P_2)

where P_1 and P_2 project onto the +1 eigenspaces of two commuting subsets
of the stabilizer generators, as listed in the family's record in
``stabwit.families``: {S_1} and {S_2..S_n} for the GHZ family, the even-k
and odd-k chain generators for the cluster family.  Expanding each
projector as 2^-m * sum over generator subsets gives an explicit Pauli
decomposition whose every term is measurable within one of two local
settings.  A negative expectation value certifies entanglement; the value
on the target state itself is -1.

Exact values never expand W.  Each projector's generators are measured by
one local setting, so its expectation is the probability mass of that
setting's exact outcome distribution on the outcomes with even parity on
every generator's support.  W's expectation is linear in the state, so on
the target mixed with white noise at fraction p it is the line

    <W>(p) = p * tr(W)/2^n + (1 - p) * <W>_0,

where <W>_0 is the value on the pure target, read off the two settings'
Born distributions on the pure target, the ones ``simulate`` mixes and
samples from.  Those distributions are built from the target's stabilizer
generators (``measurement.stabilizer_distributions``), not from its
statevector, so they are exact dyadics and <W>_0 is exactly -1.  A
projector onto the joint +1 eigenspace of m independent generators has
trace 2^(n-m), which gives tr(W)/2^n.  ``noise_threshold``
builds the line once and its report carries it, so a command that needs
both a noisy value and the threshold builds one pair of distributions.

The noise tolerance is the largest white-noise fraction at which the
expectation on the noisy target is still negative: the root of that line.
It has the closed forms (stored in the family records)

    ghz:      1 / (3 - 4/2^n)
    cluster:  1 / (4 - 2*(2^-floor(n/2) + 2^-ceil(n/2)))

which are cross-checked here against a numerical root find on the line.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from scipy.optimize import brentq

from .errors import DomainError, NumericError
from .families import FAMILIES, get_family
from .measurement import stabilizer_distributions
from .pauli import GeneratorSet, PauliString, generators_for, subgroup_product
from .states import StateVector

THRESHOLD_AGREEMENT_ATOL = 1e-9


@dataclass(frozen=True)
class Witness:
    """Real linear combination of phase-free Pauli strings, plus metadata."""

    n: int
    family: str
    terms: Mapping[PauliString, float]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        for term in self.terms:
            if term.n != self.n:
                raise DomainError("term qubit count differs from witness")
            if term.phase != 1:
                raise DomainError(f"term {term} must carry phase +1; fold signs "
                                  "into the coefficient")

    def negated(self) -> "Witness":
        """Sign-flipped operator; used as a should-fail certification control."""
        return Witness(self.n, self.family, {t: -c for t, c in self.terms.items()})


def _add_term(terms: dict[PauliString, float], p: PauliString, coeff: float) -> None:
    """Accumulate coeff * p with the sign folded so the stored key has phase +1."""
    phase = p.phase
    if phase == -1:
        p = PauliString(p.n, p.x_bits, p.z_bits, (p.phase_exp + 2) % 4)
        coeff = -coeff
    elif phase != 1:
        raise NumericError(f"imaginary-phase term {p} in a Hermitian expansion")
    terms[p] = terms.get(p, 0.0) + coeff


def _expand_projector(terms: dict[PauliString, float], gens: GeneratorSet,
                      indices: Sequence[int], weight: float) -> None:
    """Add weight * prod_{k in indices} (1 + S_k)/2 expanded over subsets."""
    scale = weight / (1 << len(indices))
    for picks in range(1 << len(indices)):
        mask = 0
        for j, k in enumerate(indices):
            if (picks >> j) & 1:
                mask |= 1 << (k - 1)
        _add_term(terms, subgroup_product(gens, mask), scale)


def build_witness(family: str, n: int) -> Witness:
    """3*1 - 2*(P_1 + P_2) with both projectors expanded into Pauli terms."""
    gens = generators_for(family, n)
    first, second = get_family(family).projector_sets(n)
    terms: dict[PauliString, float] = {PauliString.identity(n): 3.0}
    _expand_projector(terms, gens, first, -2.0)
    _expand_projector(terms, gens, second, -2.0)
    return Witness(n, family, terms)


def target_state(family: str, n: int) -> StateVector:
    """The pure state the family's witness is built around, as a dense
    statevector; the exact values never need it."""
    return get_family(family).target(n)


@dataclass(frozen=True)
class WitnessLine:
    """<W> on the family target mixed with white noise at fraction p,
    which is affine in p: p * identity + (1 - p) * pure."""

    n: int
    trace_p1: float
    trace_p2: float
    pure: float

    @property
    def identity(self) -> float:
        """<W> on the maximally mixed state, 3 - 2(tr P_1 + tr P_2)/2^n."""
        return 3.0 - 2.0 * (self.trace_p1 + self.trace_p2) / float(1 << self.n)

    def at(self, p_noise: float) -> float:
        """<W> at noise fraction p."""
        return p_noise * self.identity + (1.0 - p_noise) * self.pure


def witness_line(family: str, n: int, pure: float) -> WitnessLine:
    """The family's line through ``pure``, the value on the pure target."""
    first, second = get_family(family).projector_sets(n)
    return WitnessLine(n, float(2 ** (n - len(first))), float(2 ** (n - len(second))), pure)


def _target_line(family: str, n: int) -> WitnessLine:
    """The line through the value read off the settings' Born distributions
    on the pure target, built from its stabilizer generators."""
    pure = stabilizer_distributions(generators_for(family, n), family)[2]
    return witness_line(family, n, pure)


def noisy_target_expectation(family: str, n: int, p_noise: float) -> float:
    """Exact <W> on the family target mixed with white noise at fraction p.

    The value on the pure target is fixed by the even-parity mass of the two
    settings' exact outcome distributions, built from the target's
    generators, and white noise moves it along the witness line; the test
    suite pins it against the projector expectation on the statevector and
    the full Pauli decomposition.
    """
    if not 0.0 <= p_noise <= 1.0:
        raise DomainError(f"noise fraction must lie in [0, 1], got {p_noise}")
    return _target_line(family, n).at(p_noise)


@dataclass(frozen=True)
class ThresholdReport:
    """Noise tolerance of one witness, from both computation routes; the
    reported threshold is the closed form.  ``line`` is the witness line
    both routes rest on, so the report also gives <W> at any noise."""

    family: str
    n: int
    line: WitnessLine
    p_closed_form: float
    p_root_find: float

    @property
    def p_threshold(self) -> float:
        return self.p_closed_form

    @property
    def trace_p1(self) -> float:
        return self.line.trace_p1

    @property
    def trace_p2(self) -> float:
        return self.line.trace_p2

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "p_threshold": self.p_threshold,
            "method": "closed_form",
            "trace_p1": self.trace_p1,
            "trace_p2": self.trace_p2,
            "p_closed_form": self.p_closed_form,
            "p_root_find": self.p_root_find,
        }


def noise_threshold(family: str, n: int) -> ThresholdReport:
    """Largest noise fraction at which the witness still detects the target.

    Computes the closed form and, independently, the root of the noisy
    target expectation over p in [0, 1]; the two must agree to 1e-9.
    The expectation is affine in p, so its value at the endpoints pins the
    root for the bracketing solver.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    closed = get_family(family).closed_form_threshold(n)
    line = _target_line(family, n)
    if line.pure >= 0.0:
        raise NumericError(f"target expectation {line.pure} is not negative; no threshold")
    root = float(brentq(line.at, 0.0, 1.0, xtol=1e-14))

    if abs(closed - root) > THRESHOLD_AGREEMENT_ATOL:
        raise NumericError(
            f"threshold routes disagree for {family} n={n}: "
            f"closed {closed!r} vs root {root!r}")
    return ThresholdReport(family=family, n=n, line=line,
                           p_closed_form=closed, p_root_find=root)
