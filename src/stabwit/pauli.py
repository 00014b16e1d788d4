"""Exact symbolic algebra for N-qubit Pauli strings.

A Pauli string is stored in the normal form

    i^e * prod_k X_k^{x_k} Z_k^{z_k}

as two bitmasks (one for the X part, one for the Z part) plus the phase
exponent ``e`` modulo 4, with Y == i X Z.  Multiplication is then
word-parallel bit arithmetic and equality is exact.

Site convention: qubit 1 is the leftmost letter of the rendered string and
occupies the most significant bit of both masks.  This matches the basis
ordering of the statevector module, so a mask can be combined directly with
a basis index.  Qubit numbering is 1-based in all public interfaces.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError, DomainError

# letter -> (x bit, z bit, phase exponent of i in the X^x Z^z normal form)
_LETTER_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}
_PHASE_TO_EXP = {1: 0, 1j: 1, -1: 2, -1j: 3}
_EXP_TO_PHASE = (1, 1j, -1, -1j)
_PHASE_PREFIX = {1: "+", 1j: "+i", -1: "-", -1j: "-i"}
_STRING_RE = re.compile(r"([+-]?)(i?)([IXYZ]+)")


@dataclass(frozen=True)
class PauliString:
    """An n-site tensor product of {I, X, Y, Z} with a global phase."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"need at least one qubit, got n={self.n}")
        top = 1 << self.n
        if not (0 <= self.x_bits < top and 0 <= self.z_bits < top):
            raise DomainError("bitmask does not fit the qubit count")
        if self.phase_exp not in (0, 1, 2, 3):
            raise DomainError(f"phase exponent must be in 0..3, got {self.phase_exp}")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_ops(cls, ops: Sequence[str], phase: complex = 1) -> "PauliString":
        """Build from per-site letters, e.g. ``"XZI"``, and a phase in {1, -1, 1j, -1j}."""
        if phase not in _PHASE_TO_EXP:
            raise DomainError(f"phase must be one of +1, -1, +i, -i, got {phase!r}")
        n = len(ops)
        x = z = 0
        exp = _PHASE_TO_EXP[phase]
        for letter in ops:
            if letter not in _LETTER_BITS:
                raise DomainError(f"unknown Pauli letter {letter!r}")
            xb, zb, e = _LETTER_BITS[letter]
            x = (x << 1) | xb
            z = (z << 1) | zb
            exp += e
        return cls(n, x, z, exp % 4)

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Parse the rendering produced by ``str()``, e.g. ``"+XZI"`` or ``"-iYY"``.

        The sign prefix may be omitted, in which case the phase is +1.
        """
        m = _STRING_RE.fullmatch(text.strip())
        if m is None:
            raise DomainError(f"not a Pauli string: {text!r}")
        sign, imag, letters = m.groups()
        phase = (-1 if sign == "-" else 1) * (1j if imag == "i" else 1)
        return cls.from_ops(letters, phase)

    @property
    def ops(self) -> str:
        """Per-site letters, site 1 first."""
        out = []
        for k in range(self.n - 1, -1, -1):
            out.append("IXZY"[((self.x_bits >> k) & 1) | ((self.z_bits >> k) & 1) << 1])
        return "".join(out)

    @property
    def phase(self) -> complex:
        """Global phase multiplying the tensor product of the letters."""
        n_y = (self.x_bits & self.z_bits).bit_count()
        return _EXP_TO_PHASE[(self.phase_exp - n_y) % 4]

    @property
    def support(self) -> int:
        """Bitmask of sites carrying a non-identity letter (site 1 = MSB)."""
        return self.x_bits | self.z_bits

    def letter_at(self, site: int) -> str:
        """Letter at the given 1-based site."""
        if not 1 <= site <= self.n:
            raise DomainError(f"site {site} outside 1..{self.n}")
        k = self.n - site
        return "IXZY"[((self.x_bits >> k) & 1) | ((self.z_bits >> k) & 1) << 1]

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} != {other.n}")
        # commuting Z^{z1} past X^{x2} gives one factor of -1 per colliding site
        exp = (self.phase_exp + other.phase_exp
               + 2 * (self.z_bits & other.x_bits).bit_count()) % 4
        return PauliString(self.n, self.x_bits ^ other.x_bits,
                           self.z_bits ^ other.z_bits, exp)

    def commutes(self, other: "PauliString") -> bool:
        """True iff ab == ba (an even number of anticommuting sites)."""
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} != {other.n}")
        anti = (self.x_bits & other.z_bits).bit_count() \
            + (self.z_bits & other.x_bits).bit_count()
        return anti % 2 == 0

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.phase] + self.ops


@dataclass(frozen=True)
class GeneratorSet:
    """n independent, pairwise commuting stabilizer generators on n qubits."""

    n: int
    generators: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if len(self.generators) != self.n:
            raise DomainError("need exactly n generators")
        if any(g.n != self.n for g in self.generators):
            raise DimensionError("generator qubit counts differ from n")
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1:]:
                if not a.commutes(b):
                    raise DomainError("generators must pairwise commute")
        if _symplectic_rank(self.generators) != self.n:
            raise DomainError("generators must be independent")


def _symplectic_rank(paulis: Iterable[PauliString]) -> int:
    """GF(2) rank of the (x|z) rows; full rank means no nonempty subset
    multiplies to the identity letters."""
    return len(gf2_reduce([(p.x_bits << p.n) | p.z_bits for p in paulis]))


def gf2_reduce(rows: Iterable[int]) -> dict[int, int]:
    """Reduced row echelon form of bit rows over GF(2), as a map from each
    pivot, the lowest set bit of its row, to that row; no other row holds
    the pivot.  The number of rows kept is the rank.

    A kept row holds no pivot but its own, so a new row is cleared of the
    pivots it holds by one XOR each, and no XOR brings in another pivot.
    The kept rows only ever hold bits of the rows kept so far, so a new
    pivot none of those set needs no back-substitution.
    """
    reduced: dict[int, int] = {}
    pivots = seen = 0
    for row in rows:
        held = row & pivots
        while held:
            row ^= reduced[held & -held]
            held &= held - 1
        if row:
            pivot = row & -row
            if pivot & seen:
                for other, done in reduced.items():
                    if done & pivot:
                        reduced[other] = done ^ row
            reduced[pivot] = row
            pivots |= pivot
            seen |= row
    return reduced


def ghz_generators(n: int) -> GeneratorSet:
    """Stabilizer generators of the n-qubit GHZ state: X on every site,
    then Z on each adjacent pair (k-1, k) for k = 2..n."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    gens = [PauliString(n, (1 << n) - 1, 0, 0)]
    for k in range(2, n + 1):
        gens.append(PauliString(n, 0, 0b11 << (n - k), 0))
    return GeneratorSet(n, tuple(gens))


def cluster_generators(n: int) -> GeneratorSet:
    """Stabilizer generators of the n-qubit linear cluster state:
    X on site k flanked by Z on its chain neighbours."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    gens = []
    for k in range(1, n + 1):
        x = 1 << (n - k)
        z = 0
        if k > 1:
            z |= 1 << (n - k + 1)
        if k < n:
            z |= 1 << (n - k - 1)
        gens.append(PauliString(n, x, z, 0))
    return GeneratorSet(n, tuple(gens))


def generators_for(family: str, n: int) -> GeneratorSet:
    """Generators of the named family, from its record in ``stabwit.families``."""
    from .families import get_family  # that module builds its records from this one
    return get_family(family).generators(n)


def subgroup_product(gens: GeneratorSet, subset: int) -> PauliString:
    """Ordered product of the selected generators.

    Bit k-1 of ``subset`` selects generator k; generators are multiplied in
    ascending index order (the sets commute, the order is fixed for
    reproducibility).  The empty subset yields the identity.  Products of
    commuting Hermitian generators are Hermitian, so the phase is always
    +1 or -1; it is +1 on every subset of a single measurement setting
    (all-Z, even-k, or odd-k), where colliding letters are equal.
    """
    if not 0 <= subset < (1 << gens.n):
        raise DomainError(f"subset mask needs {gens.n} bits")
    acc = PauliString.identity(gens.n)
    for k in range(gens.n):
        if (subset >> k) & 1:
            acc = acc * gens.generators[k]
    return acc
