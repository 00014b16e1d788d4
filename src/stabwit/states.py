"""Dense statevector construction and exact expectation values.

Basis convention: amplitude index ``b`` encodes qubit 1 as its most
significant bit, so ``format(b, f"0{n}b")`` reads left to right as qubits
1..n.  This is the same convention the Pauli bitmasks use, so a mask can
be combined with a basis index without any reindexing.

White noise is never materialised as a density matrix.  A noisy state is
the pair (p, |psi>) and every expectation decomposes exactly as
``p * tr(O)/2^n + (1-p) * <psi|O|psi>``, which keeps n ~ 20 reachable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .pauli import PauliString

# the largest register a dense statevector is built for
MAX_QUBITS = 20
NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Normalised complex amplitudes over the 2^n computational basis."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise DimensionError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise NumericError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class NoisyState:
    """White-noise mixture p * I/2^n + (1-p) |psi><psi|, held symbolically."""

    p_noise: float
    pure: StateVector

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_noise <= 1.0:
            raise DomainError(f"noise fraction must lie in [0, 1], got {self.p_noise}")

    @property
    def n(self) -> int:
        return self.pure.n


State = Union[StateVector, NoisyState]


def _check_range(n: int) -> None:
    if n < 2 or n > MAX_QUBITS:
        raise DomainError(f"qubit count must lie in 2..{MAX_QUBITS}, got {n}")


def make_ghz(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2)."""
    _check_range(n)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(n, amps)


def make_cluster(n: int) -> StateVector:
    """The unique common +1 eigenvector of the linear-chain stabilizers.

    Built as the uniform superposition with a controlled-phase applied to
    every adjacent pair of the chain; the first amplitude is real positive.
    Correctness against the stabilizer defining equations is certified by
    the test suite rather than assumed from the circuit.
    """
    _check_range(n)
    idx = np.arange(1 << n, dtype=np.int64)
    # adjacent sites sit in adjacent bit positions, so s & (s >> 1) marks
    # the 11 pairs of the chain
    pairs = np.bitwise_count(idx & (idx >> 1) & ((1 << (n - 1)) - 1))
    amps = np.where(pairs % 2 == 0, 1.0, -1.0).astype(np.complex128)
    amps *= 2.0 ** (-n / 2.0)
    return StateVector(n, amps)


def _apply_raw(p: PauliString, amps: np.ndarray) -> np.ndarray:
    """Action of i^e X^x Z^z on raw amplitudes: a permutation with phases."""
    idx = np.arange(amps.size, dtype=np.int64)
    src = idx ^ p.x_bits
    out = amps[src]
    if p.z_bits:
        signs = 1.0 - 2.0 * (np.bitwise_count(src & p.z_bits) & 1)
        out = out * signs
    phase = (1, 1j, -1, -1j)[p.phase_exp]
    if phase != 1:
        out = out * phase
    return out


def _pure_pauli_expectation(p: PauliString, s: StateVector) -> complex:
    if p.n != s.n:
        raise DimensionError(f"operator on {p.n} qubits, state on {s.n}")
    return complex(np.vdot(s.amplitudes, _apply_raw(p, s.amplitudes)))


def _identity_fraction(p: PauliString) -> complex:
    """tr(P) / 2^n: the phase for all-identity letters, else zero."""
    if p.x_bits == 0 and p.z_bits == 0:
        return (1, 1j, -1, -1j)[p.phase_exp]
    return 0.0


def _guard_real(value: complex, what: str) -> float:
    if abs(value.imag) > HERMITICITY_ATOL:
        raise NumericError(f"{what} has imaginary part {value.imag:.3e}; operator not Hermitian")
    return float(value.real)


def expectation(op, state: State) -> float:
    """<O> for a PauliString or any operator exposing a ``terms`` mapping
    of phase-free PauliStrings to real coefficients (e.g. a Witness).

    For a NoisyState only the identity component survives the noise part:
    the result is p * tr(O)/2^n + (1-p) * <psi|O|psi>.
    """
    if isinstance(op, PauliString):
        if isinstance(state, NoisyState):
            value = (state.p_noise * _identity_fraction(op)
                     + (1.0 - state.p_noise) * _pure_pauli_expectation(op, state.pure))
        else:
            value = _pure_pauli_expectation(op, state)
        return _guard_real(value, "expectation")

    terms: Mapping[PauliString, float] | None = getattr(op, "terms", None)
    if terms is None:
        raise DomainError(f"cannot take an expectation of {type(op).__name__}")
    pure = state.pure if isinstance(state, NoisyState) else state
    total = complex(sum(c * _pure_pauli_expectation(t, pure) for t, c in terms.items()))
    if isinstance(state, NoisyState):
        noise_part = sum(c * _identity_fraction(t) for t, c in terms.items())
        total = state.p_noise * noise_part + (1.0 - state.p_noise) * total
    return _guard_real(total, "expectation")


def white_noise_mix(p: float, s: StateVector) -> NoisyState:
    """Mix a pure state with the maximally mixed state at noise fraction p."""
    return NoisyState(p, s)


def stabilizer_projector_expectation(s: StateVector, gens: Iterable[PauliString]) -> float:
    """<psi| prod_k (1 + S_k)/2 |psi> by sequential projection, O(len * 2^n).

    Exactly equals the expectation of the expanded projector; the factors
    commute so the application order does not matter.
    """
    phi = s.amplitudes
    for g in gens:
        if g.n != s.n:
            raise DimensionError(f"generator on {g.n} qubits, state on {s.n}")
        phi = (phi + _apply_raw(g, phi)) / 2.0
    return _guard_real(complex(np.vdot(s.amplitudes, phi)), "projector expectation")
