"""Numerical certification that a witness is nonnegative on biseparable states.

The biseparable set is the convex hull of pure states that factor across
some bipartition, and the expectation is linear in the state, so its
minimum over biseparable states is attained on a pure product state across
one of the cuts.  Minimising over those suffices.

For a fixed cut the minimum is found by alternating exact eigenvector
minimisation: fixing the part-B vector turns the witness into a Hermitian
operator on part A (Pauli terms factor site-wise across any cut), whose
minimal eigenvector is the optimal part-A state, and vice versa.  Each
half-step is an exact minimisation, so the value sequence never increases.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .pauli import PauliString
from .states import StateVector, _apply_raw

PASS_TOLERANCE = 1e-6
_DEGENERACY_ATOL = 1e-12


@dataclass(frozen=True)
class Bipartition:
    """A proper two-party split of sites 1..n; site 1 always in part A."""

    n: int
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]

    def __post_init__(self) -> None:
        a, b = set(self.part_a), set(self.part_b)
        if not a or not b or a & b or a | b != set(range(1, self.n + 1)):
            raise DomainError(f"parts must split 1..{self.n}: {self.part_a} | {self.part_b}")
        if 1 not in a:
            raise DomainError("canonical form places site 1 in part A")
        if self.part_a != tuple(sorted(a)) or self.part_b != tuple(sorted(b)):
            raise DomainError("parts must be sorted tuples")

    @classmethod
    def from_part_a(cls, n: int, part_a: Sequence[int]) -> "Bipartition":
        a = tuple(sorted(set(part_a)))
        b = tuple(q for q in range(1, n + 1) if q not in a)
        return cls(n, a, b)

    @property
    def label(self) -> str:
        return ",".join(map(str, self.part_a)) + "|" + ",".join(map(str, self.part_b))


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All 2^(n-1) - 1 canonical bipartitions, in ascending mask order."""
    if not 2 <= n <= 12:
        raise DomainError(f"bipartition enumeration supports 2..12 qubits, got {n}")
    cuts = []
    for mask in range((1 << (n - 1)) - 1):
        part_a = (1,) + tuple(k for k in range(2, n + 1) if (mask >> (k - 2)) & 1)
        cuts.append(Bipartition.from_part_a(n, part_a))
    return cuts


def product_state(cut: Bipartition, vec_a: np.ndarray, vec_b: np.ndarray) -> StateVector:
    """Assemble |a> on part A and |b> on part B into a full-register state."""
    na, nb = len(cut.part_a), len(cut.part_b)
    if vec_a.shape != (1 << na,) or vec_b.shape != (1 << nb,):
        raise DimensionError("part vectors do not match the cut dimensions")
    tensor = np.multiply.outer(vec_a, vec_b).reshape([2] * cut.n)
    combined = list(cut.part_a) + list(cut.part_b)
    axes = [combined.index(site) for site in range(1, cut.n + 1)]
    return StateVector(cut.n, tensor.transpose(axes).reshape(-1))


def _restrict(p: PauliString, sites: Sequence[int]) -> PauliString:
    return PauliString.from_ops([p.letter_at(q) for q in sites])


def _split_terms(terms, cut: Bipartition) -> list[tuple[float, PauliString, PauliString]]:
    return [(float(c), _restrict(t, cut.part_a), _restrict(t, cut.part_b))
            for t, c in terms.items()]


def _contract(split, fixed: np.ndarray, fixed_side: int, dim: int) -> np.ndarray:
    """Hermitian operator on the free part, with the fixed part's vector
    contracted against each term's factor on its side."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    col = np.arange(dim, dtype=np.int64)
    for coeff, pa, pb in split:
        p_fixed, p_free = (pb, pa) if fixed_side == 1 else (pa, pb)
        weight = coeff * np.vdot(fixed, _apply_raw(p_fixed, fixed)).real
        if weight == 0.0:
            continue
        phase = (1, 1j, -1, -1j)[p_free.phase_exp]
        vals = weight * phase * (1.0 - 2.0 * (np.bitwise_count(col & p_free.z_bits) & 1))
        m[col ^ p_free.x_bits, col] += vals
    return m


def _minimal_eigvec(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair with a deterministic choice among degenerate
    eigenvectors: phase-normalise, then take the lexicographically first."""
    vals, vecs = np.linalg.eigh(m)
    scale = max(1.0, abs(vals[0]))
    candidates = []
    for j in range(len(vals)):
        if vals[j] - vals[0] > _DEGENERACY_ATOL * scale:
            break
        v = vecs[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size:
            v = v * (v[nz[0]].conjugate() / abs(v[nz[0]]))
        candidates.append(v)
    key = lambda v: tuple(np.round(np.column_stack((v.real, v.imag)).ravel(), 12))
    return float(vals[0]), min(candidates, key=key)


@dataclass
class SeeSawTrace:
    """One restart of the alternating minimisation."""

    value: float
    state_a: np.ndarray
    state_b: np.ndarray
    converged: bool
    iterations: int
    history: list[float]


def see_saw_once(split, dim_a: int, dim_b: int, init_a: np.ndarray,
                 init_b: np.ndarray, tol: float = 1e-10,
                 max_iters: int = 500) -> SeeSawTrace:
    """Alternate exact eigen-minimisation over the two parts until the value
    moves by less than tol over a full sweep."""
    a, b = init_a, init_b
    value = float(np.vdot(a, _contract(split, b, fixed_side=1, dim=dim_a) @ a).real)
    history = [value]
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        value_a, a = _minimal_eigvec(_contract(split, b, fixed_side=1, dim=dim_a))
        history.append(value_a)
        value_b, b = _minimal_eigvec(_contract(split, a, fixed_side=0, dim=dim_b))
        history.append(value_b)
        if abs(value_b - value) < tol:
            converged = True
            value = value_b
            break
        value = value_b
    return SeeSawTrace(value, a, b, converged, iterations, history)


@dataclass(frozen=True)
class CutResult:
    cut: Bipartition
    min_value: float
    state_a: np.ndarray
    state_b: np.ndarray
    converged: bool
    restarts: int

    def to_dict(self) -> dict:
        return {
            "part_a": list(self.cut.part_a),
            "part_b": list(self.cut.part_b),
            "min_value": self.min_value,
            "converged": self.converged,
            "restarts": self.restarts,
        }


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _cut_key(cut: Bipartition) -> int:
    mask = 0
    for q in cut.part_a:
        mask |= 1 << (q - 1)
    return mask


def min_over_cut(w, cut: Bipartition, restarts: int = 20, seed: int = 0,
                 tol: float = 1e-10, max_iters: int = 500) -> CutResult:
    """Best see-saw minimum over random restarts for one bipartition.

    The restart r of cut c draws its initial vectors from a Philox stream
    seeded with (seed, mask of part A, r), so results do not depend on
    execution order.
    """
    if w.n != cut.n:
        raise DimensionError(f"witness on {w.n} qubits, cut on {cut.n}")
    if restarts < 1:
        raise DomainError("need at least one restart")
    split = _split_terms(w.terms, cut)
    dim_a, dim_b = 1 << len(cut.part_a), 1 << len(cut.part_b)
    best: SeeSawTrace | None = None
    for r in range(restarts):
        rng = np.random.Generator(np.random.Philox(seed=[seed, _cut_key(cut), r]))
        trace = see_saw_once(split, dim_a, dim_b,
                             _random_unit(rng, dim_a), _random_unit(rng, dim_b),
                             tol=tol, max_iters=max_iters)
        if best is None or trace.value < best.value:
            best = trace
    return CutResult(cut, best.value, best.state_a, best.state_b,
                     best.converged, restarts)


@dataclass(frozen=True)
class BisepReport:
    """Certification outcome over all bipartitions of one witness."""

    family: str
    n: int
    restarts: int
    seed: int
    pass_tolerance: float
    cuts: tuple[CutResult, ...]
    global_min: float
    passed: bool

    @property
    def argmin_cut(self) -> CutResult:
        return min(self.cuts, key=lambda c: c.min_value)

    def to_dict(self) -> dict:
        arg = self.argmin_cut
        return {
            "family": self.family,
            "n": self.n,
            "restarts": self.restarts,
            "seed": self.seed,
            "pass_tolerance": self.pass_tolerance,
            "global_min": self.global_min,
            "passed": self.passed,
            "cuts": [c.to_dict() for c in self.cuts],
            "argmin": {
                "part_a": list(arg.cut.part_a),
                "part_b": list(arg.cut.part_b),
                "state_a": [[float(x.real), float(x.imag)] for x in arg.state_a],
                "state_b": [[float(x.real), float(x.imag)] for x in arg.state_b],
            },
        }


def certify(w, restarts: int = 20, seed: int = 0, tol: float = 1e-10,
            pass_tolerance: float = PASS_TOLERANCE) -> BisepReport:
    """Minimise <W> over every bipartition; PASS iff the global minimum is
    not meaningfully negative."""
    results = tuple(min_over_cut(w, cut, restarts=restarts, seed=seed, tol=tol)
                    for cut in enumerate_bipartitions(w.n))
    global_min = min(c.min_value for c in results)
    # any expectation is bounded by the L1 norm of the coefficients; a
    # violation means the optimiser itself is broken
    floor = -sum(abs(c) for c in w.terms.values()) - 1e-9
    if global_min < floor:
        raise NumericError(f"minimum {global_min} below the operator bound {floor}")
    return BisepReport(
        family=w.family, n=w.n, restarts=restarts, seed=seed,
        pass_tolerance=pass_tolerance, cuts=results, global_min=global_min,
        passed=global_min >= -pass_tolerance)
