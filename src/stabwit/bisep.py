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
A restart stops once a full sweep moves the value by less than
SEE_SAW_TOL, or after SEE_SAW_MAX_ITERS sweeps.  A witness passes when no
cut goes below -PASS_TOLERANCE.  Cut minima within SEE_SAW_TOL of each
other are ties, and a report names the first tied cut, in enumeration
order, as its argmin.

Each cut's terms are tabulated once, before any restart, as
W = sum_{f,g} C[f, g] P_f (x) Q_g over the distinct factors P_f on part A
and Q_g on part B, with per-factor index and phase tables over each part's
basis.  A half-step with part B fixed at |b> is then three array
operations: one gather for every <b|Q_g|b>, one product w = C e, and one
scatter of sum_f w_f P_f into a dense 2^|A| x 2^|A| matrix, followed by
its eigendecomposition.  It costs O(F * 2^|side|) for F factors, with no
Python loop over terms; the tables take O(terms * 2^|side|) memory.

A site permutation that leaves the term map unchanged commutes with W and
maps the product states across one cut onto those across its image cut,
so both cuts have the same minimum.  The candidates are the adjacent
transpositions (q, q+1), which generate every permutation, and the
reflection q -> n+1-q; one counts only if moving every term's x and z bits
gives back the same term -> coefficient map, so no symmetry is assumed
from a family's name.  The cuts then fall into orbits (the connected
components of cut -> canonical image), and the see-saw runs once per
orbit, on its first cut in enumeration order, with that cut's own random
streams.  Every other cut of the orbit carries the representative's
result: the same minimum, convergence flag and restart count, with the
product state moved onto its sites (and the parts swapped when the image
of part A is part B), so each cut's states still reach its minimum on
that cut.  Without a checked symmetry every cut is its own orbit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .pauli import PauliString
from .states import StateVector

PASS_TOLERANCE = 1e-6
SEE_SAW_TOL = 1e-10
SEE_SAW_MAX_ITERS = 500
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


@dataclass(frozen=True)
class _SideTable:
    """The distinct restricted factors P_f on one side of a cut, as index
    and value tables over the side's 2^k basis: P_f |c> = vals[f, c] |rows[f, c]>.

    ``flat`` and ``signed`` hold the same entries for a scatter into the
    interleaved real/imaginary layout of a complex d x d matrix; every
    value is real or imaginary, so each entry lands in exactly one slot.
    """

    dim: int
    rows: np.ndarray
    vals: np.ndarray
    flat: np.ndarray
    signed: np.ndarray

    @classmethod
    def build(cls, factors: Sequence[PauliString], dim: int) -> "_SideTable":
        col = np.arange(dim, dtype=np.int64)
        x = np.array([p.x_bits for p in factors], dtype=np.int64)[:, None]
        z = np.array([p.z_bits for p in factors], dtype=np.int64)[:, None]
        phase = np.array([(1, 1j, -1, -1j)[p.phase_exp] for p in factors],
                         dtype=np.complex128)[:, None]
        rows = col ^ x
        vals = phase * (1.0 - 2.0 * (np.bitwise_count(col & z) & 1))
        imaginary = vals.imag != 0
        flat = 2 * (rows * dim + col) + imaginary
        signed = np.where(imaginary, vals.imag, vals.real)
        return cls(dim, rows, vals, flat.ravel(), signed)

    def expectations(self, v: np.ndarray) -> np.ndarray:
        """<v|P_f|v> for every factor: one gather, one mat-vec."""
        return ((v[self.rows].conj() * self.vals) @ v).real

    def operator(self, weights: np.ndarray) -> np.ndarray:
        """sum_f weights[f] P_f as a dense matrix: one scatter."""
        d = self.dim
        entries = np.bincount(self.flat, weights=(weights[:, None] * self.signed).ravel(),
                              minlength=2 * d * d)
        return entries.view(np.complex128).reshape(d, d)


@dataclass(frozen=True)
class _CutTable:
    """W restricted to a cut: W = sum_{f,g} coeffs[f, g] P_f (x) Q_g, with
    P_f the distinct factors on part A and Q_g those on part B."""

    coeffs: np.ndarray
    sides: tuple[_SideTable, _SideTable]


def _split_terms(terms, cut: Bipartition) -> _CutTable:
    """Factor every term across the cut and tabulate the distinct factors."""
    index: tuple[dict, dict] = ({}, {})
    entries = []
    for t, c in terms.items():
        f, g = (index[side].setdefault(_restrict(t, part), len(index[side]))
                for side, part in enumerate((cut.part_a, cut.part_b)))
        entries.append((f, g, float(c)))
    coeffs = np.zeros((len(index[0]), len(index[1])))
    for f, g, c in entries:
        coeffs[f, g] += c
    dims = (1 << len(cut.part_a), 1 << len(cut.part_b))
    return _CutTable(coeffs, tuple(_SideTable.build(list(index[side]), dims[side])
                                   for side in (0, 1)))


def _contract(split: _CutTable, fixed: np.ndarray, fixed_side: int) -> np.ndarray:
    """Hermitian operator on the free part, with the fixed part's vector
    contracted against each term's factor on its side."""
    coeffs = split.coeffs.T if fixed_side == 0 else split.coeffs
    return split.sides[1 - fixed_side].operator(
        coeffs @ split.sides[fixed_side].expectations(fixed))


def _phase_normalised(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size:
        v = v * (v[nz[0]].conjugate() / abs(v[nz[0]]))
    return v


def _minimal_eigvec(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair with a deterministic choice among degenerate
    eigenvectors: phase-normalise, then take the lexicographically first.
    A simple minimum has one candidate and needs no key."""
    vals, vecs = np.linalg.eigh(m)
    scale = max(1.0, abs(vals[0]))
    degenerate = int(np.count_nonzero(vals - vals[0] <= _DEGENERACY_ATOL * scale))
    if degenerate <= 1:
        return float(vals[0]), _phase_normalised(vecs[:, 0])
    candidates = [_phase_normalised(vecs[:, j]) for j in range(degenerate)]
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


def see_saw_once(split: _CutTable, init_a: np.ndarray, init_b: np.ndarray) -> SeeSawTrace:
    """Alternate exact eigen-minimisation over the two parts until the value
    moves by less than SEE_SAW_TOL over a full sweep."""
    if (init_a.shape, init_b.shape) != ((split.sides[0].dim,), (split.sides[1].dim,)):
        raise DimensionError("start vectors do not match the cut's part dimensions")
    a, b = init_a, init_b
    # the operator on part A given |b>: the start value and the next half-step
    op_a = _contract(split, b, fixed_side=1)
    value = float(np.vdot(a, op_a @ a).real)
    history = [value]
    converged = False
    iterations = 0
    for iterations in range(1, SEE_SAW_MAX_ITERS + 1):
        value_a, a = _minimal_eigvec(op_a)
        history.append(value_a)
        value_b, b = _minimal_eigvec(_contract(split, a, fixed_side=0))
        history.append(value_b)
        if abs(value_b - value) < SEE_SAW_TOL:
            converged = True
            value = value_b
            break
        value = value_b
        op_a = _contract(split, b, fixed_side=1)
    return SeeSawTrace(value, a, b, converged, iterations, history)


@dataclass(frozen=True)
class CutResult:
    """The minimum over one cut.  ``orbit_of`` names the cut whose see-saw
    this result carries through a symmetry, or is None when the see-saw
    ran on this cut itself."""

    cut: Bipartition
    min_value: float
    state_a: np.ndarray
    state_b: np.ndarray
    converged: bool
    restarts: int
    orbit_of: Bipartition | None = None

    def to_dict(self) -> dict:
        return {
            "part_a": list(self.cut.part_a),
            "part_b": list(self.cut.part_b),
            "min_value": self.min_value,
            "converged": self.converged,
            "restarts": self.restarts,
            "orbit_of": list((self.orbit_of or self.cut).part_a),
        }


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _cut_key(cut: Bipartition) -> int:
    mask = 0
    for q in cut.part_a:
        mask |= 1 << (q - 1)
    return mask


def min_over_cut(w, cut: Bipartition, restarts: int = 20, seed: int = 0) -> CutResult:
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
    best: SeeSawTrace | None = None
    for r in range(restarts):
        rng = np.random.Generator(np.random.Philox(seed=[seed, _cut_key(cut), r]))
        init_a, init_b = (_random_unit(rng, side.dim) for side in split.sides)
        trace = see_saw_once(split, init_a, init_b)
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
    cuts: tuple[CutResult, ...]
    global_min: float
    passed: bool

    @property
    def argmin_cut(self) -> CutResult:
        """The first cut, in enumeration order, whose minimum ties the
        global minimum within SEE_SAW_TOL; a plain argmin would pick among
        equal minima by their last-digit rounding."""
        return next(c for c in self.cuts if c.min_value - self.global_min <= SEE_SAW_TOL)

    def to_dict(self) -> dict:
        arg = self.argmin_cut
        return {
            "family": self.family,
            "n": self.n,
            "restarts": self.restarts,
            "seed": self.seed,
            "pass_tolerance": PASS_TOLERANCE,
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


def _swap_bits(bits: int, low: int) -> int:
    """Exchange bits low and low + 1."""
    differ = ((bits >> low) ^ (bits >> (low + 1))) & 1
    return bits ^ (differ * (3 << low))


def _site_symmetries(terms, n: int) -> list[tuple[int, ...]]:
    """The candidate site permutations that leave the term map unchanged,
    each as the tuple of images of sites 1..n.  Site q is bit n - q of the
    x and z masks, and every term carries phase +1, so a term is its
    (x, z) pair."""
    table = {(t.x_bits, t.z_bits): c for t, c in terms.items()}
    candidates = []
    for p in range(1, n):
        perm = list(range(1, n + 1))
        perm[p - 1], perm[p] = p + 1, p
        candidates.append((tuple(perm), lambda bits, low=n - p - 1: _swap_bits(bits, low)))
    candidates.append((tuple(range(n, 0, -1)),
                       lambda bits: int(format(bits, f"0{n}b")[::-1], 2)))
    return [perm for perm, move in candidates
            if {(move(x), move(z)): c for (x, z), c in table.items()} == table]


def _cut_orbits(cuts: Sequence[Bipartition],
                perms: Sequence[tuple[int, ...]]) -> list[tuple[int, tuple[int, ...]]]:
    """For each cut, the index of its orbit's first cut and a site map that
    takes that cut's sites onto this cut's (identity for a representative)."""
    index = {cut.part_a: i for i, cut in enumerate(cuts)}
    orbits: list = [None] * len(cuts)
    for first, cut in enumerate(cuts):
        if orbits[first] is not None:
            continue
        orbits[first] = (first, tuple(range(1, cut.n + 1)))
        stack = [first]
        while stack:
            i = stack.pop()
            sites = orbits[i][1]
            for perm in perms:
                image = {perm[q - 1] for q in cuts[i].part_a}
                if 1 not in image:
                    image = set(range(1, cut.n + 1)) - image
                k = index[tuple(sorted(image))]
                if orbits[k] is None:
                    orbits[k] = (first, tuple(perm[s - 1] for s in sites))
                    stack.append(k)
    return orbits


def _move_sites(vec: np.ndarray, sites: Sequence[int], site_map: Sequence[int]) -> np.ndarray:
    """A vector on the given sites, moved onto their images in ascending order."""
    order = np.argsort([site_map[s - 1] for s in sites])
    return vec.reshape([2] * len(sites)).transpose(order).reshape(-1)


def _carried(result: CutResult, cut: Bipartition, site_map: Sequence[int]) -> CutResult:
    """A representative's result moved onto a cut of its orbit."""
    src = result.cut
    state_a = _move_sites(result.state_a, src.part_a, site_map)
    state_b = _move_sites(result.state_b, src.part_b, site_map)
    if site_map[0] in cut.part_b:
        state_a, state_b = state_b, state_a
    return CutResult(cut, result.min_value, state_a, state_b,
                     result.converged, result.restarts, orbit_of=src)


def certify(w, restarts: int = 20, seed: int = 0) -> BisepReport:
    """Minimise <W> over every bipartition, once per orbit of cuts under the
    checked site symmetries; PASS iff the global minimum is not below
    -PASS_TOLERANCE."""
    cuts = enumerate_bipartitions(w.n)
    results: list[CutResult] = []
    for cut, (first, site_map) in zip(cuts, _cut_orbits(cuts, _site_symmetries(w.terms, w.n))):
        results.append(min_over_cut(w, cut, restarts=restarts, seed=seed)
                       if cuts[first] is cut else _carried(results[first], cut, site_map))
    global_min = min(c.min_value for c in results)
    # any expectation is bounded by the L1 norm of the coefficients; a
    # violation means the optimiser itself is broken
    floor = -sum(abs(c) for c in w.terms.values()) - 1e-9
    if global_min < floor:
        raise NumericError(f"minimum {global_min} below the operator bound {floor}")
    return BisepReport(
        family=w.family, n=w.n, restarts=restarts, seed=seed, cuts=tuple(results),
        global_min=global_min, passed=global_min >= -PASS_TOLERANCE)
