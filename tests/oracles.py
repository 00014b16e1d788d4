"""Independent dense-matrix oracles for the test suite.

Everything here is built from explicit 2x2 matrices and np.kron, never from
the package's bitmask algebra, so agreement between the two is meaningful.
Density matrices are materialised only here and only for small n.

The exceptions are the references at the end: the per-key outcome-parity
loops that the vectorised parity count replaced, the per-term half-step
loop and the key-based eigenvector choice that the vectorised see-saw
replaced, the see-saw restart that contracted its first operator twice,
the copying basis rotation, the full-outcome-matrix estimator and the
per-outcome key formatting that the in-place butterfly, the null-space
enumeration and the one-pass key rendering replaced, and the per-entry
counts-table check that the byte-level check replaced, kept verbatim so
that a test can pin each fast path to the path it replaces;
``setting_measures``, which checks the derived settings letter by letter;
and ``apply_pauli``, ``schmidt_coefficients`` and ``product_state``, kept
verbatim from the package, whose own code needs none of them: the Pauli
action on a whole state, the Schmidt spectrum across a bipartition and
the full-register state of one cut's two part vectors.
"""
from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from stabwit.bisep import (
    SEE_SAW_MAX_ITERS,
    SEE_SAW_TOL,
    Bipartition,
    SeeSawTrace,
    _contract,
    _CutTable,
    _minimal_eigvec,
)
from stabwit.errors import ContractError, DimensionError, DomainError
from stabwit.measurement import (
    MeasurementSetting,
    _even_parity,
    _setting_generators,
    _setting_of,
    _support_columns,
    _witness_value,
    outcome_distribution,
)
from stabwit.pauli import PauliString
from stabwit.states import StateVector, _apply_raw

_SQRT1_2 = 1.0 / np.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
LETTERS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_pauli(letters: str) -> np.ndarray:
    """Tensor product of single-site matrices, site 1 leftmost."""
    m = np.array([[1.0]], dtype=complex)
    for c in letters:
        m = np.kron(m, LETTERS[c])
    return m


def identify_pauli(m: np.ndarray, n: int) -> tuple[complex, str]:
    """Recover (phase, letters) of a matrix known to be a phased Pauli."""
    for ops in itertools.product("IXYZ", repeat=n):
        cand = dense_pauli("".join(ops))
        nz = np.flatnonzero(np.abs(cand) > 0.5)
        phase = m.flat[nz[0]] / cand.flat[nz[0]]
        if np.allclose(m, phase * cand, atol=1e-12):
            return complex(np.round(phase.real) + 1j * np.round(phase.imag)), "".join(ops)
    raise AssertionError("matrix is not a phased Pauli string")


def dense_projector(generator_letters: list[str], n: int) -> np.ndarray:
    """prod_k (1 + S_k)/2 over the given generators."""
    p = np.eye(2 ** n, dtype=complex)
    for letters in generator_letters:
        p = p @ (dense_pauli(letters) + np.eye(2 ** n)) / 2.0
    return p


def dense_witness_from_projectors(first: list[str], second: list[str],
                                  n: int) -> np.ndarray:
    """3*1 - 2(P_1 + P_2) built directly from the projector structure."""
    return (3.0 * np.eye(2 ** n)
            - 2.0 * (dense_projector(first, n) + dense_projector(second, n)))


def dense_operator_from_terms(terms) -> np.ndarray:
    """Sum of coeff * dense Pauli over a witness's term mapping."""
    items = list(terms.items())
    n = items[0][0].n
    m = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for term, coeff in items:
        assert term.phase == 1
        m += coeff * dense_pauli(term.ops)
    return m


def density_matrix(p_noise: float, amplitudes: np.ndarray) -> np.ndarray:
    """White-noise mixture materialised as a matrix; small n only."""
    dim = amplitudes.size
    return (p_noise * np.eye(dim, dtype=complex) / dim
            + (1.0 - p_noise) * np.outer(amplitudes, amplitudes.conj()))


def dense_expectation(operator: np.ndarray, state) -> float:
    """<O> against a vector or a density matrix."""
    if state.ndim == 1:
        value = state.conj() @ operator @ state
    else:
        value = np.trace(operator @ state)
    assert abs(value.imag) < 1e-10
    return float(value.real)


def random_state_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def ghz_generator_letters(n: int) -> list[str]:
    gens = ["X" * n]
    for k in range(2, n + 1):
        gens.append("I" * (k - 2) + "ZZ" + "I" * (n - k))
    return gens


def cluster_generator_letters(n: int) -> list[str]:
    gens = ["XZ" + "I" * (n - 2)]
    for k in range(2, n):
        gens.append("I" * (k - 2) + "ZXZ" + "I" * (n - k - 1))
    gens.append("I" * (n - 2) + "ZX")
    return gens


def setting_measures(setting, p) -> bool:
    """True iff every non-identity letter of p matches the setting's axis."""
    assert setting.n == p.n
    return all(letter == "I" or letter.lower() == axis
               for letter, axis in zip(p.ops, setting.axes))


def loop_pass_fraction(table, gens) -> float:
    """Fraction of shots whose outcome has +1 parity on every generator's support."""
    supports = [g.support for g in gens]
    passed = 0
    for key, value in table.counts.items():
        bits = int(key, 2)
        if all((bits & m).bit_count() & 1 == 0 for m in supports):
            passed += value
    return passed / table.shots


def per_term_split(terms, cut):
    """(coeff, factor on part A, factor on part B) for every witness term."""
    def restrict(p, sites):
        return PauliString.from_ops([p.letter_at(q) for q in sites])
    return [(float(c), restrict(t, cut.part_a), restrict(t, cut.part_b))
            for t, c in terms.items()]


def per_term_contract(split, fixed, fixed_side, dim):
    """The see-saw half-step one term at a time: the operator on the free
    part with the fixed part's vector contracted against each term."""
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


def keyed_minimal_eigvec(m, atol=1e-12):
    """Smallest eigenpair choosing among degenerate eigenvectors by
    phase-normalising every candidate and taking the lexicographically
    first, whether or not there is more than one."""
    vals, vecs = np.linalg.eigh(m)
    scale = max(1.0, abs(vals[0]))
    candidates = []
    for j in range(len(vals)):
        if vals[j] - vals[0] > atol * scale:
            break
        v = vecs[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size:
            v = v * (v[nz[0]].conjugate() / abs(v[nz[0]]))
        candidates.append(v)
    key = lambda v: tuple(np.round(np.column_stack((v.real, v.imag)).ravel(), 12))
    return float(vals[0]), min(candidates, key=key)


def see_saw_once(split: _CutTable, init_a: np.ndarray, init_b: np.ndarray) -> SeeSawTrace:
    """Alternate exact eigen-minimisation over the two parts until the value
    moves by less than SEE_SAW_TOL over a full sweep."""
    if (init_a.shape, init_b.shape) != ((split.sides[0].dim,), (split.sides[1].dim,)):
        raise DimensionError("start vectors do not match the cut's part dimensions")
    a, b = init_a, init_b
    value = float(np.vdot(a, _contract(split, b, fixed_side=1) @ a).real)
    history = [value]
    converged = False
    iterations = 0
    for iterations in range(1, SEE_SAW_MAX_ITERS + 1):
        value_a, a = _minimal_eigvec(_contract(split, b, fixed_side=1))
        history.append(value_a)
        value_b, b = _minimal_eigvec(_contract(split, a, fixed_side=0))
        history.append(value_b)
        if abs(value_b - value) < SEE_SAW_TOL:
            converged = True
            value = value_b
            break
        value = value_b
    return SeeSawTrace(value, a, b, converged, iterations, history)


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


def copying_outcome_distribution(state, setting) -> np.ndarray:
    """Born-rule probabilities computed as before the in-place butterfly."""
    pure = getattr(state, "pure", state)
    probs = np.abs(_rotate_to_measurement_basis(pure.amplitudes, state.n, setting.axes)) ** 2
    if pure is not state:
        probs = state.p_noise / probs.size + (1.0 - state.p_noise) * probs
    return probs


def estimate_from_distributions(dist_a: np.ndarray, dist_b: np.ndarray,
                                family: str, n: int) -> float:
    """Infinite-shot witness value 3 - 2(<P_1> + <P_2>) from exact outcome
    distributions of the two settings."""
    codes = np.arange(1 << n, dtype=">u4").view(np.uint8).reshape(-1, 4)
    outcomes = np.unpackbits(codes, axis=1)[:, 32 - n:]
    p_a, p_b = (float(dist[_even_parity(outcomes, _support_columns(gens))].sum())
                for dist, gens in zip((dist_a, dist_b), _setting_generators(family, n)))
    return 3.0 - 2.0 * (p_a + p_b)


def setting_distributions(state, family: str) -> tuple[
        tuple[MeasurementSetting, MeasurementSetting], tuple[np.ndarray, np.ndarray], float]:
    """The family's two settings, their Born distributions on the state, and
    the exact witness value those distributions fix, with the generators
    derived once."""
    n = state.n
    gens = _setting_generators(family, n)
    settings = _setting_of(n, gens[0]), _setting_of(n, gens[1])
    dists = outcome_distribution(state, settings[0]), outcome_distribution(state, settings[1])
    return settings, dists, _witness_value(*dists, n, gens)


def projected_stabilizer_state(rng: np.random.Generator, generators) -> StateVector:
    """The joint +1 eigenstate of n independent commuting generators: a
    random vector projected by prod (1 + g)/2 with dense Kronecker
    matrices, then normalised."""
    n = generators[0].n
    vec = random_state_vector(rng, n)
    for g in generators:
        vec = (vec + g.phase * (dense_pauli(g.ops) @ vec)) / 2.0
    return StateVector(n, vec / np.linalg.norm(vec))


def formatted_counts(drawn: np.ndarray, n: int) -> dict:
    """The outcome-string keyed counts of a drawn vector, one format call
    per outcome seen."""
    seen = np.flatnonzero(drawn)
    width = f"0{n}b"
    return dict(zip([format(i, width) for i in seen.tolist()], drawn[seen].tolist()))


def loop_counts_check(setting, shots, counts) -> None:
    """The counts-table check one entry at a time, raising on the first bad
    key or value and then on a wrong total."""
    total = 0
    for key, value in counts.items():
        if len(key) != setting.n or key.strip("01"):
            raise ContractError(f"bad outcome key {key!r} for n={setting.n}")
        if value < 0:
            raise ContractError(f"negative count for {key!r}")
        total += value
    if total != shots:
        raise ContractError(f"counts sum to {total}, expected {shots} shots")


def apply_pauli(p: PauliString, s: StateVector) -> StateVector:
    """Exact action of a Pauli string on a state; norm preserving."""
    if p.n != s.n:
        raise DimensionError(f"operator on {p.n} qubits, state on {s.n}")
    return StateVector(s.n, _apply_raw(p, s.amplitudes))


def schmidt_coefficients(s: StateVector, part_sites: Iterable[int]) -> np.ndarray:
    """Singular values of the amplitude matrix across the given bipartition.

    ``part_sites`` are 1-based; the complementary sites form the other side.
    """
    part = sorted(set(part_sites))
    if not part or any(q < 1 or q > s.n for q in part) or len(part) >= s.n:
        raise DomainError("part must be a nonempty proper subset of 1..n")
    rest = [q for q in range(1, s.n + 1) if q not in part]
    perm = [q - 1 for q in part] + [q - 1 for q in rest]
    tensor = s.amplitudes.reshape([2] * s.n).transpose(perm)
    matrix = tensor.reshape(1 << len(part), 1 << len(rest))
    return np.linalg.svd(matrix, compute_uv=False)


def product_state(cut: Bipartition, vec_a: np.ndarray, vec_b: np.ndarray) -> StateVector:
    """Assemble |a> on part A and |b> on part B into a full-register state."""
    na, nb = len(cut.part_a), len(cut.part_b)
    if vec_a.shape != (1 << na,) or vec_b.shape != (1 << nb,):
        raise DimensionError("part vectors do not match the cut dimensions")
    tensor = np.multiply.outer(vec_a, vec_b).reshape([2] * cut.n)
    combined = list(cut.part_a) + list(cut.part_b)
    axes = [combined.index(site) for site in range(1, cut.n + 1)]
    return StateVector(cut.n, tensor.transpose(axes).reshape(-1))
