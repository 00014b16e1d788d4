"""Independent dense-matrix oracles for the test suite.

Everything here is built from explicit 2x2 matrices and np.kron, never from
the package's bitmask algebra, so agreement between the two is meaningful.
Density matrices are materialised only here and only for small n.

The exceptions are the see-saw references at the end: the per-term
half-step loop and the key-based eigenvector choice that the vectorised
see-saw replaced, kept verbatim so that a test can pin the fast path to
the path it replaces.
"""
from __future__ import annotations

import itertools

import numpy as np

from stabwit.pauli import PauliString
from stabwit.states import _apply_raw

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
