"""Statevector construction, Pauli action, and exact expectation values."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabwit import (
    DimensionError,
    DomainError,
    NumericError,
    PauliString,
    StateVector,
    build_witness,
    cluster_generators,
    expectation,
    ghz_generators,
    make_cluster,
    make_ghz,
    stabilizer_projector_expectation,
    white_noise_mix,
)

from oracles import (
    apply_pauli,
    dense_pauli,
    density_matrix,
    dense_expectation,
    random_state_vector,
    schmidt_coefficients,
)

SQRT1_2 = 1.0 / np.sqrt(2.0)


class TestConstruction:
    def test_ghz_2_amplitudes(self):
        assert np.allclose(make_ghz(2).amplitudes, [SQRT1_2, 0, 0, SQRT1_2])

    def test_ghz_3_support(self):
        amps = make_ghz(3).amplitudes
        assert amps[0] == amps[7] == pytest.approx(SQRT1_2)
        assert np.all(amps[1:7] == 0)

    def test_cluster_2_amplitudes(self):
        assert np.allclose(make_cluster(2).amplitudes,
                           np.array([1, 1, 1, -1]) / 2.0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_stabilizer_eigenvalue_ghz(self, n):
        state = make_ghz(n)
        for g in ghz_generators(n).generators:
            diff = apply_pauli(g, state).amplitudes - state.amplitudes
            assert np.max(np.abs(diff)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_stabilizer_eigenvalue_cluster(self, n):
        state = make_cluster(n)
        for g in cluster_generators(n).generators:
            diff = apply_pauli(g, state).amplitudes - state.amplitudes
            assert np.max(np.abs(diff)) < 1e-12

    def test_global_phase_convention(self):
        for n in (2, 5, 8):
            assert make_cluster(n).amplitudes[0].real > 0
            assert make_cluster(n).amplitudes[0].imag == 0

    @pytest.mark.parametrize("n", [1, 0, 21])
    def test_range_errors(self, n):
        with pytest.raises(DomainError):
            make_ghz(n)
        with pytest.raises(DomainError):
            make_cluster(n)

    def test_norm_validated(self):
        with pytest.raises(NumericError):
            StateVector(2, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_length_validated(self):
        with pytest.raises(DimensionError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_amplitudes_immutable(self):
        s = make_ghz(3)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cluster_uniqueness(self, n, rng):
        """Projecting 50 random states onto the joint +1 eigenspace always
        lands on a multiple of the constructed cluster state."""
        letters = [g.ops for g in cluster_generators(n).generators]
        target = make_cluster(n).amplitudes
        for _ in range(50):
            phi = random_state_vector(rng, n)
            for ops in letters:
                phi = (phi + dense_pauli(ops) @ phi) / 2.0
            norm = np.linalg.norm(phi)
            assert norm > 1e-12
            assert abs(np.vdot(target, phi / norm)) == pytest.approx(1.0, abs=1e-10)

    def test_cluster_4_schmidt_ranks(self):
        state = make_cluster(4)
        for part in [(1,), (1, 2)]:
            sv = schmidt_coefficients(state, part)
            assert np.sum(sv > 1e-10) == 2


class TestApplyPauli:
    def test_x_flips(self):
        one = apply_pauli(PauliString.parse("X"),
                          StateVector(1, np.array([1.0, 0.0])))
        assert np.allclose(one.amplitudes, [0.0, 1.0])

    def test_zz_fixes_bell(self):
        bell = StateVector(2, np.array([SQRT1_2, 0, 0, SQRT1_2]))
        out = apply_pauli(PauliString.parse("ZZ"), bell)
        assert np.allclose(out.amplitudes, bell.amplitudes)

    def test_xxx_fixes_ghz3(self):
        state = make_ghz(3)
        out = apply_pauli(PauliString.parse("XXX"), state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_phase_action(self):
        # Y|0> = i|1>
        out = apply_pauli(PauliString.parse("Y"),
                          StateVector(1, np.array([1.0, 0.0])))
        assert np.allclose(out.amplitudes, [0.0, 1j])

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            apply_pauli(PauliString.parse("XX"), make_ghz(3))

    def test_norm_preserved_random(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            phase = [1, -1, 1j, -1j][int(rng.integers(4))]
            state = StateVector(n, random_state_vector(rng, n))
            out = apply_pauli(PauliString.from_ops(letters, phase), state)
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    @given(data=st.data(), n=st.integers(2, 6))
    def test_matches_dense_oracle(self, data, n):
        letters = data.draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        seed = data.draw(st.integers(0, 2**31))
        vec = random_state_vector(np.random.default_rng(seed), n)
        out = apply_pauli(PauliString.from_ops(letters), StateVector(n, vec))
        assert np.allclose(out.amplitudes, dense_pauli(letters) @ vec, atol=1e-12)


class TestExpectation:
    def test_stabilizer_on_ghz(self):
        assert expectation(PauliString.parse("XXX"), make_ghz(3)) == pytest.approx(1.0)

    def test_identity_on_noisy(self):
        noisy = white_noise_mix(0.37, make_ghz(4))
        assert expectation(PauliString.identity(4), noisy) == pytest.approx(1.0)

    def test_traceless_pauli_on_half_noise(self):
        noisy = white_noise_mix(0.5, make_ghz(3))
        assert expectation(PauliString.parse("XXX"), noisy) == pytest.approx(0.5)

    def test_threshold_state_gives_zero(self):
        w = build_witness("ghz", 3)
        noisy = white_noise_mix(0.4, make_ghz(3))
        assert abs(expectation(w, noisy)) < 1e-12

    def test_full_noise_kills_traceless_terms(self):
        noisy = white_noise_mix(1.0, make_ghz(3))
        for text in ("XXX", "ZZI", "ZIZ", "YYX"):
            assert expectation(PauliString.parse(text), noisy) == 0.0

    def test_zero_noise_equals_pure(self, rng):
        state = StateVector(4, random_state_vector(rng, 4))
        noisy = white_noise_mix(0.0, state)
        for _ in range(20):
            letters = "".join(rng.choice(list("IXYZ"), size=4))
            p = PauliString.from_ops(letters)
            assert expectation(p, noisy) == pytest.approx(expectation(p, state), abs=1e-14)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_affine_in_noise_vs_density_matrix(self, n, rng):
        state = StateVector(n, random_state_vector(rng, n))
        w = build_witness("ghz", n)
        strings = [PauliString.from_ops("".join(rng.choice(list("IXYZ"), size=n)))
                   for _ in range(5)]
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            rho = density_matrix(p, state.amplitudes)
            noisy = white_noise_mix(p, state)
            for s in strings:
                want = dense_expectation(dense_pauli(s.ops), rho)
                assert expectation(s, noisy) == pytest.approx(want, abs=1e-10)
            from oracles import dense_operator_from_terms
            want = dense_expectation(dense_operator_from_terms(w.terms), rho)
            assert expectation(w, noisy) == pytest.approx(want, abs=1e-10)

    def test_non_hermitian_raises(self):
        plus = StateVector(1, np.array([SQRT1_2, SQRT1_2]))
        with pytest.raises(NumericError):
            expectation(PauliString.from_ops("X", phase=1j), plus)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            expectation(PauliString.parse("XX"), make_ghz(3))

    def test_noise_fraction_domain(self):
        with pytest.raises(DomainError):
            white_noise_mix(-0.1, make_ghz(2))
        with pytest.raises(DomainError):
            white_noise_mix(1.1, make_ghz(2))


class TestProjectorExpectation:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_dense_projector(self, n, rng):
        from oracles import dense_projector, ghz_generator_letters

        gens = ghz_generators(n).generators
        state = StateVector(n, random_state_vector(rng, n))
        got = stabilizer_projector_expectation(state, gens[1:])
        dense = dense_projector(ghz_generator_letters(n)[1:], n)
        assert got == pytest.approx(dense_expectation(dense, state.amplitudes), abs=1e-12)

    def test_target_state_gives_one(self):
        state = make_cluster(5)
        gens = cluster_generators(5).generators
        assert stabilizer_projector_expectation(state, gens) == pytest.approx(1.0)


class TestLocalUnitaryInvariants:
    def test_cluster3_matches_ghz3_spectra(self):
        """The three-qubit cluster and GHZ states share all single-qubit
        reduced spectra and all bipartition Schmidt spectra."""
        c3, g3 = make_cluster(3), make_ghz(3)
        for part in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
            sc = np.sort(schmidt_coefficients(c3, part))
            sg = np.sort(schmidt_coefficients(g3, part))
            assert np.allclose(sc, sg, atol=1e-12)

    def test_schmidt_domain_errors(self):
        with pytest.raises(DomainError):
            schmidt_coefficients(make_ghz(3), ())
        with pytest.raises(DomainError):
            schmidt_coefficients(make_ghz(3), (1, 2, 3))
        with pytest.raises(DomainError):
            schmidt_coefficients(make_ghz(3), (0,))

