"""Witness construction, expectation values, and noise thresholds."""
import json

import numpy as np
import pytest
from scipy.optimize import brentq

from stabwit import (
    DomainError,
    PauliString,
    StateVector,
    Witness,
    build_witness,
    expectation,
    generators_for,
    get_family,
    make_cluster,
    make_ghz,
    noise_threshold,
    noisy_target_expectation,
    settings_for,
    stabilizer_projector_expectation,
    target_state,
    white_noise_mix,
)

from oracles import (
    cluster_generator_letters,
    dense_expectation,
    dense_operator_from_terms,
    dense_projector,
    dense_witness_from_projectors,
    ghz_generator_letters,
    random_state_vector,
    setting_distributions,
    setting_measures,
)


def ghz_projector_letters(n):
    gens = ghz_generator_letters(n)
    return gens[:1], gens[1:]


def cluster_projector_letters(n):
    gens = cluster_generator_letters(n)
    even = [gens[k - 1] for k in range(2, n + 1, 2)]
    odd = [gens[k - 1] for k in range(1, n + 1, 2)]
    return even, odd


class TestConstruction:
    def test_ghz3_expansion_frozen(self):
        w = build_witness("ghz", 3)
        want = {"+III": 1.5, "+XXX": -1.0, "+ZZI": -0.5, "+IZZ": -0.5, "+ZIZ": -0.5}
        assert {str(t): c for t, c in w.terms.items()} == want

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ghz_matches_projector_oracle(self, n):
        w = build_witness("ghz", n)
        dense = dense_witness_from_projectors(*ghz_projector_letters(n), n)
        assert np.allclose(dense_operator_from_terms(w.terms), dense, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cluster_matches_projector_oracle(self, n):
        w = build_witness("cluster", n)
        dense = dense_witness_from_projectors(*cluster_projector_letters(n), n)
        assert np.allclose(dense_operator_from_terms(w.terms), dense, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_term_counts(self, n):
        assert len(build_witness("ghz", n).terms) == 2 ** (n - 1) + 1
        assert len(build_witness("cluster", n).terms) == \
            2 ** (n // 2) + 2 ** ((n + 1) // 2) - 1

    def test_identity_merging(self):
        w = build_witness("cluster", 4)
        identities = [t for t in w.terms if t.x_bits == 0 and t.z_bits == 0]
        assert len(identities) == 1
        assert w.terms[PauliString.identity(4)] == pytest.approx(2.0)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_terms_fit_the_two_settings(self, family, n):
        w = build_witness(family, n)
        a, b = settings_for(family, n)
        for term in w.terms:
            assert setting_measures(a, term) or setting_measures(b, term)

    def test_settings_metadata(self):
        """Settings follow from (family, n) alone, so no terms are needed."""
        for n in range(2, 21):
            assert [s.axes for s in settings_for("ghz", n)] == ["x" * n, "z" * n]
            assert [s.axes for s in settings_for("cluster", n)] == \
                [("xz" * n)[:n], ("zx" * n)[:n]]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_witness("ghz", 1)
        with pytest.raises(DomainError):
            build_witness("cluster", 1)
        with pytest.raises(DomainError):
            build_witness("w_state", 4)

    def test_rejects_negative_phase_terms(self):
        minus = PauliString.from_ops("XX", phase=-1)
        with pytest.raises(DomainError):
            Witness(2, "ghz", {minus: 1.0})


class TestExpectation:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_target_values(self, n):
        assert abs(expectation(build_witness("ghz", n), make_ghz(n)) + 1.0) < 1e-12
        assert abs(expectation(build_witness("cluster", n), make_cluster(n)) + 1.0) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_zeros_gives_zero(self, n):
        zeros = np.zeros(1 << n)
        zeros[0] = 1.0
        value = expectation(build_witness("ghz", n), StateVector(n, zeros))
        assert abs(value) < 1e-12

    def test_ghz3_full_noise(self):
        noisy = white_noise_mix(1.0, make_ghz(3))
        assert expectation(build_witness("ghz", 3), noisy) == pytest.approx(1.5)

    def test_cluster4_maximally_mixed(self):
        noisy = white_noise_mix(1.0, make_cluster(4))
        assert expectation(build_witness("cluster", 4), noisy) == pytest.approx(2.0)

    def test_cluster4_at_third_noise(self):
        noisy = white_noise_mix(1.0 / 3.0, make_cluster(4))
        assert abs(expectation(build_witness("cluster", 4), noisy)) < 1e-9

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_decomposition_fidelity(self, family, n, rng):
        """Term-sum evaluation equals the dense matrix on random states."""
        w = build_witness(family, n)
        dense = dense_operator_from_terms(w.terms)
        for _ in range(100):
            vec = random_state_vector(rng, n)
            got = expectation(w, StateVector(n, vec))
            assert got == pytest.approx(dense_expectation(dense, vec), abs=1e-10)

    def test_random_states_above_minus_one(self, rng):
        for n in (3, 4, 5):
            for family in ("ghz", "cluster"):
                w = build_witness(family, n)
                for _ in range(60):
                    vec = StateVector(n, random_state_vector(rng, n))
                    assert expectation(w, vec) > -0.999


class TestProjectorTraces:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_trace_fields(self, n):
        ghz = noise_threshold("ghz", n)
        assert (ghz.trace_p1, ghz.trace_p2) == (2.0 ** (n - 1), 2.0)
        cluster = noise_threshold("cluster", n)
        assert (cluster.trace_p1, cluster.trace_p2) == \
            (2.0 ** ((n + 1) // 2), 2.0 ** (n // 2))

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_identity_coefficient_encodes_traces(self, family, n):
        w = build_witness(family, n)
        report = noise_threshold(family, n)
        want = 3.0 - 2.0 * (report.trace_p1 + report.trace_p2) / 2 ** n
        assert w.terms[PauliString.identity(n)] == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_traces_against_dense_projectors(self, n):
        for family, splitter in (("ghz", ghz_projector_letters),
                                 ("cluster", cluster_projector_letters)):
            first, second = splitter(n)
            report = noise_threshold(family, n)
            assert np.trace(dense_projector(first, n)).real == pytest.approx(report.trace_p1)
            assert np.trace(dense_projector(second, n)).real == pytest.approx(report.trace_p2)


GHZ_TABLE = {2: 0.50, 3: 0.40, 4: 0.36, 5: 0.35, 6: 0.34, 7: 0.34, 8: 0.34,
             9: 0.33, 10: 0.33}
CLUSTER_TABLE = {2: 0.50, 3: 0.40, 4: 0.33, 5: 0.31, 6: 0.29, 7: 0.28, 8: 0.27,
                 9: 0.26, 10: 0.26}


class TestNoiseThreshold:
    @pytest.mark.parametrize("n,want", sorted(GHZ_TABLE.items()))
    def test_ghz_reference_row(self, n, want):
        assert noise_threshold("ghz", n).p_threshold == pytest.approx(want, abs=0.005)

    @pytest.mark.parametrize("n,want", sorted(CLUSTER_TABLE.items()))
    def test_cluster_reference_row(self, n, want):
        assert noise_threshold("cluster", n).p_threshold == pytest.approx(want, abs=0.005)

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_routes_agree(self, family, n):
        report = noise_threshold(family, n)
        assert abs(report.p_closed_form - report.p_root_find) < 1e-9

    @pytest.mark.parametrize("family,table", [("ghz", GHZ_TABLE),
                                              ("cluster", CLUSTER_TABLE)])
    def test_monotone_in_n(self, family, table):
        values = [noise_threshold(family, n).p_threshold for n in range(2, 17)]
        assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_bounds(self, family):
        for n in range(2, 17):
            p = noise_threshold(family, n).p_threshold
            assert 0.0 < p <= 0.5

    def test_large_n_limits(self):
        ghz = noise_threshold("ghz", 20).p_threshold
        assert ghz > 1.0 / 3.0
        assert ghz - 1.0 / 3.0 < 1e-5
        assert noise_threshold("cluster", 20).p_threshold > 0.25

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_against_independent_root_find(self, family, n):
        """Root of the literal term-sum expectation, found without any of the
        library's threshold machinery."""
        w = build_witness(family, n)
        target = target_state(family, n)
        root = brentq(lambda p: expectation(w, white_noise_mix(p, target)),
                      0.0, 1.0, xtol=1e-14)
        assert noise_threshold(family, n).p_threshold == pytest.approx(root, abs=1e-9)

    def test_reports_the_closed_form(self):
        report = noise_threshold("ghz", 5)
        assert report.p_threshold == report.p_closed_form
        assert report.to_dict()["method"] == "closed_form"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            noise_threshold("ghz", 1)
        with pytest.raises(DomainError):
            noise_threshold("unknown", 4)


class TestNoisyTargetExpectation:
    @pytest.mark.parametrize("family,n", [(family, n) for family in ("ghz", "cluster")
                                          for n in (2, 5, 9, 13, 14)])
    def test_structural_path_matches_term_path(self, family, n):
        """The projector evaluation is the only route; pin it against the
        explicit Pauli expansion."""
        w = build_witness(family, n)
        state = target_state(family, n)
        for p in (0.0, 0.4, 1.0):
            want = expectation(w, white_noise_mix(p, state))
            assert noisy_target_expectation(family, n, p) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_projector_reference(self, family, n):
        """The value read off the two settings' distributions against the
        sequential projection of the statevector, for both thresholds' ends
        and in between."""
        state = target_state(family, n)
        gens = generators_for(family, n).generators
        first, second = get_family(family).projector_sets(n)
        pure = 3.0 - 2.0 * sum(stabilizer_projector_expectation(
            state, [gens[k - 1] for k in indices]) for indices in (first, second))
        identity = 3.0 - 2.0 * (2.0 ** -len(first) + 2.0 ** -len(second))
        for p in (0.0, 0.2, 0.5, 1.0):
            want = p * identity + (1.0 - p) * pure
            assert abs(noisy_target_expectation(family, n, p) - want) <= 1e-12

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_line_matches_the_mixed_distributions(self, family, n):
        """The witness line against the even-parity mass of the noisy
        target's own dense Born distributions, at the threshold and on a
        grid; the line's pure value, read off the distributions built from
        the generators, is exactly -1."""
        line = noise_threshold(family, n).line
        target = target_state(family, n)
        for p in [k / 20 for k in range(21)] + [get_family(family).closed_form_threshold(n)]:
            mixed = setting_distributions(white_noise_mix(p, target), family)[2]
            assert abs(line.at(p) - mixed) <= 1e-14
            assert noisy_target_expectation(family, n, p) == line.at(p)
        assert line.pure == -1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            noisy_target_expectation("ghz", 4, 1.5)


class TestSerialization:
    def test_threshold_report_schema_valid(self):
        import jsonschema
        from importlib import resources

        schema = json.loads(resources.files("stabwit")
                            .joinpath("schemas/threshold_report.schema.json").read_text())
        jsonschema.validate(noise_threshold("cluster", 6).to_dict(), schema)

    def test_negated(self):
        w = build_witness("ghz", 3)
        neg = w.negated()
        assert expectation(neg, make_ghz(3)) == pytest.approx(1.0)
