"""Biseparability certification by alternating eigenvector minimisation."""
import numpy as np
import pytest

from stabwit import (
    Bipartition,
    BisepReport,
    CutResult,
    DimensionError,
    DomainError,
    PauliString,
    StateVector,
    Witness,
    bisep,
    build_witness,
    certify,
    enumerate_bipartitions,
    expectation,
    min_over_cut,
)
from stabwit.bisep import (
    _contract,
    _cut_orbits,
    _minimal_eigvec,
    _site_symmetries,
    _split_terms,
    see_saw_once,
)

import oracles
from oracles import (
    keyed_minimal_eigvec,
    per_term_contract,
    per_term_split,
    product_state,
    random_state_vector,
)


def _witnesses(ns):
    """Both families and their negations over the given qubit counts."""
    for family in ("ghz", "cluster"):
        for n in ns:
            w = build_witness(family, n)
            yield w
            yield w.negated()


class TestBipartitions:
    def test_three_qubits(self):
        cuts = enumerate_bipartitions(3)
        assert [(c.part_a, c.part_b) for c in cuts] == [
            ((1,), (2, 3)), ((1, 2), (3,)), ((1, 3), (2,))]

    def test_counts(self):
        assert len(enumerate_bipartitions(2)) == 1
        assert len(enumerate_bipartitions(4)) == 7
        for n in range(2, 9):
            assert len(enumerate_bipartitions(n)) == 2 ** (n - 1) - 1

    def test_canonical_form(self):
        for cut in enumerate_bipartitions(5):
            assert 1 in cut.part_a
            assert set(cut.part_a) | set(cut.part_b) == set(range(1, 6))
            assert not set(cut.part_a) & set(cut.part_b)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            enumerate_bipartitions(1)
        with pytest.raises(DomainError):
            enumerate_bipartitions(13)
        with pytest.raises(DomainError):
            Bipartition(3, (2,), (1, 3))  # site 1 not in part A
        with pytest.raises(DomainError):
            Bipartition(3, (1, 2, 3), ())


class TestProductState:
    def test_contiguous_cut(self):
        cut = Bipartition.from_part_a(3, (1,))
        a = np.array([0.6, 0.8])
        b = np.array([0.0, 1.0, 0.0, 0.0])
        state = product_state(cut, a, b)
        want = np.kron(a, b)
        assert np.allclose(state.amplitudes, want, atol=1e-15)

    def test_interleaved_cut(self, rng):
        """Amplitudes factor as a[bits at part A] * b[bits at part B]."""
        cut = Bipartition.from_part_a(4, (1, 3))
        a = random_state_vector(rng, 2)
        b = random_state_vector(rng, 2)
        state = product_state(cut, a, b)
        for s in range(16):
            bits = [(s >> (4 - q)) & 1 for q in range(1, 5)]
            ia = (bits[0] << 1) | bits[2]
            ib = (bits[1] << 1) | bits[3]
            assert state.amplitudes[s] == pytest.approx(a[ia] * b[ib], abs=1e-14)

    def test_dimension_error(self):
        cut = Bipartition.from_part_a(3, (1,))
        with pytest.raises(Exception):
            product_state(cut, np.ones(4), np.ones(4))


class TestHalfStep:
    """The tabulated half-step against the per-term loop it replaced."""

    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_contract_matches_per_term_loop(self, family, n, negate, rng):
        w = build_witness(family, n)
        if negate:
            w = w.negated()
        for cut in enumerate_bipartitions(n):
            table, split = _split_terms(w.terms, cut), per_term_split(w.terms, cut)
            na, nb = len(cut.part_a), len(cut.part_b)
            a, b = random_state_vector(rng, na), random_state_vector(rng, nb)
            got = _contract(table, b, fixed_side=1)
            want = per_term_contract(split, b, fixed_side=1, dim=1 << na)
            assert np.max(np.abs(got - want)) <= 1e-12
            got = _contract(table, a, fixed_side=0)
            want = per_term_contract(split, a, fixed_side=0, dim=1 << nb)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_table_size_is_linear_in_terms(self):
        w = build_witness("cluster", 6)
        for cut in enumerate_bipartitions(6):
            table = _split_terms(w.terms, cut)
            assert np.count_nonzero(table.coeffs) == len(w.terms)
            for side, factors in zip(table.sides, table.coeffs.shape):
                assert factors <= len(w.terms)
                assert side.rows.shape == side.vals.shape == (factors, side.dim)
                assert side.flat.size == side.signed.size == factors * side.dim

    def test_nondegenerate_minimum_matches_keyed_choice(self, rng):
        for dim in (2, 4, 8, 16):
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = h + h.conj().T
            value, vec = _minimal_eigvec(m)
            want_value, want_vec = keyed_minimal_eigvec(m)
            assert value == want_value
            assert np.array_equal(vec, want_vec)

    def test_degenerate_minimum_is_a_stable_normalised_eigenvector(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        m = q @ np.diag([-1.0, -1.0, -1.0, 0.5, 1.0, 2.0, 2.5, 3.0]) @ q.conj().T
        m = (m + m.conj().T) / 2
        value, vec = _minimal_eigvec(m)
        assert value == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(m @ vec - value * vec)) <= 1e-12
        lead = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
        assert lead.imag == 0.0 and lead.real > 0.0
        again = _minimal_eigvec(m)
        assert again[0] == value and np.array_equal(again[1], vec)
        assert np.array_equal(vec, keyed_minimal_eigvec(m)[1])


class TestSeeSaw:
    def test_value_history_never_increases(self, rng):
        w = build_witness("ghz", 3)
        for cut in enumerate_bipartitions(3):
            split = _split_terms(w.terms, cut)
            for _ in range(5):
                trace = see_saw_once(
                    split,
                    random_state_vector(rng, len(cut.part_a)),
                    random_state_vector(rng, len(cut.part_b)))
                diffs = np.diff(trace.history)
                assert np.all(diffs <= 1e-9)
                assert trace.converged

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ghz_minimum_is_zero(self, n):
        w = build_witness("ghz", n)
        for cut in enumerate_bipartitions(n):
            result = min_over_cut(w, cut, restarts=10, seed=0)
            assert abs(result.min_value) < 1e-7
            assert result.converged

    def test_analytic_zero_point(self):
        """|000> is biseparable across every cut and gives exactly zero, an
        upper bound the optimiser must reach."""
        w = build_witness("ghz", 3)
        zeros = np.zeros(8)
        zeros[0] = 1.0
        assert expectation(w, StateVector(3, zeros)) == pytest.approx(0.0)

    def test_argmin_reproduces_value_independently(self):
        for family in ("ghz", "cluster"):
            w = build_witness(family, 3)
            for cut in enumerate_bipartitions(3):
                result = min_over_cut(w, cut, restarts=8, seed=1)
                full = product_state(cut, result.state_a, result.state_b)
                assert expectation(w, full) == pytest.approx(result.min_value, abs=1e-9)

    def test_deterministic_given_seed(self):
        w = build_witness("cluster", 3)
        cut = enumerate_bipartitions(3)[0]
        r1 = min_over_cut(w, cut, restarts=6, seed=42)
        r2 = min_over_cut(w, cut, restarts=6, seed=42)
        assert r1.min_value == r2.min_value
        assert np.array_equal(r1.state_a, r2.state_a)
        assert np.array_equal(r1.state_b, r2.state_b)

    def test_start_vectors_must_fit_the_cut(self, rng):
        cut = enumerate_bipartitions(3)[0]
        split = _split_terms(build_witness("ghz", 3).terms, cut)
        a, b = random_state_vector(rng, 1), random_state_vector(rng, 2)
        see_saw_once(split, a, b)
        with pytest.raises(DimensionError):
            see_saw_once(split, b, a)

    def test_equals_restart_that_contracts_its_first_operator_twice(self, rng):
        for w in _witnesses(range(2, 6)):
            for cut in enumerate_bipartitions(w.n):
                split = _split_terms(w.terms, cut)
                for _ in range(3):
                    a = random_state_vector(rng, len(cut.part_a))
                    b = random_state_vector(rng, len(cut.part_b))
                    got, want = see_saw_once(split, a, b), oracles.see_saw_once(split, a, b)
                    assert got.value == want.value
                    assert np.array_equal(got.state_a, want.state_a)
                    assert np.array_equal(got.state_b, want.state_b)
                    assert (got.converged, got.iterations) == (want.converged, want.iterations)
                    assert got.history == want.history

    def test_restart_domain(self):
        w = build_witness("ghz", 2)
        with pytest.raises(DomainError):
            min_over_cut(w, enumerate_bipartitions(2)[0], restarts=0)


class TestCertify:
    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witnesses_pass(self, family, n):
        report = certify(build_witness(family, n), restarts=20, seed=0)
        assert report.passed
        assert -1e-6 <= report.global_min <= 1e-6
        assert len(report.cuts) == 2 ** (n - 1) - 1
        assert all(c.converged for c in report.cuts)

    def test_negated_control_fails(self):
        report = certify(build_witness("ghz", 3).negated(), restarts=10, seed=0)
        assert not report.passed
        assert report.global_min < -1.0  # reaches the -3 eigenvalue

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_minimum_respects_spectrum_floor(self, family):
        # these witnesses have smallest eigenvalue -1
        report = certify(build_witness(family, 3), restarts=10, seed=3)
        assert all(c.min_value >= -1.0 - 1e-9 for c in report.cuts)

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_stable_under_doubled_restarts(self, family):
        for n in (2, 3, 4):
            w = build_witness(family, n)
            a = certify(w, restarts=20, seed=0).global_min
            b = certify(w, restarts=40, seed=0).global_min
            assert abs(a - b) < 1e-6

    @staticmethod
    def _schema():
        import json
        from importlib import resources

        return json.loads(resources.files("stabwit")
                          .joinpath("schemas/bisep_report.schema.json").read_text())

    def test_report_round_trip_and_schema(self):
        import jsonschema

        report = certify(build_witness("ghz", 3), restarts=5, seed=0)
        d = report.to_dict()
        jsonschema.validate(d, self._schema())
        assert d["global_min"] == min(c["min_value"] for c in d["cuts"])

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_schema_accepts_carried_cuts(self, family):
        import jsonschema

        report = certify(build_witness(family, 4), restarts=5, seed=0)
        d = report.to_dict()
        jsonschema.validate(d, self._schema())
        assert [c["orbit_of"] for c in d["cuts"]] == [
            list((c.orbit_of or c.cut).part_a) for c in report.cuts]
        assert any(c["orbit_of"] != c["part_a"] for c in d["cuts"])
        del d["cuts"][0]["orbit_of"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(d, self._schema())

    def test_argmin_cut(self):
        report = certify(build_witness("cluster", 3), restarts=5, seed=0)
        tied = [c for c in report.cuts if c.min_value - report.global_min <= 1e-10]
        assert report.argmin_cut is tied[0]

    @staticmethod
    def _report(minima):
        cuts = tuple(CutResult(cut, value, np.ones(1 << len(cut.part_a)),
                               np.ones(1 << len(cut.part_b)), True, 1)
                     for cut, value in zip(enumerate_bipartitions(3), minima))
        return BisepReport("ghz", 3, 1, 0, cuts, min(minima), True)

    def test_argmin_is_the_first_tied_cut(self):
        report = self._report([1e-15, 0.0, 2e-15])
        assert report.argmin_cut is report.cuts[0]
        assert report.to_dict()["argmin"]["part_a"] == [1]

    def test_argmin_takes_a_clearly_lower_later_cut(self):
        report = self._report([0.0, 1e-15, -1e-6])
        assert report.argmin_cut is report.cuts[2]


class TestCutOrbits:
    """One see-saw per orbit of cuts under the checked site symmetries."""

    @staticmethod
    def _orbit_count(w):
        cuts = enumerate_bipartitions(w.n)
        return len({first for first, _ in _cut_orbits(cuts, _site_symmetries(w.terms, w.n))})

    def test_ghz_cut_sizes_are_the_orbits(self):
        for n in range(2, 9):
            assert self._orbit_count(build_witness("ghz", n)) == n // 2
        assert self._orbit_count(build_witness("ghz", 12)) == 6

    def test_cluster_orbits_under_reflection(self):
        counts = {n: self._orbit_count(build_witness("cluster", n)) for n in (3, 4, 5)}
        assert counts == {3: 2, 4: 5, 5: 9}

    def test_checked_symmetries(self):
        for n in range(3, 9):
            ghz, cluster = (_site_symmetries(build_witness(f, n).terms, n)
                            for f in ("ghz", "cluster"))
            assert len(ghz) == n  # every adjacent transposition and the reflection
            assert cluster == [tuple(range(n, 0, -1))]

    def test_representative_is_first_and_maps_onto_each_cut(self):
        for w in _witnesses(range(2, 7)):
            cuts = enumerate_bipartitions(w.n)
            for i, (first, site_map) in enumerate(_cut_orbits(cuts, _site_symmetries(w.terms, w.n))):
                assert first <= i
                image = {site_map[q - 1] for q in cuts[first].part_a}
                assert image in (set(cuts[i].part_a), set(cuts[i].part_b))

    @pytest.mark.parametrize("family, letters", [("ghz", "ZIZI"), ("cluster", "XZII")])
    def test_perturbed_term_breaks_the_symmetry(self, family, letters, monkeypatch):
        w = build_witness(family, 4)
        term = PauliString.from_ops(letters)
        assert term in w.terms
        terms = dict(w.terms)
        terms[term] += 1e-3
        perturbed = Witness(4, family, terms)
        assert _site_symmetries(perturbed.terms, 4) == []

        calls = []
        direct = bisep.min_over_cut
        monkeypatch.setattr(bisep, "min_over_cut",
                            lambda *args, **kw: calls.append(args[1]) or direct(*args, **kw))
        report = certify(perturbed, restarts=5, seed=2)
        cuts = enumerate_bipartitions(4)
        assert calls == cuts
        assert all(c.orbit_of is None for c in report.cuts)
        assert [c.min_value for c in report.cuts] == [
            direct(perturbed, cut, restarts=5, seed=2).min_value for cut in cuts]

    def test_representatives_equal_direct_runs(self):
        for w in _witnesses(range(2, 6)):
            for c in certify(w, restarts=5, seed=3).cuts:
                if c.orbit_of is not None:
                    continue
                direct = min_over_cut(w, c.cut, restarts=5, seed=3)
                assert c.min_value == direct.min_value
                assert np.array_equal(c.state_a, direct.state_a)
                assert np.array_equal(c.state_b, direct.state_b)
                assert (c.converged, c.restarts) == (direct.converged, direct.restarts)

    def test_carried_cuts_reach_their_minimum_on_their_own_cut(self):
        for w in _witnesses(range(2, 7)):
            report = certify(w, restarts=20, seed=0)
            for c in report.cuts:
                value = expectation(w, product_state(c.cut, c.state_a, c.state_b))
                assert abs(value - c.min_value) <= 1e-12
                if c.orbit_of is not None:
                    own = min_over_cut(w, c.cut, restarts=20, seed=0)
                    assert abs(own.min_value - c.min_value) <= 1e-9
            assert report.argmin_cut.orbit_of is None

    def test_carried_cut_copies_its_representative(self):
        report = certify(build_witness("cluster", 4), restarts=5, seed=0)
        by_part = {c.cut.part_a: c for c in report.cuts}
        carried = [c for c in report.cuts if c.orbit_of is not None]
        assert [(c.cut.label, c.orbit_of.label) for c in carried] == [
            ("1,2,3|4", "1|2,3,4"), ("1,3,4|2", "1,2,4|3")]
        for c in carried:
            rep = by_part[c.orbit_of.part_a]
            assert (c.min_value, c.converged, c.restarts) == (
                rep.min_value, rep.converged, rep.restarts)
