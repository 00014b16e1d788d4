"""Measurement settings, outcome sampling, and the two-setting estimator."""
import types

import numpy as np
import pytest

from stabwit import (
    ContractError,
    CountsTable,
    DimensionError,
    DomainError,
    GeneratorSet,
    MeasurementSetting,
    NumericError,
    PauliString,
    StateVector,
    draw_counts,
    estimate_witness,
    expectation,
    generators_for,
    make_cluster,
    make_ghz,
    noisy_target_expectation,
    outcome_distribution,
    sample_outcomes,
    settings_for,
    stabilizer_distributions,
    target_state,
    white_noise_mix,
)

from stabwit.measurement import _setting_generators

import oracles
from oracles import (
    copying_outcome_distribution,
    dense_pauli,
    formatted_counts,
    loop_pass_fraction,
    random_state_vector,
    setting_distributions,
    setting_measures,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


class TestSettings:
    def test_ghz_settings(self):
        a, b = settings_for("ghz", 3)
        assert (a.axes, b.axes) == ("xxx", "zzz")

    def test_cluster_settings(self):
        a, b = settings_for("cluster", 4)
        assert (a.axes, b.axes) == ("xzxz", "zxzx")

    def test_cluster_two_qubits(self):
        a, b = settings_for("cluster", 2)
        assert (a.axes, b.axes) == ("xz", "zx")

    def test_deterministic(self):
        assert settings_for("ghz", 5) == settings_for("ghz", 5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            settings_for("ghz", 1)
        with pytest.raises(DomainError):
            settings_for("w_state", 3)
        with pytest.raises(DomainError):
            MeasurementSetting(2, "xy")

    def test_setting_measures(self):
        xz = MeasurementSetting(2, "xz")
        assert setting_measures(xz, PauliString.parse("XZ"))
        assert setting_measures(xz, PauliString.parse("XI"))
        assert not setting_measures(xz, PauliString.parse("ZX"))
        assert not setting_measures(xz, PauliString.parse("YZ"))


class TestOutcomeDistribution:
    def test_ghz3_all_z(self):
        dist = outcome_distribution(make_ghz(3), settings_for("ghz", 3)[1])
        want = np.zeros(8)
        want[0] = want[7] = 0.5
        assert np.allclose(dist, want, atol=1e-14)

    def test_ghz2_all_x_against_rotation_oracle(self):
        dist = outcome_distribution(make_ghz(2), settings_for("ghz", 2)[0])
        rotated = np.kron(H, H) @ make_ghz(2).amplitudes
        assert np.allclose(dist, np.abs(rotated) ** 2, atol=1e-14)
        assert np.allclose(dist, [0.5, 0, 0, 0.5], atol=1e-14)

    def test_full_noise_is_uniform(self):
        noisy = white_noise_mix(1.0, make_cluster(3))
        for setting in settings_for("cluster", 3):
            dist = outcome_distribution(noisy, setting)
            assert np.allclose(dist, np.full(8, 1 / 8), atol=1e-14)

    def test_normalisation(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            state = StateVector(n, random_state_vector(rng, n))
            axes = "".join(rng.choice(["x", "z"], size=n))
            dist = outcome_distribution(state, MeasurementSetting(n, axes))
            assert dist.min() >= 0.0
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginals_match_single_qubit_expectations(self, rng):
        """P(bit=0) - P(bit=1) at site q equals <axis observable at q>."""
        n = 5
        state = StateVector(n, random_state_vector(rng, n))
        for axes in ("xxxxx", "zzzzz", "xzxzx", "zxzxz"):
            dist = outcome_distribution(state, MeasurementSetting(n, axes))
            idx = np.arange(32)
            for q in range(1, n + 1):
                bit = (idx >> (n - q)) & 1
                marginal = dist[bit == 0].sum() - dist[bit == 1].sum()
                letters = ["I"] * n
                letters[q - 1] = axes[q - 1].upper()
                want = expectation(PauliString.from_ops(letters), state)
                assert marginal == pytest.approx(want, abs=1e-12)

    def test_noisy_mix_is_affine(self, rng):
        state = StateVector(3, random_state_vector(rng, 3))
        setting = MeasurementSetting(3, "xzx")
        pure = outcome_distribution(state, setting)
        noisy = outcome_distribution(white_noise_mix(0.3, state), setting)
        assert np.allclose(noisy, 0.3 / 8 + 0.7 * pure, atol=1e-14)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            outcome_distribution(make_ghz(3), MeasurementSetting(2, "xx"))

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_butterfly_equals_copying_rotation(self, family, n):
        """The in-place butterfly gives the probabilities of the copying
        rotation it replaced, bit for bit, pure and noisy."""
        state = target_state(family, n)
        for setting in settings_for(family, n):
            for s in (state, white_noise_mix(0.3, state)):
                assert np.array_equal(outcome_distribution(s, setting),
                                      copying_outcome_distribution(s, setting))

    def test_butterfly_equals_copying_rotation_on_random_axes(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 13))
            state = StateVector(n, random_state_vector(rng, n))
            setting = MeasurementSetting(n, "".join(rng.choice(["x", "z"], size=n)))
            for s in (state, white_noise_mix(float(rng.uniform(0, 1)), state)):
                assert np.array_equal(outcome_distribution(s, setting),
                                      copying_outcome_distribution(s, setting))


def _signed(gens, signs):
    """The generators with generator k negated where bit k of signs is set."""
    return GeneratorSet(gens[0].n, tuple(
        PauliString(g.n, g.x_bits, g.z_bits, (g.phase_exp + 2 * (signs >> k & 1)) % 4)
        for k, g in enumerate(gens)))


def _product_generators(n, letter, signs):
    """+-Z_k (or +-X_k) on every site k: a product state."""
    bits = [1 << (n - k) for k in range(1, n + 1)]
    return _signed([PauliString(n, b if letter == "X" else 0, b if letter == "Z" else 0, 0)
                    for b in bits], signs)


class TestStabilizerDistributions:
    """The Born distributions built from the generators alone against the
    dense route: the statevector rotated into each setting and squared."""

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 15))
    def test_target_against_the_dense_route(self, family, n):
        settings, dists, value = stabilizer_distributions(generators_for(family, n), family)
        dense_settings, dense_dists, _ = setting_distributions(target_state(family, n), family)
        assert settings == dense_settings
        assert value == -1.0
        for dist, dense in zip(dists, dense_dists):
            support = np.flatnonzero(dist)
            assert np.array_equal(support, np.flatnonzero(dense > 1e-12))
            assert np.max(np.abs(dist - dense)) <= 1e-15
            # uniform on 2^(n-r) outcomes: every entry the same exact dyadic
            n_minus_r = support.size.bit_length() - 1
            assert support.size == 1 << n_minus_r
            assert np.all(dist[support] == 2.0 ** -n_minus_r)
            assert dist.sum() == 1.0

    @staticmethod
    def assert_matches_projected_state(gens, family, rng):
        """Against the dense state a random vector projected by prod (1+g)/2
        gives: same support, probabilities and witness value."""
        _, dists, value = stabilizer_distributions(gens, family)
        state = oracles.projected_stabilizer_state(rng, gens.generators)
        _, dense_dists, dense_value = setting_distributions(state, family)
        for dist, dense in zip(dists, dense_dists):
            assert np.array_equal(np.flatnonzero(dist), np.flatnonzero(dense > 1e-9))
            assert np.max(np.abs(dist - dense)) <= 1e-12
            assert dist.sum() == 1.0
        assert abs(value - dense_value) <= 1e-12
        return value

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_other_family_in_this_familys_settings(self, family, n, rng):
        other = "cluster" if family == "ghz" else "ghz"
        value = self.assert_matches_projected_state(generators_for(other, n), family, rng)
        assert value > -1.0

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("letter", ["Z", "X"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_product_states_with_signs(self, family, letter, n, rng):
        for signs in (0, (1 << n) - 1, int(rng.integers(1 << n))):
            self.assert_matches_projected_state(_product_generators(n, letter, signs),
                                                family, rng)

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_negated_generators(self, family, n, rng):
        """Negated generators move the outcomes by an offset, and the
        witness value off -1."""
        gens = generators_for(family, n).generators
        for signs in (0b10, 1 << (n - 1), int(rng.integers(1, 1 << n))):
            value = self.assert_matches_projected_state(_signed(gens, signs), family, rng)
            assert value > -1.0

    def test_negated_pair_gives_odd_parity(self):
        """GHZ with -Z1Z2: (|01> + |10>)/sqrt(2) in the z setting."""
        gens = _signed(generators_for("ghz", 2).generators, 0b10)
        _, (dist_x, dist_z), _ = stabilizer_distributions(gens, "ghz")
        assert dist_z.tolist() == [0.0, 0.5, 0.5, 0.0]
        assert dist_x.tolist() == [0.5, 0.0, 0.0, 0.5]

    def test_inconsistent_parities_raise(self):
        """+Z1Z2 and -Z1Z2 fix both parities on one support; the generator
        set check rejects them, so the routine sees them only directly."""
        zz = PauliString.from_ops("ZZ")
        gens = types.SimpleNamespace(n=2, generators=(zz, PauliString.from_ops("ZZ", -1)))
        with pytest.raises(NumericError):
            stabilizer_distributions(gens, "ghz")

    def test_imaginary_phase_raises(self):
        gens = GeneratorSet(2, (PauliString.from_ops("ZI", 1j), PauliString.from_ops("IZ")))
        with pytest.raises(NumericError):
            stabilizer_distributions(gens, "ghz")


class TestSampling:
    def test_deterministic_given_seed(self):
        setting = settings_for("ghz", 4)[1]
        a = sample_outcomes(make_ghz(4), setting, 5000, seed=11)
        b = sample_outcomes(make_ghz(4), setting, 5000, seed=11)
        assert a == b
        c = sample_outcomes(make_ghz(4), setting, 5000, seed=12)
        assert dict(a.counts) != dict(c.counts)

    def test_zero_probability_outcomes_never_appear(self):
        table = sample_outcomes(make_ghz(3), settings_for("ghz", 3)[1],
                                100000, seed=5)
        assert set(table.counts) <= {"000", "111"}
        assert sum(table.counts.values()) == 100000

    def test_counts_match_shots(self):
        table = sample_outcomes(make_cluster(3), settings_for("cluster", 3)[0],
                                999, seed=0)
        assert table.shots == 999
        assert sum(table.counts.values()) == 999

    def test_frequency_concentration(self):
        """Each outcome frequency within 5 binomial sigmas for 99%+ of seeds."""
        state = white_noise_mix(0.25, make_ghz(4))
        setting = settings_for("ghz", 4)[0]
        dist = outcome_distribution(state, setting)
        shots = 20000
        bad_seeds = 0
        for seed in range(100):
            table = sample_outcomes(state, setting, shots, seed=seed)
            ok = True
            for i, p in enumerate(dist):
                key = format(i, "04b")
                sigma = np.sqrt(p * (1 - p) / shots)
                if abs(table.counts.get(key, 0) / shots - p) > 5 * sigma + 1e-15:
                    ok = False
            bad_seeds += not ok
        assert bad_seeds <= 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_outcomes(make_ghz(2), settings_for("ghz", 2)[0], 0, seed=0)
        with pytest.raises(DomainError):
            sample_outcomes(make_ghz(2), settings_for("ghz", 2)[0], 10, seed=-1)
        with pytest.raises(DimensionError):
            draw_counts(settings_for("ghz", 3)[0], np.full(4, 0.25), 10, seed=0)
        uniform = np.full(8, 0.125)
        with pytest.raises(DomainError):
            draw_counts(settings_for("ghz", 3)[0], uniform, 2 ** 63, seed=0)
        with pytest.raises(DomainError):
            draw_counts(settings_for("ghz", 3)[0], uniform, 10, seed=2 ** 128)

    @pytest.mark.parametrize("family,n,shots", [("ghz", 2, 50), ("cluster", 5, 3000),
                                                ("ghz", 12, 100000), ("cluster", 20, 100000)])
    def test_keys_equal_per_outcome_formatting(self, family, n, shots):
        """The one-pass key rendering gives the dict of the per-outcome
        format calls it replaced: same keys, counts and order."""
        setting = settings_for(family, n)[0]
        probs = outcome_distribution(white_noise_mix(0.2, target_state(family, n)), setting)
        rng = np.random.Generator(np.random.Philox(key=7))
        want = formatted_counts(rng.multinomial(shots, probs / probs.sum()), n)
        got = draw_counts(setting, probs, shots, seed=7).counts
        assert list(got.items()) == list(want.items())


class TestParityRoutine:
    """The vectorised parity count against the per-key loops it replaced.
    Both sum the same integers, so the results are equal, not close."""

    @staticmethod
    def assert_matches_loops(table_a, table_b, family):
        n = table_a.setting.n
        gens_a, gens_b = _setting_generators(family, n)
        est = estimate_witness(table_a, table_b, family)
        assert est.pass_freq_a == loop_pass_fraction(table_a, gens_a)
        assert est.pass_freq_b == loop_pass_fraction(table_b, gens_b)
        assert est.estimate == 3.0 - 2.0 * (est.pass_freq_a + est.pass_freq_b)

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 21))
    def test_sampled_tables(self, family, n):
        setting_a, setting_b = settings_for(family, n)
        for p in (0.0, 0.2, 1.0):
            state = white_noise_mix(p, target_state(family, n))
            self.assert_matches_loops(sample_outcomes(state, setting_a, 3000, seed=n),
                                      sample_outcomes(state, setting_b, 3000, seed=n + 1),
                                      family)

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_seventy_qubit_tables(self, family, rng):
        """Wider than any fixed-width integer code; the tables mix random
        outcomes with the all-zero outcome, which passes every parity."""
        tables = []
        for setting in settings_for(family, 70):
            keys = ["".join(map(str, row)) for row in rng.integers(0, 2, size=(400, 70))]
            counts = {key: int(c) for key, c in zip(keys, rng.integers(1, 50, size=400))}
            counts["0" * 70] = 5000
            tables.append(CountsTable(setting, sum(counts.values()), counts))
        self.assert_matches_loops(*tables, family)


class TestEstimatorExactLimits:
    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 15))
    def test_equals_full_outcome_matrix_estimator(self, family, n, rng):
        """The null-space enumeration sums the elements the full outcome
        matrix selects, in the same order, so the values are equal."""
        states = [target_state(family, n), StateVector(n, random_state_vector(rng, n))]
        for state in states:
            for p in (0.0, 0.2, 1.0):
                _, dists, value = setting_distributions(white_noise_mix(p, state), family)
                assert value == oracles.estimate_from_distributions(*dists, family, n)

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_exact_distributions_give_minus_one(self, family, n):
        value = setting_distributions(target_state(family, n), family)[2]
        assert value == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_exact_distributions_at_threshold_give_zero(self, family, n):
        from stabwit import noise_threshold

        p_star = noise_threshold(family, n).p_threshold
        state = white_noise_mix(p_star, target_state(family, n))
        value = setting_distributions(state, family)[2]
        assert value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_projector_frequency_identity(self, family, n, rng):
        """Parity-counting over the exact distribution equals the operator
        expectation of the projector, for arbitrary states."""
        from stabwit import generators_for

        state = StateVector(n, random_state_vector(rng, n))
        noisy = white_noise_mix(float(rng.uniform(0, 1)), state)
        value = setting_distributions(noisy, family)[2]
        gens = generators_for(family, n).generators
        if family == "ghz":
            first, second = [gens[0]], list(gens[1:])
        else:
            first = [gens[k - 1] for k in range(1, n + 1, 2)]
            second = [gens[k - 1] for k in range(2, n + 1, 2)]
        want = 3.0
        for sub in (first, second):
            proj = np.eye(1 << n, dtype=complex)
            for g in sub:
                proj = proj @ (dense_pauli(g.ops) + np.eye(1 << n)) / 2.0
            rho = (noisy.p_noise * np.eye(1 << n) / (1 << n)
                   + (1 - noisy.p_noise) * np.outer(state.amplitudes,
                                                    state.amplitudes.conj()))
            want -= 2.0 * np.trace(proj @ rho).real
        assert value == pytest.approx(want, abs=1e-12)


class TestEstimatorSampling:
    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_five_sigma_calibration(self, family):
        """At n=8, p=0.2, 1e5 shots per setting: within 5 standard errors of
        the exact value for at least 99 of 100 seeds."""
        n, shots, p = 8, 100000, 0.2
        state = white_noise_mix(p, target_state(family, n))
        exact = noisy_target_expectation(family, n, p)
        sa, sb = settings_for(family, n)
        misses = 0
        for seed in range(100):
            ca = sample_outcomes(state, sa, shots, seed=2 * seed)
            cb = sample_outcomes(state, sb, shots, seed=2 * seed + 1)
            est = estimate_witness(ca, cb, family)
            if abs(est.estimate - exact) > 5 * est.std_error:
                misses += 1
        assert misses <= 1

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_consistency_in_shots(self, family):
        """Mean absolute error shrinks and the reported standard error scales
        like shots^-1/2 within a factor of two."""
        n, p = 5, 0.3
        state = white_noise_mix(p, target_state(family, n))
        exact = noisy_target_expectation(family, n, p)
        sa, sb = settings_for(family, n)
        mean_err, mean_se = {}, {}
        for shots in (1000, 10000, 100000):
            errs, ses = [], []
            for seed in range(30):
                ca = sample_outcomes(state, sa, shots, seed=1000 * shots + 2 * seed)
                cb = sample_outcomes(state, sb, shots, seed=1000 * shots + 2 * seed + 1)
                est = estimate_witness(ca, cb, family)
                errs.append(abs(est.estimate - exact))
                ses.append(est.std_error)
            mean_err[shots] = np.mean(errs)
            mean_se[shots] = np.mean(ses)
        assert mean_err[1000] > mean_err[10000] > mean_err[100000]
        ratio = mean_se[1000] / mean_se[100000]
        assert 10.0 / 2.0 < ratio < 10.0 * 2.0

    def test_unbiasedness(self):
        """Mean over 200 seeds within 3 sigma of the mean."""
        family, n, p, shots = "cluster", 4, 0.25, 4000
        state = white_noise_mix(p, target_state(family, n))
        exact = noisy_target_expectation(family, n, p)
        sa, sb = settings_for(family, n)
        estimates, ses = [], []
        for seed in range(200):
            ca = sample_outcomes(state, sa, shots, seed=7000 + 2 * seed)
            cb = sample_outcomes(state, sb, shots, seed=7000 + 2 * seed + 1)
            est = estimate_witness(ca, cb, family)
            estimates.append(est.estimate)
            ses.append(est.std_error)
        margin = 3.0 * np.mean(ses) / np.sqrt(200)
        assert abs(np.mean(estimates) - exact) < margin

    def test_setting_mismatch_raises(self):
        state = make_ghz(3)
        sa, sb = settings_for("ghz", 3)
        ca = sample_outcomes(state, sa, 100, seed=0)
        cb = sample_outcomes(state, sb, 100, seed=1)
        with pytest.raises(ContractError):
            estimate_witness(cb, ca, "ghz")
        with pytest.raises(ContractError):
            estimate_witness(ca, cb, "cluster")

    def test_qubit_count_mismatch(self):
        ca = sample_outcomes(make_ghz(3), settings_for("ghz", 3)[0], 100, seed=0)
        cb = sample_outcomes(make_ghz(4), settings_for("ghz", 4)[1], 100, seed=0)
        with pytest.raises(DimensionError):
            estimate_witness(ca, cb, "ghz")


class TestCountsIO:
    def test_json_round_trip(self, tmp_path):
        table = sample_outcomes(make_cluster(4), settings_for("cluster", 4)[0],
                                5000, seed=4)
        path = tmp_path / "counts.json"
        table.save(path)
        assert CountsTable.load(path) == table

    def test_json_schema_valid(self, tmp_path):
        import json
        import jsonschema
        from importlib import resources

        table = sample_outcomes(make_ghz(3), settings_for("ghz", 3)[0], 100, seed=0)
        schema = json.loads(resources.files("stabwit")
                            .joinpath("schemas/counts_table.schema.json").read_text())
        jsonschema.validate(table.to_dict(), schema)

    def test_validation(self):
        setting = MeasurementSetting(2, "zz")
        with pytest.raises(ContractError):
            CountsTable(setting, 5, {"00": 2, "11": 2})  # sums to 4
        with pytest.raises(ContractError):
            CountsTable(setting, 2, {"0": 2})  # wrong key length
        with pytest.raises(ContractError):
            CountsTable(setting, 2, {"0x": 2})  # bad characters
        with pytest.raises(DomainError):
            CountsTable(setting, 0, {})

    @pytest.mark.parametrize("shots, counts", [
        (6, {"000": 1, "0x1": 2, "111": 3}),  # bad character mid-key
        (6, {"000": 1, "0\u00e91": 2, "111": 3}),  # non-ASCII character
        (6, {"000": 1, "01": 2, "111": 3}),  # wrong length
        (6, {"000": 1, "0101": 2, "111": 3}),  # wrong length
        (2, {"000": 4, "011": -2}),  # negative count
        (7, {"000": 1, "011": 2, "111": 3}),  # wrong total
        (6, {"000": 1, "0x1": -2, "1": 7}),  # first bad entry named
        (1, {}),  # empty table, wrong total
    ])
    def test_rejects_with_the_per_entry_message(self, shots, counts):
        setting = MeasurementSetting(3, "zzz")
        with pytest.raises(ContractError) as want:
            oracles.loop_counts_check(setting, shots, counts)
        with pytest.raises(ContractError) as got:
            CountsTable(setting, shots, counts)
        assert str(got.value) == str(want.value)

    def test_accepts_what_the_per_entry_check_accepts(self):
        setting = MeasurementSetting(3, "xzx")
        counts = {"000": 0, "101": 4, "111": 3}
        oracles.loop_counts_check(setting, 7, counts)
        assert CountsTable(setting, 7, counts).counts == counts

    def test_sorted_counts_are_built_once(self):
        table = CountsTable(MeasurementSetting(2, "zz"), 5, {"11": 3, "00": 2})
        first, second = table.to_dict(), table.to_dict()
        assert list(first["counts"].items()) == [("00", 2), ("11", 3)]
        assert second["counts"] is first["counts"]

    @pytest.mark.parametrize("d", [
        ["zz", 2, {"00": 2}],
        "counts",
        {"shots": 2, "counts": {"00": 2}},
        {"setting": "zz", "counts": {"00": 2}},
        {"setting": "zz", "shots": 2},
        {"setting": "zz", "shots": 2, "counts": [["00", 2]]},
        {"setting": ["z", "z"], "shots": 2, "counts": {"00": 2}},
    ])
    def test_from_dict_rejects_malformed_structure(self, d):
        with pytest.raises(ContractError):
            CountsTable.from_dict(d)

    @pytest.mark.parametrize("shots, counts", [
        (3, {"000": 2.9, "111": True}),
        (3, {"000": 2, "111": True}),
        (3, {"000": 2.0, "111": 1}),
        (3, {"000": "3"}),
        (3, {"000": None, "111": 3}),
        (True, {"000": 1}),
        (3.0, {"000": 3}),
        ("3", {"000": 3}),
    ])
    def test_from_dict_accepts_only_json_integers(self, shots, counts):
        with pytest.raises(ContractError):
            CountsTable.from_dict({"setting": "zzz", "shots": shots, "counts": counts})

    @pytest.mark.parametrize("data", [b'{"setting": "zz", "shots": 2, "coun', b"",
                                      b"{'a': 1}", b"\xff\xfe\x00"])
    def test_load_rejects_invalid_json(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ContractError, match="not a JSON counts table"):
            CountsTable.load(path)
