"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Tolerances and runtime budgets are pinned here; loosening them is not an
option for making the suite green.
"""
import itertools
import time

import numpy as np
from scipy.optimize import brentq

from stabwit import (
    build_witness,
    certify,
    estimate_witness,
    expectation,
    generators_for,
    make_cluster,
    make_ghz,
    noise_threshold,
    sample_outcomes,
    settings_for,
    subgroup_product,
    target_state,
    white_noise_mix,
)
from stabwit.states import StateVector

from oracles import (
    apply_pauli,
    dense_operator_from_terms,
    random_state_vector,
    setting_measures,
)

GHZ_ROW = [0.50, 0.40, 0.36, 0.35, 0.34, 0.34, 0.34, 0.33, 0.33]
CLUSTER_ROW = [0.50, 0.40, 0.33, 0.31, 0.29, 0.28, 0.27, 0.26, 0.26]


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_ghz_noise_row():
    start = time.perf_counter()
    values = [noise_threshold("ghz", n).p_threshold for n in range(2, 11)]
    elapsed = time.perf_counter() - start
    deviations = [abs(v - w) for v, w in zip(values, GHZ_ROW)]
    ok = max(deviations) <= 0.005 and elapsed < 1.0
    report(1, ok, f"ghz thresholds n=2..10 within 0.005 "
                  f"(max dev {max(deviations):.4f}, runtime {elapsed:.2f}s < 1s)")


def test_criterion_2_cluster_noise_row_and_root_find():
    start = time.perf_counter()
    reports = [noise_threshold("cluster", n) for n in range(2, 11)]
    route_gaps = []
    for n, rep in zip(range(2, 11), reports):
        w = build_witness("cluster", n)
        target = target_state("cluster", n)
        root = brentq(lambda p: expectation(w, white_noise_mix(p, target)),
                      0.0, 1.0, xtol=1e-14)
        route_gaps.append(abs(rep.p_closed_form - root))
    elapsed = time.perf_counter() - start
    deviations = [abs(r.p_threshold - w) for r, w in zip(reports, CLUSTER_ROW)]
    ok = max(deviations) <= 0.005 and max(route_gaps) < 1e-9 and elapsed < 5.0
    report(2, ok, f"cluster thresholds n=2..10 within 0.005 and closed form vs "
                  f"root find within 1e-9 (max dev {max(deviations):.4f}, "
                  f"max gap {max(route_gaps):.2e}, runtime {elapsed:.2f}s < 5s)")


def test_criterion_3_target_values():
    worst = 0.0
    for family in ("ghz", "cluster"):
        for n in range(2, 11):
            value = expectation(build_witness(family, n),
                                        target_state(family, n))
            worst = max(worst, abs(value + 1.0))
    ok = worst < 1e-12
    report(3, ok, f"<W> on targets equals -1 for n=2..10, both families "
                  f"(worst deviation {worst:.2e} < 1e-12)")


def test_criterion_4_large_n_noise_floor():
    ghz = noise_threshold("ghz", 20).p_threshold
    cluster = noise_threshold("cluster", 20).p_threshold
    ok = ghz > 1.0 / 3.0 and (ghz - 1.0 / 3.0) < 1e-5 and cluster > 0.25
    report(4, ok, f"p*(ghz, 20) = {ghz:.8f} in (1/3, 1/3 + 1e-5); "
                  f"p*(cluster, 20) = {cluster:.5f} > 0.25")


def test_criterion_5_stabilizer_correctness():
    worst = 0.0
    orders_ok = True
    commuting_ok = True
    for family in ("ghz", "cluster"):
        for n in range(2, 11):
            state = make_ghz(n) if family == "ghz" else make_cluster(n)
            gens = generators_for(family, n)
            for g in gens.generators:
                dev = np.max(np.abs(apply_pauli(g, state).amplitudes
                                    - state.amplitudes))
                worst = max(worst, float(dev))
            elements = [subgroup_product(gens, s) for s in range(1 << n)]
            orders_ok &= len(set(elements)) == 1 << n
            x = np.array([p.x_bits for p in elements], dtype=np.int64)
            z = np.array([p.z_bits for p in elements], dtype=np.int64)
            anti = (np.bitwise_count(x[:, None] & z[None, :])
                    + np.bitwise_count(z[:, None] & x[None, :])) & 1
            commuting_ok &= not np.any(anti)
    ok = worst < 1e-12 and orders_ok and commuting_ok
    report(5, ok, f"S|psi> = |psi> (max deviation {worst:.2e} < 1e-12), group "
                  f"order 2^n, all elements commute, n=2..10, both families")


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for family in ("ghz", "cluster"):
        w = build_witness(family, 8)
        dense = dense_operator_from_terms(w.terms)
        for _ in range(100):
            vec = random_state_vector(rng, 8)
            term_value = expectation(w, StateVector(8, vec))
            dense_value = float((vec.conj() @ dense @ vec).real)
            worst = max(worst, abs(term_value - dense_value))
    ok = worst < 1e-10
    report(6, ok, f"Pauli-term expectations match the dense matrix on 100 "
                  f"random states per family at n=8 (worst gap {worst:.2e} < 1e-10)")


def test_criterion_7_two_setting_estimation():
    start = time.perf_counter()
    n, shots = 8, 100000
    results = {}
    for family in ("ghz", "cluster"):
        state = target_state(family, n)
        setting_a, setting_b = settings_for(family, n)
        misses = 0
        for seed in range(100):
            counts_a = sample_outcomes(state, setting_a, shots, seed=2 * seed)
            counts_b = sample_outcomes(state, setting_b, shots, seed=2 * seed + 1)
            est = estimate_witness(counts_a, counts_b, family)
            if abs(est.estimate - (-1.0)) > 5.0 * est.std_error:
                misses += 1
        results[family] = misses
    elapsed = time.perf_counter() - start
    ok = all(m <= 1 for m in results.values()) and elapsed < 60.0
    report(7, ok, f"estimate within 5 standard errors of -1 for >= 99/100 seeds "
                  f"(misses {results}, runtime {elapsed:.1f}s < 60s)")


def test_criterion_8_biseparability_certificate():
    start = time.perf_counter()
    all_pass = True
    minima = {}
    for family, n in itertools.product(("ghz", "cluster"), (2, 3, 4)):
        rep = certify(build_witness(family, n), restarts=20, seed=0)
        minima[(family, n)] = rep.global_min
        all_pass &= rep.passed and rep.global_min >= -1e-6
    control = certify(build_witness("ghz", 3).negated(), restarts=20, seed=0)
    elapsed = time.perf_counter() - start
    worst = min(minima.values())
    ok = all_pass and not control.passed and elapsed < 120.0
    report(8, ok, f"certify PASS for n in {{2,3,4}}, both families (global "
                  f"minima >= {worst:.2e}); negated control FAILs "
                  f"(min {control.global_min:.2f}); runtime {elapsed:.1f}s < 120s")


def test_criterion_9_settings_count():
    families = ("ghz", "cluster")
    distinct = all(len(set(settings_for(family, n))) == 2
                   for family in families for n in range(2, 21))
    measured = all(any(setting_measures(s, term) for s in settings_for(family, n))
                   for family in families for n in range(2, 11)
                   for term in build_witness(family, n).terms)
    witness, bell = len(settings_for("ghz", 10)), 2 ** 10
    ok = distinct and measured
    report(9, ok, f"two distinct settings for n = 2..20 that measure every witness "
                  f"term for n <= 10; the witness needs {witness} settings vs {bell} "
                  f"for the GHZ Bell test at n=10; ratio {bell // witness} = 2^9")
