"""Estimator convergence experiment.

Sweeps the shot budget and reports, per family, the mean absolute error of
the two-setting witness estimate against the exact value and the mean
reported standard error.  Both should shrink like shots^-1/2.

Usage: python scripts/shot_convergence.py [--n 6] [--p-noise 0.2] [--seeds 40]
"""
import argparse

import numpy as np

from stabwit import (
    FAMILIES,
    estimate_witness,
    noisy_target_expectation,
    sample_outcomes,
    settings_for,
    target_state,
    white_noise_mix,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--p-noise", type=float, default=0.2)
    parser.add_argument("--seeds", type=int, default=40)
    parser.add_argument("--shots", type=int, nargs="+",
                        default=[1000, 10000, 100000])
    args = parser.parse_args()

    print(f"n={args.n}, p_noise={args.p_noise}, {args.seeds} seeds per point")
    print(f"{'family':<9s}{'shots':>9s}{'mean |err|':>14s}{'mean std err':>14s}")
    for family in FAMILIES:
        state = white_noise_mix(args.p_noise, target_state(family, args.n))
        exact = noisy_target_expectation(family, args.n, args.p_noise)
        setting_a, setting_b = settings_for(family, args.n)
        for shots in args.shots:
            errors, std_errors = [], []
            for seed in range(args.seeds):
                counts_a = sample_outcomes(state, setting_a, shots,
                                           seed=13 * shots + 2 * seed)
                counts_b = sample_outcomes(state, setting_b, shots,
                                           seed=13 * shots + 2 * seed + 1)
                est = estimate_witness(counts_a, counts_b, family)
                errors.append(abs(est.estimate - exact))
                std_errors.append(est.std_error)
            print(f"{family:<9s}{shots:>9d}{np.mean(errors):>14.5f}"
                  f"{np.mean(std_errors):>14.5f}")


if __name__ == "__main__":
    main()
