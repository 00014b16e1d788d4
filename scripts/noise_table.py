"""Print the noise-tolerance table for both witness families.

Computes every threshold twice (closed form and numerical root find) and
reports the largest disagreement, which should sit at machine precision.

Usage: python scripts/noise_table.py [--n-max 12]
"""
import argparse

from stabwit import FAMILIES, noise_threshold


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args()

    ns = range(2, args.n_max + 1)
    print("N        " + "".join(f"{n:>9d}" for n in ns))
    worst_gap = 0.0
    for family in FAMILIES:
        reports = [noise_threshold(family, n) for n in ns]
        worst_gap = max(worst_gap,
                        *(abs(r.p_closed_form - r.p_root_find) for r in reports))
        print(f"{family:<9s}" + "".join(f"{r.p_threshold:>9.4f}" for r in reports))
    print(f"\nlargest closed-form vs root-find gap: {worst_gap:.3e}")


if __name__ == "__main__":
    main()
