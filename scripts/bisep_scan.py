"""Biseparability certification scan.

Runs the see-saw certificate for both families over a range of qubit
counts and prints the per-cut minima, confirming the witnesses never go
negative on product states across any bipartition.  A cut whose minimum is
carried from another cut of its symmetry orbit names that cut, so a copied
minimum is not read as an independent one.

Usage: python scripts/bisep_scan.py [--n-max 5] [--restarts 20] [--seed 0]
"""
import argparse

from stabwit import FAMILIES, build_witness, certify


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for family in FAMILIES:
        for n in range(2, args.n_max + 1):
            report = certify(build_witness(family, n),
                             restarts=args.restarts, seed=args.seed)
            verdict = "PASS" if report.passed else "FAIL"
            print(f"{family:<9s} n={n}  global min {report.global_min:+.3e}  "
                  f"{verdict}")
            for cut in report.cuts:
                carried = f"  carried from {cut.orbit_of.label}" if cut.orbit_of else ""
                print(f"    {cut.cut.label:<18s} {cut.min_value:+.3e}"
                      f"{'' if cut.converged else '  (not converged)'}{carried}")


if __name__ == "__main__":
    main()
