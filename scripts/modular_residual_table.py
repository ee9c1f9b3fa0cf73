#!/usr/bin/env python3
"""Invariance residuals of the partition function under the modular group.

For every word in a list of group elements this prints the full residual
|chi * zhat(g.p, g.tw) / zhat(p, tw) - 1| together with the det(I - T)-only
residual, using the carried-branch transport of (log rho, anchor windings).
All residuals should sit at quadrature accuracy.
"""

import argparse
import sys

from sewkernel import GroupElement, SewingConfig, TwistConfig, invariance_residual

DEFAULT_WORDS = [
    "T",
    "A",
    "B",
    "C",
    "S",
    "T^-1",
    "S^-1",
    "S T",
    "A B A^-1 B^-1 C^-1 C^-1",
    "B S T^-1",
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", type=complex, default=0.25 + 1.2j)
    ap.add_argument("--w", type=complex, default=0.6 + 2.4j)
    ap.add_argument("--rho", type=complex, default=8e-4 * (0.8776 + 0.4794j))
    ap.add_argument("--kappa", type=float, default=0.15)
    ap.add_argument("--N", type=int, default=12)
    ap.add_argument("--quad-M", type=int, default=128)
    ap.add_argument("words", nargs="*", default=DEFAULT_WORDS)
    args = ap.parse_args(argv)

    p = SewingConfig(args.tau, args.w, args.rho)
    tw = TwistConfig(0.2, 0.35, 0.1, args.kappa)
    print(f"{'word':<28} {'full residual':>14} {'det residual':>14}")
    worst = 0.0
    for word in args.words:
        g = GroupElement.from_string(word)
        full, det_only = invariance_residual(g, p, tw, N=args.N, quad_M=args.quad_M)
        worst = max(worst, full, det_only)
        print(f"{word:<28} {full:14.3e} {det_only:14.3e}")
    print(f"worst residual: {worst:.3e}")
    return 0 if worst < 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
