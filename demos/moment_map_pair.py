"""Exhibit one orthogonal-symplectic pair of moment maps.

For V = Q^2n with a symmetric form and U = Q^(2n-2) with a skew form,
a linear map X: V -> U produces pi = X X* in sp(U) and rho = X* X in
so(V).  The demo prints the closed-form witness X whose two images have
prescribed Jordan types, verified exactly, then samples random maps to
show that the pfaffian of rho's form-composition vanishes identically.
"""

import argparse
from random import Random

from exactlie.dualpair import kp_find_element, kp_maps, pfaffian_locus_check
from exactlie.liealg import jordan_type
from exactlie.polymat import PolyMatrix


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--i", type=int, default=3, help="odd, or equal to n")
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    elt = kp_find_element(args.n, args.i)
    print(f"n = {args.n}, i = {args.i}")
    print(f"rho Jordan type on V: {elt.rho_type}")
    print(f"pi  Jordan type on U: {elt.pi_type}")
    print("witness X:")
    for i in range(elt.X.nrows):
        print("  [" + " ".join(f"{str(e):>3}" for e in elt.X.row(i)) + "]")

    pi, rho = kp_maps(elt.X)
    print(f"check: jordan_type(pi) = {jordan_type(pi)}, jordan_type(rho) = {jordan_type(rho)}")

    rng = Random(args.seed)
    for _ in range(args.samples):
        X = PolyMatrix(
            [
                [rng.randint(-5, 5) for _ in range(2 * args.n)]
                for _ in range(2 * args.n - 2)
            ]
        )
        if not pfaffian_locus_check(X):
            raise SystemExit("pfaffian locus violated (should be impossible)")
    print(f"pfaffian of the composed form vanished on all {args.samples} random samples")


if __name__ == "__main__":
    main()
