"""Derived torsion and the dualizing DG module in both computable regimes.

Finite-dimensional regime (dim_k H(A) finite): the torsion functor is
the identity and the dualizing module is the k-linear dual of A.

Polynomial regime (A = k[T], |T| = d, zero differential): the torsion
functor is chain-level tensor with the shifted Cech bimodule
S^{-1}(k[T,T^{-1}]/k[T]); the dualizing module has generators e_l in
degree dl + d - 1 with a symmetric left action T e_l = e_{l+1} but a
*twisted* right action e_l T = (-1)^d e_{l+1} that no change of basis
removes when d is odd and the characteristic is not 2.

Gamma and CM regularity take a semifree resolution of their module, so
each module below is resolved once for both.

Run:  python3 demos/duality_tour.py
"""

from dgreg import (
    canonical_k,
    cm_reg,
    cohomology,
    detect_regime,
    double_duality_check,
    dualizing_module,
    free_module,
    gamma,
    local_duality_check,
    semifree_resolve,
    twist_nontriviality,
)
from dgreg.catalog import polynomial_algebra, square_zero_algebra
from dgreg.fields import GF, QQ


def main():
    print("== square-zero algebra: finite-dimensional regime ==")
    Lam = square_zero_algebra()
    regime = detect_regime(Lam)
    print(f"  regime: {regime.kind} ({regime.evidence})")
    D = dualizing_module(Lam, regime)
    print(f"  D = A* with dims {dict((d, D.dim(d)) for d in D.degrees())}")
    k = canonical_k(Lam, side="left")
    print(f"  local duality on k: {local_duality_check(k, regime).verdict}")
    print(f"  double duality on k: {double_duality_check(k, regime).verdict}")
    print()

    for d in (1, 2, 3):
        print(f"== k[T] with |T| = {d}: polynomial regime ==")
        A = polynomial_algebra(d)
        regime = detect_regime(A)
        D = dualizing_module(A, regime)
        left = D.act_left("t1", "e0")
        right = D.act_right("e0", "t1")
        print(f"  generator degrees: e_l in degree {d}*l + {d - 1}")
        print(f"  T e0 = {left}   e0 T = {right}")
        print(f"  twist removable? {not twist_nontriviality(d, QQ)} over Q; "
              f"{not twist_nontriviality(d, GF(2))} over F2")
        M = free_module(A, side="bi")
        res = semifree_resolve(M)
        h = cohomology(gamma(M, regime, resolution=res).value)
        print(f"  H(Gamma A) sup = {h.sup_degree} (= 1 - d), "
              f"CMreg A = {cm_reg(M, regime, resolution=res)}")
        kp = canonical_k(A, side="left")
        print(f"  CMreg k = {cm_reg(kp, regime)}")
        print(f"  local duality on k: {local_duality_check(kp, regime).verdict}")
        print(f"  double duality on k: {double_duality_check(kp, regime).verdict}")
        print()


if __name__ == "__main__":
    main()
