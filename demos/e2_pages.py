"""Local-cohomology pages and the CM regularity bound.

For a module M, the page E(l, s) = H_m^l(H M) in internal degree s feeds
a spectral sequence converging to the cohomology of the derived torsion
of M, so max(l + s) over the nonzero entries bounds the CM regularity
from above (and equals it when the sequence degenerates, as it does on
every instance here).

Run:  python3 demos/e2_pages.py
"""

from dgreg import canonical_k, cech_e2, cm_reg, cmreg_bound_from_e2, free_module
from dgreg.catalog import polynomial_algebra, square_zero_algebra
from dgreg.fields import QQ


def show(page):
    for (l, s), n in sorted(page.entries.items()):
        print(f"    E({l}, {s}) = {n}")
    if not page.entries:
        print("    (empty)")
    for w in page.warnings:
        print(f"    warning: {w}")


def main():
    print("== finite regime: everything is torsion, the page is H(M) in column 0 ==")
    Lam = square_zero_algebra()
    M = free_module(Lam, side="bi")
    page = cech_e2(Lam, M, [])
    show(page)
    print(f"  bound {cmreg_bound_from_e2(page)} vs CMreg {cm_reg(M)}")
    print()

    print("== polynomial regime: H(A) = k[x] with |x| = 2, parameter x ==")
    A = polynomial_algebra(2)
    x = {"t1": QQ.one()}

    print("  M = A (the page is the top local cohomology of k[x]):")
    page_a = cech_e2(A, free_module(A, side="bi"), [x])
    show(page_a)
    print(f"  bound {cmreg_bound_from_e2(page_a)} vs CMreg {cm_reg(free_module(A, side='bi'))}")
    print()

    print("  M = k (torsion already, column 0 only):")
    k = canonical_k(A, side="left")
    page_k = cech_e2(A, k, [x])
    show(page_k)
    print(f"  bound {cmreg_bound_from_e2(page_k)} vs CMreg {cm_reg(k)}")


if __name__ == "__main__":
    main()
