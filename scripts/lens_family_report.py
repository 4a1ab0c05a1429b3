#!/usr/bin/env python3
"""Sweep the lens family L(n;1,1) and tabulate duality data per n.

For each n: algebraic-5-complex membership, dual-form recognition with the
rank of J, the parity obstruction, and the anti-self-duality status
(constructed and verified for n = 4k+1, obstructed for even n, unknown for
n = 4k+3).

Usage: python scripts/lens_family_report.py [--max-n 30]
"""

import argparse

from zgdual.complexes import five_complex_report, homology
from zgdual.dual_form import is_anti_self_dual, obstruction_check, recognize_dual_form
from zgdual.lens import asd_status, lens_asd_transform, lens_complex


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=30)
    args = parser.parse_args()

    header = f"{'n':>4}  {'alg5':>5}  {'dualform':>8}  {'j_rank':>6}  {'H3':>4}  {'obstructed':>10}  {'asd':>14}"
    print(header)
    print("-" * len(header))
    for n in range(2, args.max_n + 1):
        A = lens_complex(n)
        member = five_complex_report(A).is_member
        view = recognize_dual_form(A)
        rep = obstruction_check(view)
        h3 = homology(A, 3, "integral").free_rank
        status = asd_status(n)
        if status == "anti-self-dual":
            t = lens_asd_transform(n)
            if not is_anti_self_dual(recognize_dual_form(t.complex)):
                status = "FAILED"
        print(
            f"{n:>4}  {str(member):>5}  {str(view is not None):>8}  {view.j_rank:>6}  "
            f"{h3:>4}  {str(rep.obstructed):>10}  {status:>14}"
        )


if __name__ == "__main__":
    main()
