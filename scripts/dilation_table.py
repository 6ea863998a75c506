#!/usr/bin/env python3
"""Print the per-stage dilation table: enumeration vs closed forms.

Columns: stage, geometric mean, arithmetic mean, whole-gas dilation, the
2^(n/2) lower bound, and the enumeration/closed-form relative gap.
"""

import argparse

from arnoldgas import cli, maps, tree, verify


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-stages", type=cli.integer, default=12)
    args = parser.parse_args()
    if not 0 <= args.max_stages <= tree.DEFAULT_MAX_STAGES:
        parser.error(f"--max-stages must be in 0..{tree.DEFAULT_MAX_STAGES}, "
                     f"got {args.max_stages}")

    model = maps.default_model()
    print(f"{'n':>3} {'geo_mean':>12} {'arith_mean':>12} {'gas_dilation':>14} "
          f"{'bound 2^(n/2)':>14} {'rel_gap':>10}")
    for n in range(args.max_stages + 1):
        geo_c, arith_c = tree.mean_dilations_closed(model, n)
        gas_c = tree.gas_dilation_closed(model, n)
        gap = verify.gas_dilation_error(tree.run_tree(model, n), model)
        print(f"{n:>3} {geo_c:>12.6f} {arith_c:>12.6f} {gas_c:>14.4f} "
              f"{tree.gas_dilation_bound(n):>14.4f} {gap:>10.2e}")


if __name__ == "__main__":
    main()
