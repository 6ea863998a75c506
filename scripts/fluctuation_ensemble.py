#!/usr/bin/env python3
"""Ensemble measurement of the density-fluctuation growth exponent.

Runs many seeded tree-faithful gas simulations, fits the pre-saturation
growth of ln|delta ntilde_k| for one mode, and reports the slope and r^2
distribution together with the two-term exponent estimate at the window end.
"""

import argparse
import math
import sys

import numpy as np

from arnoldgas import cli, gas, maps, spectral


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--particles", type=cli.integer, default=2**16)
    parser.add_argument("--seeds", type=cli.integer, default=100)
    parser.add_argument("--steps", type=cli.integer, default=16)
    parser.add_argument("--mode", type=cli.integer, nargs=2, default=(1, 0), metavar=("M1", "M2"))
    parser.add_argument("--pairing", choices=sorted(gas.PAIRINGS), default="tree")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    if args.steps < 5:  # fit_window then spans fewer than the 3 steps a fit needs
        parser.error(f"--steps must be at least 5, got {args.steps}")

    mode = spectral.ModeIndex(*args.mode)
    if mode == (0, 0):
        parser.error("--mode 0 0 is the conserved normalization; pick a nonzero mode")
    try:
        configs = [gas.RunConfig(n_particles=args.particles, steps=args.steps,
                                 seed=seed, pairing=args.pairing) for seed in range(args.seeds)]
    except ValueError as exc:
        parser.error(str(exc))

    model = maps.default_model()
    slopes, r2s, lams, fit_errors = [], [], [], {}
    for config in configs:
        run = spectral.analyse_gas(config, model, [mode])
        report = run.modes[0].report
        if "fit_error" in report:
            fit_errors[config.seed] = report["fit_error"]
        else:
            slopes.append(report["slope"])
            r2s.append(report["r2"])
        lams.append(report["lambda_"])
    window = run.window

    slopes, r2s, lams = map(np.asarray, (slopes, r2s, lams))
    print(f"mode {tuple(mode)}  N={args.particles}  pairing={args.pairing}  "
          f"seeds={args.seeds}  window={window}")
    if fit_errors:
        seed, error = next(iter(fit_errors.items()))
        print(f"fit failed: {len(fit_errors)} of {args.seeds} seeds (seed {seed}: {error})")
    if slopes.size:
        print(f"slope: median {np.median(slopes):.4f}  "
              f"IQR [{np.percentile(slopes, 25):.4f}, {np.percentile(slopes, 75):.4f}]")
        print(f"r^2:   median {np.median(r2s):.4f}  min {r2s.min():.4f}")
    print(f"two-term exponent at t={window[1]}: median {np.median(lams):.4f} "
          f"(state-independent part {spectral.exponent_term2(model):.6f}, "
          f"ln 1.2 = {math.log(1.2):.6f})")
    if not slopes.size:
        sys.exit("no seed's fit succeeded")


if __name__ == "__main__":
    main()
