#!/usr/bin/env python3
"""Sweep the spectral radius rho(kappa) of the direction-space operator.

Writes a CSV of (kappa, rho, log rho) built from one shared draw cache
(common random numbers), so the curve is smooth and its log-convexity is
visible; the root rho(kappa) = 1 marks the tail index.

Usage: rho_curve.py [config.yaml] [out.csv]
"""
import sys
from pathlib import Path

import numpy as np

from kestenlab import cli, spectral
from kestenlab.batches import write_csv
from kestenlab.rng import substream

HERE = Path(__file__).parent


def main() -> int:
    config_path = sys.argv[1] if len(sys.argv) > 1 else HERE / "configs" / "scalar_two_point.yaml"
    out_path = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("rho_curve.csv")
    config = cli.load_config(config_path)
    grid = spectral.build_grid(config.env.dim, config.grid.resolution)
    draws = spectral.build_operator_draws(
        config.env, grid, spectral.ROW_ACTION,
        config.mc.spectral.mc_per_point, substream(config.seed, 999))
    kappas = np.linspace(0.1, 2.5, 49)
    rows = []
    for kappa in kappas:
        rho, _ = spectral.spectral_radius(draws, kappa)
        rows.append((kappa, rho, np.log(rho)))
        marker = "  <-- rho = 1" if abs(rho - 1.0) < 0.01 else ""
        print(f"kappa={kappa:.3f}  rho={rho:.4f}{marker}")
    arr = np.asarray(rows)
    write_csv(out_path, "kappa,rho,log_rho", arr)
    # midpoint chords: log rho must sit below them (up to draw noise)
    mid = arr[1:-1, 2]
    chord = 0.5 * (arr[:-2, 2] + arr[2:, 2])
    print(f"\nlog-convexity margin (min chord - value): {np.min(chord - mid):+.5f}")
    print(f"curve written to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
