#!/usr/bin/env python3
"""Gate CI on the micro_stage_batch benchmark.

The benchmark runs the batched stage graph under every SIMD backend the
host supports, in one binary and one run, so the vectorized-vs-scalar
ratio is machine-independent — the same contract style as the
Myers-vs-scalar gate in check_kernel_regression.py.

One gate: the widest backend's rate at the gated batch size (the
production MapperEngine block) divided by the scalar backend's rate at
the same batch size must reach --min-simd-ratio. It SKIPs with a notice
when the host can only run the scalar backend (no AVX2).

Usage:
  check_stage_batch.py CURRENT.json [--batch-pairs 64]
                       [--min-simd-ratio 1.25]
"""

import argparse
import json
import sys

BACKEND_ORDER = {"scalar": 0, "avx2": 1, "avx512": 2}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("--batch-pairs", type=int, default=64,
                    help="grid point to gate (the production "
                         "MapperEngine block size)")
    ap.add_argument("--min-simd-ratio", type=float, default=1.25,
                    help="required widest-backend-vs-scalar speedup at "
                         "the gated batch size")
    args = ap.parse_args()

    with open(args.current) as f:
        doc = json.load(f)
    if doc.get("bench") != "micro_stage_batch":
        print(f"error: {args.current} is not a micro_stage_batch record")
        return 1

    gated = {}
    for point in doc.get("grid", []):
        backend = point["backend"]
        flag = ""
        if point["batch_pairs"] == args.batch_pairs:
            gated[backend] = point
            flag = "  << gated"
        print(f"  [{backend}] batch {point['batch_pairs']:6d}  "
              f"{point['pairs_per_s']:>10} pairs/s{flag}")
    if "scalar" not in gated:
        print(f"error: no scalar grid point with batch_pairs == "
              f"{args.batch_pairs}")
        return 1

    widest = max(gated, key=lambda b: BACKEND_ORDER.get(b, -1))
    if widest == "scalar":
        print("SKIP: simd-vs-scalar ratio gate (host runs scalar only, "
              "no AVX2)")
        return 0
    scalar_rate = float(gated["scalar"]["pairs_per_s"])
    widest_rate = float(gated[widest]["pairs_per_s"])
    ratio = widest_rate / scalar_rate if scalar_rate > 0 else 0.0
    if ratio < args.min_simd_ratio:
        print(f"FAIL: {widest}/scalar ratio {ratio:.3f}x is below the "
              f"required {args.min_simd_ratio:.2f}x")
        return 1
    print(f"OK: {widest}/scalar ratio {ratio:.3f}x "
          f"(required >= {args.min_simd_ratio:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
