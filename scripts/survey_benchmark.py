"""Benchmark the two clustering routes on survey-shaped synthetic data.

For each seed: generate an 8809-row population with 5 planted clusters and
run the full pipeline twice (direct 5-unit map vs 20-unit map reduced to 5
macro clusters).  Each run's exact and correct rates are printed next to
their chance levels: the agreement expected from the margins of its
contingency table alone, for exact and for neighbouring (|i-j| <= 1)
clusters, as in Cohen's weighted kappa.  Prints per-seed rates and a
summary.

Usage:
    python scripts/survey_benchmark.py --seeds 1 2 3 4 5 --outdir /tmp/bench
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from somalloc.pipeline import PipelineConfig, run_pipeline
from somalloc.synth import GeneratorSpec, generate


def chance_rates(contingency_path):
    """Exact and correct rates expected if allocated and reference classes
    were independent with the table's margins."""
    table = np.loadtxt(contingency_path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum() ** 2
    exact = np.trace(expected)
    return exact, exact + np.trace(expected, 1) + np.trace(expected, -1)


def run_route(dataset, seed, outdir, method):
    cfg = PipelineConfig(
        continuous_path="",
        categorical_path="",
        schema_path="",
        outdir=str(outdir),
        seed=seed,
        test_count=409,
        method=method,
        units=20 if method == "c1" else 5,
        macro_units=5,
    )
    return run_pipeline(cfg, dataset=dataset)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--n", type=int, default=8809)
    parser.add_argument("--dependence", type=float, default=0.8)
    parser.add_argument("--outdir", default=None,
                        help="keep per-seed artifacts here (default: temp dir)")
    args = parser.parse_args()

    base = Path(args.outdir) if args.outdir else Path(tempfile.mkdtemp(prefix="bench_"))
    rows = []
    print(f"{'seed':>4} {'route':>6} {'exact':>7} {'chance':>7} "
          f"{'correct':>8} {'chance':>7} {'gap':>6}")
    for seed in args.seeds:
        spec = GeneratorSpec.survey_shaped(seed=seed, n=args.n, dependence=args.dependence)
        dataset, _ = generate(spec)
        for method in ("c2", "c1"):
            outdir = base / f"seed{seed}_{method}"
            ev = run_route(dataset, seed, outdir, method)["evaluation"]
            exact0, correct0 = chance_rates(outdir / "contingency.csv")
            rows.append((method, ev["exact_rate"] - exact0, ev["correct_rate"] - correct0))
            print(
                f"{seed:>4} {method:>6} {ev['exact_rate']:>7.3f} {exact0:>7.3f} "
                f"{ev['correct_rate']:>8.3f} {correct0:>7.3f} "
                f"{ev['correct_rate'] - correct0:>6.3f}"
            )
    for method in ("c2", "c1"):
        sel = [r for r in rows if r[0] == method]
        print(
            f"{method}: mean gap over chance: exact {np.mean([r[1] for r in sel]):.3f}, "
            f"correct {np.mean([r[2] for r in sel]):.3f}"
        )
    print(f"artifacts in {base}")


if __name__ == "__main__":
    main()
