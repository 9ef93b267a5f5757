#!/usr/bin/env python
"""Study: how advice size and round complexity scale with the network size.

This reproduces, as curves over ``n``, the paper's three upper-bound
results side by side:

* trivial scheme — max advice grows like ``log₂ n``, 0 rounds;
* Theorem 2 — *average* advice stays below the constant
  ``c = Σ (i+1)/2^{i-2} = 12`` while the maximum grows like ``log² n``,
  1 round;
* Theorem 3 — *maximum* advice stays constant while the number of rounds
  grows like ``log n`` (within the paper's ``9⌈log n⌉`` budget).

Run with:  python examples/advice_tradeoff_study.py [--quick] [--jobs N]

The sweeps route through ``repro.runner``: pass ``--jobs N`` to fan the
runs over worker processes and ``--cache-dir DIR`` to reuse results
across invocations (the output is byte-identical either way).
"""

import argparse

from repro.analysis import run_scheme_sweep
from repro.core.scheme_average import paper_average_constant
from repro.core.scheme_main import ShortAdviceScheme as Main
from repro.runner import GraphSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sweep for a fast demo")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument("--cache-dir", default=None, help="on-disk result cache directory")
    args = parser.parse_args()

    sizes = (16, 32, 64, 128, 256) if args.quick else (16, 32, 64, 128, 256, 512, 1024)
    factory = GraphSpec("random", 0.04)
    seeds = (0, 1)

    for scheme in ("trivial", "theorem2", "theorem3"):
        sweep = run_scheme_sweep(
            scheme,
            sizes,
            graph_factory=factory,
            seeds=seeds,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
        print(
            sweep.to_text(
                columns=[
                    "n",
                    "log2_n",
                    "max_advice_bits",
                    "avg_advice_bits",
                    "rounds",
                    "rounds_per_log_n",
                    "congest_factor",
                    "correct",
                ]
            )
        )
        print()

    print("reference constants:")
    print(f"  Theorem 2 average-advice constant  c = {paper_average_constant():.1f} bits")
    print(f"  Theorem 3 paper bounds             m = {Main.paper_advice_bound():.0f} bits, "
          f"t <= 9*ceil(log2 n)")
    print(
        "\nReading: the trivial scheme's max advice tracks log2(n); Theorem 2's average\n"
        "column is flat and below 12 while its max grows; Theorem 3's max column is\n"
        "flat while its rounds track log2(n) (rounds_per_log_n stays bounded)."
    )


if __name__ == "__main__":
    main()
