#!/usr/bin/env python
"""Regenerate docs/bench-history.md from the BENCH_*.json snapshots.

The table is the committed half of the perf trajectory: every
``repro bench --snapshot`` run leaves a ``BENCH_<rev>.json`` at the repo
root, and this script renders them all (via the same helpers as
``repro bench history``) into one Markdown page so speedups and
regressions across PRs are visible in the docs tree, not just in CI
artifact storage.

Usage::

    PYTHONPATH=src python scripts/update_bench_history.py          # rewrite
    PYTHONPATH=src python scripts/update_bench_history.py --check  # CI freshness gate

``--check`` exits 1 (printing a diff hint) when the committed page does
not match what the snapshots say — the CI step that keeps the page from
going stale.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import bench_history_entries, bench_history_markdown  # noqa: E402

HEADER = """\
# Benchmark history

The performance trajectory of this repository, one row per
`BENCH_<rev>.json` snapshot entry (written by `repro bench --snapshot`
and committed at the repo root). `runs_per_second` values are only
comparable between rows with the same scheme/graph/n/backend and the
same `jobs` — that is also the rule the CI regression gate applies.

**Do not edit by hand.** Regenerate with:

```bash
PYTHONPATH=src python scripts/update_bench_history.py
```

CI checks this page against the snapshots (`--check`) and fails when it
is stale.

"""


def render() -> str:
    entries = bench_history_entries(REPO_ROOT)
    if not entries:
        raise SystemExit(f"no BENCH_*.json snapshots under {REPO_ROOT}")
    return HEADER + bench_history_markdown(entries)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/bench-history.md is stale instead of rewriting it",
    )
    args = parser.parse_args(argv)
    target = REPO_ROOT / "docs" / "bench-history.md"
    content = render()
    if args.check:
        current = target.read_text(encoding="utf-8") if target.is_file() else ""
        if current != content:
            print(
                "docs/bench-history.md is stale; regenerate with\n"
                "  PYTHONPATH=src python scripts/update_bench_history.py",
                file=sys.stderr,
            )
            return 1
        print("docs/bench-history.md is up to date")
        return 0
    target.write_text(content, encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
