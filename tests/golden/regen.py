"""Regenerate the golden metric fixtures (run after an *intentional* change).

Usage::

    PYTHONPATH=src python tests/golden/regen.py

Rewrites every fixture in ``tests/golden/`` from the scenarios in
:mod:`tests.golden.scenarios` -- the metrics dicts and the stdout snapshots of
the CLI smoke commands -- and prints what changed.  Commit the updated
fixtures together with the engine change that moved the numbers -- see
CONTRIBUTING.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1].parent))

from tests.golden.scenarios import (  # noqa: E402
    CLI_SNAPSHOTS,
    GOLDEN_SCENARIOS,
    canonical,
    cli_stdout,
    fixture_path,
)


def _write(path: Path, fresh: str) -> None:
    stale = path.read_text() if path.exists() else None
    path.write_text(fresh)
    status = "unchanged" if fresh == stale else ("updated" if stale else "created")
    print(f"{path}: {status}")


def main() -> int:
    for name, run in GOLDEN_SCENARIOS.items():
        fresh = canonical(run().to_dict())
        _write(fixture_path(name), json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    for name, argv in CLI_SNAPSHOTS.items():
        _write(fixture_path(name), cli_stdout(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
