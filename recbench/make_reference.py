"""Freeze the verdict reference for the catalogue's ``*-llc-*`` scenarios.

``tests/data/catalogue_golden.json`` covers the 79 scenarios that predate
the cache-hierarchy family; this file pins the other 8 with the same
mode-insensitive result hash.  Run it
only when a change to those scenarios' bounds is intended:

    PYTHONPATH=src python3 recbench/make_reference.py
"""

from __future__ import annotations

import json

from repro.casestudy.scenarios import hierarchy_scenarios
from repro.sweep.runner import execute_scenario
from workloads import LLC_REFERENCE_PATH, result_hash


def main() -> None:
    reference = {}
    for name, scenario in sorted(hierarchy_scenarios().items()):
        result = execute_scenario(scenario)
        if not result.ok:
            raise SystemExit(f"{name}: status {result.status}")
        reference[name] = result_hash(result)
    LLC_REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} entries to {LLC_REFERENCE_PATH}")


if __name__ == "__main__":
    main()
