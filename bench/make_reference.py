"""Write bench/reference/verdicts.json: the reference verdict tables of
rank4-sweep and near-group-gram, each with the SHA-256 of its canonical JSON.

    python3 bench/make_reference.py

Run it only to record a verdict change that a PR names and justifies; a
faster program must reproduce the stored tables.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mrfw.obstruction import obstruct  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402


def reference_entry(workload: str, node_cap: int) -> dict:
    keys = sorted(workloads.op_keys(workload, 0))
    inputs = workloads.build_inputs(keys)
    statuses = {key: obstruct(inputs[key], node_cap).status for key in keys}
    table = checker.verdict_table(statuses)
    return {"node_cap": node_cap, "table": table, "sha256": checker.table_sha256(table)}


def main() -> None:
    ref = {
        "rank4-sweep": reference_entry("rank4-sweep", workloads.RANK4_NODE_CAP),
        "near-group-gram": reference_entry("near-group-gram", workloads.NEAR_GROUP_NODE_CAP),
    }
    path = HERE / "reference" / "verdicts.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in ref.items():
        print(f"{name}: sha256 {entry['sha256']}")


if __name__ == "__main__":
    main()
