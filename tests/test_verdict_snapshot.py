"""The verdict snapshot: `obstruct` at node cap 2000 on every ring of
`commutative_rings()` and `rank4_and_near_group_rings(16)`, one line per
ring in verdict_snapshot.txt, beside this module.  A line holds the ring's
name, status, stage, node cap and the SHA-256 of the canonical JSON of
its steps and witness rows, so a change to any of them changes the line.

Regenerating the file is a deliberate act, and each changed line should
be named with the fix that changed it:

    PYTHONPATH=src python tests/test_verdict_snapshot.py
"""

import hashlib
from pathlib import Path

from test_obstruction import commutative_rings, rank4_and_near_group_rings

from mrfw.obstruction import obstruct
from mrfw.serialize import canonical_dumps

SNAPSHOT = Path(__file__).with_name("verdict_snapshot.txt")
NODE_CAP = 2000


def snapshot_rings():
    """The rings by name; a name both generators yield is one ring."""
    rings = {name: build() for name, build in commutative_rings()}
    for name, ring in rank4_and_near_group_rings(16):
        assert rings.setdefault(name, ring) == ring, name
    return rings


def snapshot_line(name, ring):
    verdict = obstruct(ring, node_cap=NODE_CAP)
    witness = verdict.witness and [list(r) for r in verdict.witness.all_rows()]
    doc = {"steps": list(verdict.steps), "witness": witness}
    digest = hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()
    return "\t".join((name, verdict.status, str(verdict.stage), str(NODE_CAP), digest))


def snapshot_lines():
    return [snapshot_line(name, ring) for name, ring in snapshot_rings().items()]


def test_verdicts_match_the_snapshot():
    want = SNAPSHOT.read_text(encoding="utf-8").splitlines()
    got = snapshot_lines()
    changed = sorted(set(got) ^ set(want))
    assert got == want, "changed lines (-snapshot +now):\n" + "\n".join(
        ("+ " if line in got else "- ") + line for line in changed
    )


if __name__ == "__main__":
    SNAPSHOT.write_text("".join(line + "\n" for line in snapshot_lines()), encoding="utf-8")
