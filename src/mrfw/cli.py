"""Command-line surface: document checking, analysis reports, the
categorification obstruction pipeline, character-table checks, S-matrices,
and corank-one extensions.

Exit codes, all set by the one error boundary in ``main``:

- 0: the command completed, whatever its verdict;
- 1: validation failure.  A ring or table that fails its axioms, and any
  other ``ValueError`` a command raises, prints ``INVALID: <msg>`` on
  stderr.  The problem lines that ``check`` and ``report`` list from a
  validation report go to stdout, and so does a replay ``MISMATCH``;
- 2: operational error.  An unreadable, malformed or wrong-kind document
  (``DocumentError``, ``OSError``) or a result that cannot be computed
  exactly (``ExactnessError``) prints ``error: <msg>`` on stderr.  Usage
  errors, such as an option value out of range, also exit 2.

Documents are the JSON envelopes of the serialize module; bare names are
resolved against the bundled corpus, or against the directory named by
MRFW_CORPUS.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .chartab import theorem57_check, validate_table
from .mr import (
    grading_forcing_check,
    integrality_class,
    mr_extend,
    prime_rank_check,
    spherical_witness,
)
from .obstruction import (
    DEFAULT_NODE_CAP,
    FEASIBLE_MEANING,
    classify_rank4_mr,
    obstruct,
)
from .premodular import degeneracy_class, premodular_data
from .ring import (
    FusionRing,
    adjoint_and_grading,
    detect_mr,
    fpdims,
    invertibles,
)
from .scalars import ExactnessError
from .serialize import (
    DocumentError,
    canonical_dumps,
    load_document,
    premodular_from_payload,
    replay_from_payload,
    report_doc,
    ring_from_payload,
    ring_to_doc,
    scalar_to_json,
    table_from_payload,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_OPERATIONAL = 2


def corpus_dir() -> Path:
    override = os.environ.get("MRFW_CORPUS")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "corpus"


def resolve_document(ref: str) -> dict:
    """Load a document from a path, or from the corpus by bare name."""
    p = Path(ref)
    if p.exists():
        return load_document(p)
    candidate = corpus_dir() / f"{ref}.json"
    if candidate.exists():
        return load_document(candidate)
    raise FileNotFoundError(f"no such file or corpus entry: {ref}")


def _load(ref: str, kind: str) -> dict:
    """The payload of document `ref`, which must be of `kind`."""
    doc = resolve_document(ref)
    if doc["kind"] != kind:
        raise DocumentError(f"expected a {kind} document, got {doc['kind']!r}")
    return doc["payload"]


def check(ref: str) -> None:
    """Validate a document (ring axioms or table orthogonality)."""
    doc = resolve_document(ref)
    kind = doc["kind"]
    if kind == "ring":
        problems = [str(v) for v in ring_from_payload(doc["payload"]).validate()]
    elif kind == "chartable":
        problems = validate_table(table_from_payload(doc["payload"]))
    elif kind == "premodular":
        ring, dims, twists = premodular_from_payload(doc["payload"])
        problems = [str(v) for v in ring.validate()]
        if not problems:
            premodular_data(ring, dims, twists)
    else:
        problems = []
    if problems:
        for line in problems:
            print(f"INVALID: {line}")
        raise SystemExit(EXIT_INVALID)
    print(f"valid {kind} document")


def report(ref: str) -> None:
    """One-page exact analysis of a ring document."""
    ring = ring_from_payload(_load(ref, "ring"))
    problems = ring.validate()
    if problems:
        print(f"INVALID: {problems[0]}")
        raise SystemExit(EXIT_INVALID)
    # every step runs before the first line is printed, so a step that
    # fails leaves stdout empty rather than holding half a report
    print("\n".join(_report_lines(ring)))


def _report_lines(ring: FusionRing):
    yield f"rank {ring.rank} basis ({', '.join(ring.labels)})"
    dims = fpdims(ring)
    yield (
        "FP dims: "
        + ", ".join(str(d) for d in dims.dims)
        + f"; global dim {dims.total()}"
    )
    group = invertibles(ring)
    if len(group.elements) == ring.rank:
        yield "pointed: every basis element is invertible"
    mr = detect_mr(ring)
    if mr is None:
        yield "no corank-one subring structure"
        return
    yield f"MR(a={mr.a}, kappa={mr.kappa}); extra object {ring.labels[mr.extra]}"
    if len(group.elements) == ring.rank - 1 and mr.extra not in group.elements:
        yield "near-group: all non-extra basis elements invertible"
    klass = integrality_class(mr.a, mr.kappa)
    yield f"integrality class: {klass}"
    grading = adjoint_and_grading(ring)
    if grading.group_order > 1:
        line = f"faithfully graded by a group of order {grading.group_order}"
        if grading.rank_one_components:
            line += "; has a rank-1 component (fiber-functor flag)"
        yield line
    cert = spherical_witness(mr.a, mr.kappa)
    yield f"spherical certificate: conclusion {cert.conclusion}"
    prime = prime_rank_check(ring, mr)
    for line in prime.lines:
        yield f"prime-rank: {line}"
    if klass == "integral":
        forcing = grading_forcing_check(ring, mr)
        if forcing is not None:
            yield (
                f"grading forcing: kappa = {forcing.kappa} forces a "
                f"Z_{forcing.grading_group_order} grading"
            )


def _verdict_payload(ring: FusionRing, verdict, node_cap: int) -> dict:
    payload = {
        "ring": ring_to_doc(ring)["payload"],
        "node_cap": node_cap,
        "status": verdict.status,
        "stage": verdict.stage,
        "steps": list(verdict.steps),
        "meaning": FEASIBLE_MEANING,
    }
    if verdict.witness is not None:
        payload["witness"] = [list(r) for r in verdict.witness.all_rows()]
    return payload


def _same_witness(recorded, verdict) -> bool:
    """The recorded rows are the recomputed witness's, as lists of plain
    integers (a JSON `true` or `1.0` is not the integer 1)."""
    if verdict.witness is None or not isinstance(recorded, list):
        return False
    rows = [list(r) for r in verdict.witness.all_rows()]
    return recorded == rows and all(
        type(x) is int for row in recorded for x in row
    )


def obstruct_cmd(
    ref: Optional[str],
    sweep: bool,
    kappa_max: int,
    node_cap: int,
    jobs: Optional[int],
    replay: Optional[str],
) -> None:
    """Run the categorification obstruction pipeline."""
    if replay is not None:
        payload = _load(replay, "report")
        ring, status, stage, cap = replay_from_payload(payload)
        verdict = obstruct(ring, node_cap=cap or node_cap)
        same = verdict.status == status and verdict.stage == stage
        if "witness" in payload and not _same_witness(payload["witness"], verdict):
            print("replay: the recorded witness differs from the recomputed one")
            same = False
        print(
            f"replay: {verdict.status} at stage {verdict.stage} "
            f"({'match' if same else 'MISMATCH'})"
        )
        raise SystemExit(EXIT_OK if same else EXIT_INVALID)
    if sweep:
        table = classify_rank4_mr(kappa_max, node_cap=node_cap, jobs=jobs)
        payload = {
            "kappa_max": table.kappa_max,
            "columns": list(table.columns),
            "verdicts": [
                {"kappa": k, "statuses": list(row)} for k, row in table.verdicts
            ],
            "survivors": {c: table.survivors(c) for c in table.columns},
            "meaning": FEASIBLE_MEANING,
        }
        sys.stdout.write(canonical_dumps(report_doc(payload)))
        return
    if ref is None:
        print("error: provide a ring document or use --sweep", file=sys.stderr)
        raise SystemExit(EXIT_OPERATIONAL)
    ring = ring_from_payload(_load(ref, "ring"))
    verdict = obstruct(ring, node_cap=node_cap)
    sys.stdout.write(canonical_dumps(report_doc(_verdict_payload(ring, verdict, node_cap))))


def gagola(ref: str) -> None:
    """Two-class nonvanishing criterion versus corank-one subring."""
    rep = theorem57_check(table_from_payload(_load(ref, "chartable")))
    if rep.holds:
        print(
            f"criterion holds: character {rep.witness.char_index} is "
            f"supported on classes {list(rep.witness.nonvanishing_classes)}; "
            f"subring basis {list(rep.mr_basis)}"
        )
    else:
        print("criterion fails on both sides (no witness, no corank-one subring)")


def smatrix(ref: str) -> None:
    """S-matrix and degeneracy class of a premodular document."""
    data = premodular_data(*premodular_from_payload(_load(ref, "premodular")))
    degeneracy = degeneracy_class(data)
    payload = {
        "S": [[scalar_to_json(v) for v in row] for row in data.S],
        "degeneracy": degeneracy.label,
        "center": sorted(degeneracy.center),
        "svec_center": degeneracy.svec_center,
    }
    sys.stdout.write(canonical_dumps(report_doc(payload)))


def extend(ref: str, kappa: int, label: str) -> None:
    """Corank-one extension of an integral base ring."""
    ring = ring_from_payload(_load(ref, "ring"))
    sys.stdout.write(canonical_dumps(ring_to_doc(mr_extend(ring, kappa, extra_label=label))))


def _int_in(option: str, lo: int, hi: Optional[int] = None):
    """Parser of an int option that refuses a value outside [lo, hi], with
    no upper bound when hi is None, as "Invalid value for '--jobs': ..."."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bounds = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"
            raise argparse.ArgumentTypeError(
                f"Invalid value for '{option}': {value} is not in the range {bounds}.")
        return value
    return integer


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrfw", description="Exact-arithmetic workbench for corank-one fusion rings."
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for run in (check, report, obstruct_cmd, gagola, smatrix, extend):
        name = run.__name__.removesuffix("_cmd")
        sub = commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        sub.add_argument("ref", metavar="REF", nargs="?" if name == "obstruct" else None)
    sub = commands.choices["obstruct"]
    sub.add_argument("--sweep", action="store_true",
                     help="classify both rank-4 bases per kappa")
    sub.add_argument("--kappa-max", type=_int_in("--kappa-max", 0), default=60,
                     help="largest kappa of a sweep (default: %(default)s)")
    sub.add_argument("--node-cap", type=_int_in("--node-cap", 1), default=DEFAULT_NODE_CAP,
                     help="Gram search node cap (default: %(default)s)")
    sub.add_argument("--jobs", type=_int_in("--jobs", 1, os.cpu_count() or 1),
                     help="worker processes for sweeps")
    sub.add_argument("--replay", metavar="PATH",
                     help="re-run a certificate document and compare verdict and witness")
    sub = commands.choices["extend"]
    sub.add_argument("--kappa", type=int, required=True)
    sub.add_argument("--label", default="Z",
                     help="label of the new element (default: %(default)s)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command in `argv` (default: the process arguments) and
    return its exit code.  The one error boundary: ``DocumentError`` is a
    ``ValueError``, so it is matched first.  Any other exception type
    reaching here is a bug where it was raised."""
    try:
        args = vars(_parser().parse_args(argv))
        args.pop("run")(**args)
    except SystemExit as exc:  # a command's exit code, --help or a usage error
        return exc.code
    except (DocumentError, OSError, ExactnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except ValueError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
