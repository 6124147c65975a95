"""Command-line surface: document checking, analysis reports, the
categorification obstruction pipeline, character-table checks, S-matrices,
and corank-one extensions.

Exit codes, all set by the one error boundary on the ``main`` group:

- 0: the command completed, whatever its verdict;
- 1: validation failure.  A ring or table that fails its axioms, and any
  other ``ValueError`` a command raises, prints ``INVALID: <msg>`` on
  stderr.  The problem lines that ``check`` and ``report`` list from a
  validation report go to stdout, and so does a replay ``MISMATCH``;
- 2: operational error.  An unreadable, malformed or wrong-kind document
  (``DocumentError``, ``OSError``) or a result that cannot be computed
  exactly (``ExactnessError``) prints ``error: <msg>`` on stderr.  Click
  usage errors, such as an option value out of range, also exit 2.

Documents are the JSON envelopes of the serialize module; bare names are
resolved against the bundled corpus, or against the directory named by
MRFW_CORPUS.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

import click

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


def _emit(doc: dict) -> None:
    click.echo(canonical_dumps(doc), nl=False)


class _ExitCodeGroup(click.Group):
    """Maps what a command raises to the exit-code contract.

    ``DocumentError`` is a ``ValueError``, so it is matched first.  Any
    other exception type reaching here is a bug where it was raised.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (DocumentError, OSError, ExactnessError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(EXIT_OPERATIONAL)
        except ValueError as exc:
            click.echo(f"INVALID: {exc}", err=True)
            raise SystemExit(EXIT_INVALID)


@click.group(cls=_ExitCodeGroup)
def main() -> None:
    """Exact-arithmetic workbench for corank-one fusion rings."""


@main.command()
@click.argument("ref")
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
            click.echo(f"INVALID: {line}")
        raise SystemExit(EXIT_INVALID)
    click.echo(f"valid {kind} document")


@main.command()
@click.argument("ref")
def report(ref: str) -> None:
    """One-page exact analysis of a ring document."""
    ring = ring_from_payload(_load(ref, "ring"))
    problems = ring.validate()
    if problems:
        click.echo(f"INVALID: {problems[0]}")
        raise SystemExit(EXIT_INVALID)
    # every step runs before the first line is printed, so a step that
    # fails leaves stdout empty rather than holding half a report
    click.echo("\n".join(_report_lines(ring)))


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


@main.command(name="obstruct")
@click.argument("ref", required=False)
@click.option("--sweep", is_flag=True, help="classify both rank-4 bases per kappa")
@click.option("--kappa-max", type=click.IntRange(min=0), default=60, show_default=True)
@click.option(
    "--node-cap", type=click.IntRange(min=1), default=DEFAULT_NODE_CAP, show_default=True
)
@click.option(
    "--jobs",
    type=click.IntRange(1, os.cpu_count() or 1),
    default=None,
    help="worker processes for sweeps",
)
@click.option("--replay", type=click.Path(exists=False), default=None,
              help="re-run a certificate document and compare verdict and witness")
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
            click.echo("replay: the recorded witness differs from the recomputed one")
            same = False
        click.echo(
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
        _emit(report_doc(payload))
        return
    if ref is None:
        raise click.UsageError("provide a ring document or use --sweep")
    ring = ring_from_payload(_load(ref, "ring"))
    verdict = obstruct(ring, node_cap=node_cap)
    _emit(report_doc(_verdict_payload(ring, verdict, node_cap)))


@main.command()
@click.argument("ref")
def gagola(ref: str) -> None:
    """Two-class nonvanishing criterion versus corank-one subring."""
    rep = theorem57_check(table_from_payload(_load(ref, "chartable")))
    if rep.holds:
        click.echo(
            f"criterion holds: character {rep.witness.char_index} is "
            f"supported on classes {list(rep.witness.nonvanishing_classes)}; "
            f"subring basis {list(rep.mr_basis)}"
        )
    else:
        click.echo("criterion fails on both sides (no witness, no corank-one subring)")


@main.command()
@click.argument("ref")
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
    _emit(report_doc(payload))


@main.command()
@click.argument("ref")
@click.option("--kappa", type=int, required=True)
@click.option("--label", default="Z", show_default=True, help="label of the new element")
def extend(ref: str, kappa: int, label: str) -> None:
    """Corank-one extension of an integral base ring."""
    ring = ring_from_payload(_load(ref, "ring"))
    _emit(ring_to_doc(mr_extend(ring, kappa, extra_label=label)))


if __name__ == "__main__":
    main()
