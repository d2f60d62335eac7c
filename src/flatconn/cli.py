"""Command-line interface.

Verbs: holonomy, cover, induce, trivial, bundle, verify, export-dot.  Output
field order is fixed so identical input and seed give byte-identical output.
Exit codes: 0 all verdicts hold, 1 some verdict fails, 2 input or hypothesis
error.  Gate misses under "verify" are reported per claim and only force
exit 1 with --strict-gates.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from . import dot as dot_export
from .corpus import generate_corpus
from .errors import EnumerationCapError, FlatConnError, IncompleteAutomatonError
from .io import complex_to_json, parse_instance
from .theorems import (
    FAILS,
    GATE,
    HOLDS,
    Instance,
    is_induced_trivial,
    standard_reports,
    verify_theorem_1_1,
)


def _labels(instance: Instance, members) -> str:
    return ", ".join(instance.group.label(m) for m in members)


def _cmd_holonomy(args, out) -> int:
    inst = parse_instance(args.document)
    out.write(f"im_h: {_labels(inst, inst.image.members)}\n")
    out.write(f"im_h_order: {len(inst.image)}\n")
    out.write(f"ker_h_index: {inst.kernel_aut.state_count}\n")
    return 0


def _require_covering(inst: Instance) -> None:
    if inst.covering_spec is None:
        raise FlatConnError("document has no 'covering' section, required by this verb")


def _cmd_cover(args, out) -> int:
    inst = parse_instance(args.document)
    _require_covering(inst)
    cov = inst.cover
    if args.emit_complex:  # written before any stdout, so a write error leaves stdout empty
        try:
            with open(args.emit_complex, "w", encoding="utf-8") as fh:
                json.dump({"complex": complex_to_json(cov.total)}, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise FlatConnError(f"cannot write --emit-complex file: {exc}") from None
    out.write(f"degree: {cov.degree}\n")
    out.write(f"rank: {cov.total.free_rank}\n")
    out.write(f"regular: {'yes' if inst.subgroup_normal else 'no'}\n")
    if args.emit_complex:
        out.write(f"emitted: {args.emit_complex}\n")
    return 0


def _cmd_induce(args, out) -> int:
    inst = parse_instance(args.document)
    _require_covering(inst)
    report = verify_theorem_1_1(inst)
    out.write(f"induced_image: {_labels(inst, inst.induced_image.members)}\n")
    out.write(f"h_of_H: {_labels(inst, inst.restricted_image.members)}\n")
    out.write(f"equal: {'yes' if report.holds else 'no'}\n")
    return 0 if report.holds else 1


def _cmd_trivial(args, out) -> int:
    inst = parse_instance(args.document)
    _require_covering(inst)
    report = is_induced_trivial(inst)
    trivial = inst.induced_image.members == (0,)
    out.write(f"trivial: {'yes' if trivial else 'no'}\n")
    out.write(f"sides_agree: {'yes' if report.holds else 'no'}\n")
    if not trivial:
        product = "n/a"
    elif any(name == "product-form" for name, _ in report.witnesses):
        product = "failed"
    else:
        product = "ok"
    out.write(f"product_form: {product}\n")
    return 0 if report.holds else 1


def _cmd_bundle(args, out) -> int:
    inst = parse_instance(args.document)
    bundle = inst.base_bundle
    out.write(f"bundle_vertices: {bundle.graph.vertex_count}\n")
    out.write(f"bundle_edges: {len(bundle.graph.edges)}\n")
    out.write(f"components: {len(bundle.components)}\n")
    out.write(f"holonomy_bundle_degree: {bundle.sheets}\n")
    return 0


def _summary(verdicts: Counter) -> str:
    return f"holds={verdicts[HOLDS]} fails={verdicts[FAILS]} gates-not-met={verdicts[GATE]}"


def _verdict_exit(verdicts: Counter, strict_gates: bool) -> int:
    return 1 if verdicts[FAILS] or (strict_gates and verdicts[GATE]) else 0


def _cmd_verify(args, out) -> int:
    if args.samples < 0:
        raise FlatConnError(f"--samples must be non-negative, got {args.samples}")
    if args.all_random is not None:
        if args.all_random < 0:
            raise FlatConnError(f"--all-random must be non-negative, got {args.all_random}")
        if args.document is not None:
            raise FlatConnError("verify takes a document or --all-random N, not both")
        return _verify_random(args, out)
    if args.document is None:
        raise FlatConnError("verify needs a document or --all-random N")
    inst = parse_instance(args.document)
    _require_covering(inst)
    reports = standard_reports(inst, seed=args.seed, sample_count=args.samples)
    for k, report in enumerate(reports):
        if k:
            out.write("\n")
        for line in report.to_lines():
            out.write(line + "\n")
    verdicts = Counter(r.verdict for r in reports)
    out.write(f"\nsummary: {_summary(verdicts)}\n")
    return _verdict_exit(verdicts, args.strict_gates)


def _verify_random(args, out) -> int:
    """Verify the corpus one instance at a time, keeping only verdict counts."""
    verdicts = Counter()
    skipped = 0
    for k, item in enumerate(generate_corpus(args.seed, args.all_random)):
        inst = item.instance
        try:
            if not inst.subgroup_aut.complete:
                raise IncompleteAutomatonError("subgroup has infinite index (core incomplete)")
            cells = [
                (r.claim, r.verdict) for r in standard_reports(inst, seed=args.seed + k, sample_count=args.samples)
            ]
        except (EnumerationCapError, IncompleteAutomatonError) as exc:
            out.write(f"instance {item.name}: skipped ({exc})\n")
            skipped += 1
            continue
        out.write(f"instance {item.name}: {' '.join(f'{claim}={verdict}' for claim, verdict in cells)}\n")
        verdicts.update(verdict for _, verdict in cells)
    out.write(f"summary: instances={args.all_random} skipped={skipped} {_summary(verdicts)}\n")
    return _verdict_exit(verdicts, args.strict_gates)


def _cmd_export_dot(args, out) -> int:
    inst = parse_instance(args.document)
    what = args.what
    if what == "base":
        out.write(dot_export.complex_dot(inst.complex, voltage=inst.voltage))
    elif what == "cover":
        _require_covering(inst)
        out.write(dot_export.cover_dot(inst.cover))
    elif what == "bundle":
        out.write(dot_export.bundle_dot(inst.base_bundle))
    else:  # holonomy-bundle
        out.write(dot_export.holonomy_bundle_dot(inst.base_bundle))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatconn",
        description="Flat connections on finite 2-complexes: holonomy, coverings, verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("holonomy", help="holonomy image and kernel index")
    p.add_argument("document")

    p = sub.add_parser("cover", help="build the covering for the document's subgroup")
    p.add_argument("document")
    p.add_argument("--emit-complex", metavar="PATH", default=None,
                   help="write the covering complex as a JSON document")

    p = sub.add_parser("induce", help="induced holonomy image vs restricted image")
    p.add_argument("document")

    p = sub.add_parser("trivial", help="triviality criterion for the induced connection")
    p.add_argument("document")

    p = sub.add_parser("bundle", help="derived bundle statistics")
    p.add_argument("document")

    p = sub.add_parser("verify", help="run every claim check")
    p.add_argument("document", nargs="?", default=None)
    p.add_argument("--seed", type=int, required=True,
                   help="seed for word sampling (and corpus generation)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--strict-gates", action="store_true",
                   help="treat hypothesis-gate misses as failures")
    p.add_argument("--all-random", type=int, metavar="N", default=None,
                   help="verify N generated instances instead of a document")

    p = sub.add_parser("export-dot", help="emit Graphviz DOT")
    p.add_argument("document")
    p.add_argument("--what", choices=("base", "cover", "bundle", "holonomy-bundle"),
                   required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "holonomy": _cmd_holonomy,
        "cover": _cmd_cover,
        "induce": _cmd_induce,
        "trivial": _cmd_trivial,
        "bundle": _cmd_bundle,
        "verify": _cmd_verify,
        "export-dot": _cmd_export_dot,
    }
    try:
        return handlers[args.verb](args, sys.stdout)
    except FlatConnError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
