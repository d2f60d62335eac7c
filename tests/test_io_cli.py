import gc
import json
import os
import weakref

import pytest

from flatconn import cli
from flatconn.cli import main
from flatconn.complexes import validate_complex
from flatconn.errors import EnumerationCapError, IncompleteAutomatonError, InputError
from flatconn.io import (
    complex_to_json,
    parse_complex,
    parse_instance,
    parse_instance_data,
    word_to_string,
)
from flatconn.theorems import FAILS, standard_reports

HERE = os.path.dirname(__file__)
INSTANCES = os.path.join(HERE, os.pardir, "instances")
GOLDEN = os.path.join(HERE, "golden")
# three components, the basepoint lift in the last: the holonomy-bundle
# export must keep only the basepoint component's vertices and lifts
OFFBASE = os.path.join(HERE, "documents", "offbase_s3_components.json")
# the bytes ff fe { }: a UTF-16 byte-order mark, not UTF-8 text
NOT_UTF8 = os.path.join(HERE, "documents", "not_utf8.txt")


def doc_path(name):
    return os.path.join(INSTANCES, name)


def load_doc(name):
    with open(doc_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# parsing


def test_parse_running_example():
    inst = parse_instance(doc_path("wedge_s3_a3.json"))
    assert inst.group.order == 6
    assert inst.complex.vertex_count == 1
    assert inst.voltage.on_edge(0) == 1
    assert inst.subgroup_aut.state_count == 2


def test_parse_word_strings():
    def relators(*texts):
        edges = [{"id": 0, "tail": 0, "head": 0}, {"id": 1, "tail": 0, "head": 0}]
        c, _ = parse_complex({"vertices": 1, "edges": edges, "aliases": {"a": 0, "b": 1}, "relators": list(texts)})
        return c.relators

    assert relators("a b^-1 e0") == (((0, 1), (1, -1), (0, 1)),)
    assert word_to_string(((0, 1), (1, -1))) == "e0 e1^-1"
    with pytest.raises(InputError, match="unknown edge or alias"):
        relators("c")
    with pytest.raises(InputError, match="unknown edge"):
        relators("e7")


def test_missing_voltage_names_edge():
    doc = load_doc("wedge_s3_a3.json")
    doc["voltage"] = doc["voltage"][:1]
    with pytest.raises(InputError, match="missing for edge 1") as err:
        parse_instance_data(doc)
    assert err.value.location == "/voltage"


def test_nonflat_reports_relator_and_product():
    doc = load_doc("torus_s3_nonflat.json")
    with pytest.raises(InputError, match=r"relator 0 multiplies to \(021\)") as err:
        parse_instance_data(doc)
    assert err.value.location == "/voltage"


def test_bad_element_label_location():
    doc = load_doc("wedge_s3_a3.json")
    doc["voltage"][0]["element"] = "(07)"
    with pytest.raises(InputError) as err:
        parse_instance_data(doc)
    assert err.value.location == "/voltage/0/element"


def test_unknown_group_location():
    doc = load_doc("wedge_s3_a3.json")
    doc["group"] = "Q8"
    with pytest.raises(InputError) as err:
        parse_instance_data(doc)
    assert err.value.location == "/group"


def test_disconnected_complex_location():
    doc = load_doc("wedge_s3_a3.json")
    doc["complex"]["vertices"] = 2
    with pytest.raises(InputError, match="disconnected") as err:
        parse_instance_data(doc)
    assert err.value.location == "/complex"


def test_covering_word_must_be_closed():
    doc = load_doc("wedge_s3_a3.json")
    doc["complex"] = {
        "vertices": 2,
        "edges": [{"id": 0, "tail": 0, "head": 1}, {"id": 1, "tail": 0, "head": 1}],
        "basepoint": 0,
    }
    doc["voltage"] = [{"edge": 0, "element": 0}, {"edge": 1, "element": 0}]
    doc["covering"] = {"kind": "words", "words": ["e0"]}
    with pytest.raises(InputError, match="closed loop"):
        parse_instance_data(doc)


def test_quotient_covering_with_explicit_group():
    doc = load_doc("wedge_s3_a3.json")
    doc["covering"] = {
        "kind": "quotient",
        "group": "Z2",
        "images": [1, 0],
        "subgroup": [0],
    }
    inst = parse_instance_data(doc)
    assert inst.subgroup_aut.state_count == 2


def test_explicit_group_requires_images():
    doc = load_doc("wedge_s3_a3.json")
    doc["covering"] = {"kind": "quotient", "group": "Z2", "subgroup": [0]}
    with pytest.raises(InputError, match="explicit images"):
        parse_instance_data(doc)


def test_permutation_group_document():
    doc = load_doc("wedge_s3_a3.json")
    doc["group"] = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    doc["voltage"] = [{"edge": 0, "element": "(01)"}, {"edge": 1, "element": "(012)"}]
    inst = parse_instance_data(doc)
    assert inst.group.order == 6


def test_complex_json_round_trip(torus):
    data = complex_to_json(torus)
    rebuilt, _ = parse_complex(data)
    assert rebuilt.vertex_count == torus.vertex_count
    assert [(e.id, e.tail, e.head) for e in rebuilt.edges] == [
        (e.id, e.tail, e.head) for e in torus.edges
    ]
    assert rebuilt.relators == torus.relators


# ---------------------------------------------------------------------------
# CLI golden outputs and exit codes


@pytest.mark.parametrize(
    "argv,golden_name",
    [
        (["holonomy", doc_path("wedge_s3_a3.json")], "holonomy_wedge_s3.txt"),
        (["cover", doc_path("wedge_s3_a3.json")], "cover_wedge_s3_a3.txt"),
        (["cover", doc_path("wedge_s3_01.json")], "cover_wedge_s3_01.txt"),
        (["induce", doc_path("wedge_s3_a3.json")], "induce_wedge_s3_a3.txt"),
        (["trivial", doc_path("wedge_s3_kernel.json")], "trivial_wedge_s3_kernel.txt"),
        (["bundle", doc_path("wedge_s3_kernel.json")], "bundle_wedge_s3.txt"),
        (["verify", doc_path("wedge_s3_a3.json"), "--seed", "5"], "verify_wedge_s3_a3.txt"),
        (["export-dot", doc_path("circle_z2.json"), "--what", "bundle"], "dot_circle_z2_bundle.txt"),
        (
            ["export-dot", doc_path("wedge_s3_kernel.json"), "--what", "holonomy-bundle"],
            "dot_wedge_s3_kernel_holonomy_bundle.txt",
        ),
        (["verify", "--all-random", "200", "--seed", "7"], "verify_all_random_200_seed7.txt"),
        (["export-dot", doc_path("wedge_s3_a3.json"), "--what", "cover"], "dot_wedge_s3_a3_cover.txt"),
        (["export-dot", doc_path("torus_z4.json"), "--what", "cover"], "dot_torus_z4_cover.txt"),
        (["bundle", OFFBASE], "bundle_offbase_s3_components.txt"),
        (
            ["export-dot", OFFBASE, "--what", "holonomy-bundle"],
            "dot_offbase_s3_components_holonomy_bundle.txt",
        ),
    ],
)
def test_cli_golden(argv, golden_name, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == golden(golden_name)
    # byte-identical on a second run
    code2, out2, _ = run_cli(argv, capsys)
    assert code2 == 0 and out2 == out


def test_cli_nonflat_exit_2(capsys):
    code, out, err = run_cli(["holonomy", doc_path("torus_s3_nonflat.json")], capsys)
    assert code == 2
    assert "(021)" in err


def test_cli_cap_exceeded_exit_2(capsys):
    code, out, err = run_cli(["cover", doc_path("torus_infinite_index.json")], capsys)
    assert code == 2
    assert "did not complete within cap" in err


def test_cli_non_regular_flagged(capsys):
    code, out, err = run_cli(["cover", doc_path("wedge_s3_01.json")], capsys)
    assert code == 0
    assert "regular: no" in out


def test_cli_trivial_no_is_exit_0(capsys):
    code, out, err = run_cli(["trivial", doc_path("wedge_s3_a3.json")], capsys)
    assert code == 0
    assert "trivial: no" in out


def test_cli_missing_covering_section(capsys):
    code, out, err = run_cli(["cover", doc_path("torus_s3_nonflat.json")], capsys)
    assert code == 2  # flatness error fires first


def test_document_that_is_not_utf8_is_an_input_error(capsys):
    with pytest.raises(InputError) as err:
        parse_instance(NOT_UTF8)
    assert err.value.location == "/"
    code, out, err = run_cli(["verify", NOT_UTF8, "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: /: document is not UTF-8 text: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_document_nested_too_deeply_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    with pytest.raises(InputError) as err:
        parse_instance(str(path))
    assert err.value.location == "/"
    code, out, err = run_cli(["verify", str(path), "--seed", "1"], capsys)
    assert (code, out, err) == (2, "", "error: /: document nests too deeply to read\n")


def test_cli_unwritable_emit_complex_path_exit_2(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "c.json"
    code, out, err = run_cli(["cover", doc_path("torus_z4.json"), "--emit-complex", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --emit-complex file: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "field,value,location",
    [
        ("basepoint", "x", "/complex/basepoint"),
        ("aliases", {"a": "zz"}, "/complex/aliases/a"),
    ],
)
def test_cli_non_integer_complex_field_exit_2(tmp_path, capsys, field, value, location):
    doc = load_doc("wedge_s3_01.json")
    doc["complex"][field] = value
    assert_input_error(doc, location, tmp_path, capsys)


def assert_input_error(doc, location, tmp_path, capsys):
    """verify on the document exits 2 with the location and no stdout."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["verify", str(path), "--seed", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {location}: ")
    assert "Traceback" not in err
    return err


S3_BY_PERMUTATIONS = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}


@pytest.mark.parametrize(
    "keys,value,location",
    [
        (("group",), {"degree": 3, "generators": 5}, "/group/generators"),
        (("group",), {"degree": 3, "generators": [5]}, "/group/generators/0"),
        (("group",), dict(S3_BY_PERMUTATIONS, labels=5), "/group/labels"),
        (("complex", "aliases"), ["a"], "/complex/aliases"),
        (("complex", "edges"), 5, "/complex/edges"),
        (("complex", "relators"), 5, "/complex/relators"),
        (("voltage", 0, "edge"), [1], "/voltage/0/edge"),
        (("covering",), {"kind": "words", "words": 5}, "/covering/words"),
        (("covering",), {"kind": "words", "words": [5]}, "/covering/words/0"),
        (("group",), dict(S3_BY_PERMUTATIONS, degree=3.5), "/group/degree"),
        (("group",), dict(S3_BY_PERMUTATIONS, degree="3"), "/group/degree"),
        (("group",), dict(S3_BY_PERMUTATIONS, degree=True), "/group/degree"),
        (("group",), {"degree": 3, "generators": [[1, 0, 2], [1.5, 2, 0]]}, "/group/generators/1/0"),
        (("group",), {"degree": 3, "generators": [[1, "0", 2], [1, 2, 0]]}, "/group/generators/0/1"),
        (("group",), {"degree": 3, "generators": [[True, False, 2], [1, 2, 0]]}, "/group/generators/0/0"),
        (
            ("group",),
            dict(S3_BY_PERMUTATIONS, labels=["e", "(01)", "(012)", "(02)", "(12)", 5]),
            "/group/labels/5",
        ),
        (("covering", "cap"), True, "/covering/cap"),
        (("covering", "cap"), 2.7, "/covering/cap"),
        (("covering", "cap"), "3", "/covering/cap"),
        (("complex", "vertices"), 1.5, "/complex/vertices"),
        (("complex", "vertices"), True, "/complex/vertices"),
        (("complex", "vertices"), "1", "/complex/vertices"),
        (("complex", "basepoint"), 0.0, "/complex/basepoint"),
        (("complex", "basepoint"), True, "/complex/basepoint"),
        (("complex", "edges", 1, "id"), 1.5, "/complex/edges/1"),
        (("complex", "aliases", "a"), 1.0, "/complex/aliases/a"),
        (("voltage", 0, "edge"), True, "/voltage/0/edge"),
    ],
)
def test_cli_wrongly_typed_field_exit_2(tmp_path, capsys, keys, value, location):
    doc = load_doc("wedge_s3_01.json")
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    assert_input_error(doc, location, tmp_path, capsys)


def integer_leaves(node, pointer=()):
    """(pointer parts, value) of every JSON integer in a document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, int) and not isinstance(node, bool):
            yield pointer, node
        return
    for key, child in items:
        yield from integer_leaves(child, pointer + (key,))


def is_element_reference(parts):
    """Element references accept labels, so a digit string may be valid."""
    return parts[-1] == "element" or (len(parts) >= 2 and parts[-2] in ("subgroup", "images"))


def test_retyped_integer_leaves_are_rejected_at_their_location():
    swept = 0
    for name in sorted(os.listdir(INSTANCES)):
        doc = load_doc(name)
        try:
            parse_instance_data(doc)
        except InputError:
            continue
        for parts, value in integer_leaves(doc):
            leaf = "/" + "/".join(map(str, parts))
            parent = "/" + "/".join(map(str, parts[:-1]))
            replacements = [1.5, float(value), True, False]
            if not is_element_reference(parts):
                replacements.append(str(value))
            for replacement in replacements:
                mutated = json.loads(json.dumps(doc))
                target = mutated
                for key in parts[:-1]:
                    target = target[key]
                target[parts[-1]] = replacement
                with pytest.raises(InputError) as err:
                    parse_instance_data(mutated)
                assert err.value.location in (leaf, parent), (name, leaf, replacement)
                swept += 1
    assert swept > 100


def out_of_range_references(doc):
    """(pointer parts, integer) for every vertex and edge reference of a
    document, each paired with values just outside the valid range."""
    cx = doc["complex"]
    bad_vertices = (-1, cx["vertices"])
    bad_edges = (-1, max(e["id"] for e in cx["edges"]) + 1)
    for k in range(len(cx["edges"])):
        for key in ("tail", "head"):
            yield from ((("complex", "edges", k, key), bad) for bad in bad_vertices)
    for name in cx.get("aliases", {}):
        yield from ((("complex", "aliases", name), bad) for bad in bad_edges)
    for k in range(len(doc["voltage"])):
        yield from ((("voltage", k, "edge"), bad) for bad in bad_edges)
    yield from ((("complex", "basepoint"), bad) for bad in bad_vertices)


def with_leaf(doc, parts, value):
    """A copy of the document with the leaf at ``parts`` set to ``value``."""
    mutated = json.loads(json.dumps(doc))
    target = mutated
    for key in parts[:-1]:
        target = target[key]
    target[parts[-1]] = value
    return mutated


def test_out_of_range_references_are_rejected_at_their_location():
    swept = 0
    for name in sorted(os.listdir(INSTANCES)):
        doc = load_doc(name)
        try:
            parse_instance_data(doc)
        except InputError:
            continue
        for parts, bad in out_of_range_references(doc):
            with pytest.raises(InputError) as err:
                parse_instance_data(with_leaf(doc, parts, bad))
            leaf = "/" + "/".join(map(str, parts))
            assert err.value.location == leaf, (name, leaf, bad, err.value.location)
            swept += 1
    assert swept > 50


@pytest.mark.parametrize(
    "keys,value,location,message",
    [
        (("complex", "edges", 1, "tail"), 1, "/complex/edges/1/tail", "vertex 1 out of range"),
        (("complex", "edges", 0, "head"), -1, "/complex/edges/0/head", "vertex -1 out of range"),
        (("complex", "edges", 1, "id"), 0, "/complex/edges/1/id", "duplicate edge id 0"),
        (("complex", "aliases", "b"), 7, "/complex/aliases/b", "unknown edge 7"),
        (("complex", "basepoint"), 3, "/complex/basepoint", "basepoint 3 out of range"),
        (("voltage", 0, "edge"), 9, "/voltage/0/edge", "unknown edge 9"),
        (("complex", "vertices"), 0, "/complex/vertices", "must be positive"),
    ],
)
def test_cli_out_of_range_reference_exit_2(tmp_path, capsys, keys, value, location, message):
    doc = with_leaf(load_doc("wedge_s3_01.json"), keys, value)
    assert message in assert_input_error(doc, location, tmp_path, capsys)


REPLACEMENTS = (None, {}, [], "x", [[]], -1, 0)


def field_pointers(node, pointer=()):
    """Pointer parts of every field of a document: each object member and
    each list element, at every depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield pointer + (key,)
        yield from field_pointers(child, pointer + (key,))


def without_field(doc, parts):
    """A copy of the document with the field at ``parts`` deleted."""
    mutated = json.loads(json.dumps(doc))
    target = mutated
    for key in parts[:-1]:
        target = target[key]
    del target[parts[-1]]
    return mutated


def test_dropped_and_replaced_fields_fail_cleanly_or_verify():
    """Every field of every parsable document, deleted or replaced by each
    of ``REPLACEMENTS``: the mutant raises InputError at a JSON pointer, or
    it parses and then verifies with seven reports and no failing verdict,
    or it ends as the CLI ends it (no covering section, or a subgroup of
    infinite index)."""
    outcomes = {"input-error": 0, "verified": 0, "no-covering": 0, "infinite-index": 0}
    for name in sorted(os.listdir(INSTANCES)):
        doc = load_doc(name)
        try:
            parse_instance_data(doc)
        except InputError:
            continue
        for parts in field_pointers(doc):
            mutants = [without_field(doc, parts)] + [with_leaf(doc, parts, r) for r in REPLACEMENTS]
            for mutated in mutants:
                try:
                    inst = parse_instance_data(mutated)
                except InputError as exc:
                    assert exc.location.startswith("/"), (name, parts, exc.location)
                    outcomes["input-error"] += 1
                    continue
                if inst.covering_spec is None:
                    outcomes["no-covering"] += 1
                    continue
                try:
                    if not inst.subgroup_aut.complete:
                        raise IncompleteAutomatonError("subgroup has infinite index (core incomplete)")
                    reports = standard_reports(inst, seed=1)
                except (EnumerationCapError, IncompleteAutomatonError):
                    outcomes["infinite-index"] += 1
                    continue
                assert len(reports) == 7, (name, parts)
                assert all(r.verdict != FAILS for r in reports), (name, parts)
                outcomes["verified"] += 1
    assert sum(outcomes.values()) == 1544
    assert min(outcomes.values()) > 0 and outcomes["input-error"] > 1000, outcomes


DROP = object()


@pytest.mark.parametrize(
    "keys,value,location",
    [
        (("group",), DROP, "/group"),
        (("group",), {}, "/group"),
        (("complex", "vertices"), DROP, "/complex"),
        (("complex", "edges"), "x", "/complex/edges"),
        (("voltage", 0), DROP, "/voltage"),
        (("voltage", 0, "element"), [[]], "/voltage/0/element"),
        (("covering", "kind"), DROP, "/covering"),
        (("covering",), "x", "/covering"),
    ],
)
def test_cli_dropped_or_replaced_field_exit_2(tmp_path, capsys, keys, value, location):
    """One dropped and one replaced field per section."""
    doc = load_doc("wedge_s3_01.json")
    doc = without_field(doc, keys) if value is DROP else with_leaf(doc, keys, value)
    assert_input_error(doc, location, tmp_path, capsys)


def test_cli_verify_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["verify", doc_path("wedge_s3_a3.json")])


def test_cli_verify_all_random(capsys):
    code, out, err = run_cli(["verify", "--all-random", "12", "--seed", "4"], capsys)
    assert code == 0
    assert "summary: instances=12" in out
    lines = [ln for ln in out.splitlines() if ln.startswith("instance ")]
    assert len(lines) == 12
    code2, out2, _ = run_cli(["verify", "--all-random", "12", "--seed", "4"], capsys)
    assert out2 == out


def test_cli_verify_all_random_releases_verified_instances(monkeypatch, capsys):
    verified = []

    def reports_after_release(inst, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in verified)  # only the instance at hand is alive
        verified.append(weakref.ref(inst))
        return standard_reports(inst, **kwargs)

    monkeypatch.setattr(cli, "standard_reports", reports_after_release)
    code, out, _ = run_cli(["verify", "--all-random", "12", "--seed", "4"], capsys)
    assert code == 0 and len(verified) > 1 and len(verified) + out.count(": skipped (") == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", doc_path("wedge_s3_a3.json"), "--seed", "5", "--samples", "-3"],
        ["verify", "--all-random", "3", "--seed", "1", "--samples", "-1"],
    ],
)
def test_cli_negative_samples_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --samples must be non-negative, got {argv[-1]}\n"


def test_cli_zero_samples_still_decides(capsys):
    # functoriality is decided on the generators; only the hypothesis line names the count
    code, out, _ = run_cli(["verify", doc_path("wedge_s3_a3.json"), "--seed", "5", "--samples", "0"], capsys)
    assert code == 0
    assert out == golden("verify_wedge_s3_a3.txt").replace("samples 100", "samples 0")


def test_cli_strict_gates(capsys):
    # two section-2 gates miss on the A3 document: strict mode turns that
    # into exit 1, default mode does not
    argv = ["verify", doc_path("wedge_s3_a3.json"), "--seed", "5"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    code, out, _ = run_cli(argv + ["--strict-gates"], capsys)
    assert code == 1


def test_cli_export_dot_holonomy_bundle(capsys):
    code, out, err = run_cli(
        ["export-dot", doc_path("wedge_s3_kernel.json"), "--what", "holonomy-bundle"], capsys
    )
    assert code == 0
    assert out.startswith("digraph holonomy_bundle {")
    assert '"p0_0"' in out and '"p0_5"' in out


def test_cli_export_dot_base_includes_voltage_labels(capsys):
    code, out, err = run_cli(
        ["export-dot", doc_path("wedge_s3_a3.json"), "--what", "base"], capsys
    )
    assert code == 0
    assert 'label="e0 (01)"' in out
    assert 'label="e1 (012)"' in out


def test_cli_export_dot_cover(capsys):
    code, out, err = run_cli(
        ["export-dot", doc_path("wedge_s3_a3.json"), "--what", "cover"], capsys
    )
    assert code == 0
    assert out.startswith("digraph cover {")
    assert '"v0_0"' in out and '"v1_0"' in out


def test_cover_emit_complex_round_trip(tmp_path, capsys):
    out_path = tmp_path / "cover.json"
    code, out, err = run_cli(
        ["cover", doc_path("wedge_s3_a3.json"), "--emit-complex", str(out_path)], capsys
    )
    assert code == 0
    with open(out_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rebuilt, _ = parse_complex(data["complex"])
    validate_complex(rebuilt)
    assert rebuilt.vertex_count == 2 * 1
    assert len(rebuilt.edges) == 2 * 2


def test_cover_emit_complex_pins_lifted_relators(tmp_path, capsys):
    # the emitted document fixes the numbering of lifted edges and the order of lifted relators
    out_path = tmp_path / "cover.json"
    code, out, err = run_cli(
        ["cover", doc_path("torus_z4.json"), "--emit-complex", str(out_path)], capsys
    )
    assert code == 0
    assert out == f"degree: 4\nrank: 5\nregular: yes\nemitted: {out_path}\n"
    with open(out_path, "r", encoding="utf-8") as fh:
        assert fh.read() == golden("cover_torus_z4_complex.json")


def test_cli_golden_kernel_gate_miss(capsys):
    # the b-parity subgroup: the kernel escapes it, so cor_2_2's gate fails
    parity = doc_path("wedge_s3_parity.json")
    test_cli_golden(["verify", parity, "--seed", "5"], "verify_wedge_s3_parity.txt", capsys)


@pytest.mark.parametrize("verb", [["verify", "--seed", "1"], ["cover"]], ids=["verify", "cover"])
@pytest.mark.parametrize(
    "images,message",
    [
        (["(01)"], "quotient spec has 1 images for 2 generators"),
        (
            ["(01)", "(012)"],
            "relator 0 maps to (012), not the identity; the quotient morphism is not well defined",
        ),
    ],
    ids=["length", "relator"],
)
def test_cli_explicit_quotient_images_are_validated(tmp_path, capsys, verb, images, message):
    doc = load_doc("torus_z4.json")
    doc["covering"] = {"kind": "quotient", "group": "S3", "images": images}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli([verb[0], str(path)] + verb[1:], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: /covering/images: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--all-random", "-1", "--seed", "1"], "--all-random must be non-negative, got -1"),
        (
            ["verify", doc_path("wedge_s3_a3.json"), "--all-random", "2", "--seed", "1"],
            "verify takes a document or --all-random N, not both",
        ),
    ],
    ids=["negative", "with-document"],
)
def test_cli_all_random_misuse_exit_2(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_cli_zero_all_random_verifies_nothing(capsys):
    code, out, err = run_cli(["verify", "--all-random", "0", "--seed", "1"], capsys)
    assert (code, err) == (0, "")
    assert out == "summary: instances=0 skipped=0 holds=0 fails=0 gates-not-met=0\n"
