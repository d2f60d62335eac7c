"""Pinned error paths of word strings and element labels.

Every malformed word string or element label in a document is rejected with
a fixed text at a fixed JSON-pointer location, through
``parse_instance_data`` and through the CLI (exit 2, empty stdout, one
stderr line).  These pins hold the texts, locations and the order in which
errors are found, whatever reads the words and resolves the labels.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import flatconn
from flatconn.cli import main
from flatconn.errors import InputError
from flatconn.io import parse_instance_data


def path_document(relators=(), words=("a b",)):
    """Two vertices joined by four edges: a = e0 and the alias e3 = e2 go
    0 -> 1, b = e1 and edge 3 go 1 -> 0.  The alias ``e3`` names edge 2, so
    "e3 e1" closes at the basepoint while edge 3 followed by e1 would not."""
    return {
        "group": "S3",
        "complex": {
            "vertices": 2,
            "edges": [
                {"id": 0, "tail": 0, "head": 1},
                {"id": 1, "tail": 1, "head": 0},
                {"id": 2, "tail": 0, "head": 1},
                {"id": 3, "tail": 1, "head": 0},
            ],
            "basepoint": 0,
            "aliases": {"a": 0, "b": 1, "e3": 2},
            "relators": list(relators),
        },
        "voltage": [{"edge": eid, "element": "e"} for eid in range(4)],
        "covering": {"kind": "words", "words": list(words)},
    }


def wedge_document(group="S3", voltage=("(01)", "(012)"), covering=None):
    return {
        "group": group,
        "complex": {
            "vertices": 1,
            "edges": [{"id": 0, "tail": 0, "head": 0}, {"id": 1, "tail": 0, "head": 0}],
            "aliases": {"a": 0, "b": 1},
        },
        "voltage": [{"edge": "a", "element": voltage[0]}, {"edge": "b", "element": voltage[1]}],
        "covering": covering or {"kind": "quotient", "subgroup": [0]},
    }


def assert_rejected(doc, location, message, tmp_path, capsys):
    """The document fails to parse with exactly this location and text, and
    the CLI prints exactly that line to stderr, nothing to stdout, exit 2."""
    with pytest.raises(InputError) as err:
        parse_instance_data(doc)
    assert (err.value.location, err.value.args[0]) == (location, message)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", str(path), "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {location}: {message}\n")


NOT_CLOSED = "covering word must be a closed loop at the basepoint: "
BREAK_AT_1 = NOT_CLOSED + "steps do not compose as a path at vertex 1"
OPEN = NOT_CLOSED + "word is not a closed path at the basepoint"

TOKEN_ERRORS = [
    ("a b^-2", "cannot parse word token 'b^-2'"),
    ("a 3e", "cannot parse word token '3e'"),
    ("a b^1", "cannot parse word token 'b^1'"),
    ("a zz", "unknown edge or alias 'zz' in word"),
    ("a e01x", "unknown edge or alias 'e01x' in word"),
    ("a E1", "unknown edge or alias 'E1' in word"),
    ("a e9", "word references unknown edge 9"),
    ("a e9^-1", "word references unknown edge 9"),
]


@pytest.mark.parametrize("text,message", TOKEN_ERRORS)
def test_relator_token_errors(text, message, tmp_path, capsys):
    doc = path_document(relators=["a b", text])
    assert_rejected(doc, "/complex/relators/1", message, tmp_path, capsys)


@pytest.mark.parametrize("text,message", TOKEN_ERRORS)
def test_covering_word_token_errors(text, message, tmp_path, capsys):
    doc = path_document(words=["a b", text])
    assert_rejected(doc, "/covering/words/1", message, tmp_path, capsys)


@pytest.mark.parametrize(
    "text,message",
    [
        ("a a", "steps do not compose as a path at vertex 1"),
        ("a b b", "steps do not compose as a path at vertex 0"),
        ("b^-1 a", "steps do not compose as a path at vertex 1"),
        ("a", "relator 1 is not a closed path (0 != 1)"),
        ("a b a", "relator 1 is not a closed path (0 != 1)"),
    ],
)
def test_relator_path_errors_are_reported_at_the_complex(text, message, tmp_path, capsys):
    doc = path_document(relators=["a b", text])
    assert_rejected(doc, "/complex", message, tmp_path, capsys)


@pytest.mark.parametrize(
    "text,message",
    [
        ("a a", "steps do not compose as a path at vertex 1"),
        ("a b b", "steps do not compose as a path at vertex 0"),
        ("b^-1 a", "steps do not compose as a path at vertex 1"),
        ("b a a", "steps do not compose as a path at vertex 1"),
        ("a", "word is not a closed path at the basepoint"),
        ("b a", "word is not a closed path at the basepoint"),
        ("a b a", "word is not a closed path at the basepoint"),
    ],
)
def test_covering_word_path_errors(text, message, tmp_path, capsys):
    doc = path_document(words=["a b", text])
    assert_rejected(doc, "/covering/words/1", NOT_CLOSED + message, tmp_path, capsys)


def test_a_bad_token_after_a_path_break_is_reported(tmp_path, capsys):
    doc = path_document(words=["a a zz"])
    assert_rejected(doc, "/covering/words/0", "unknown edge or alias 'zz' in word", tmp_path, capsys)
    doc = path_document(relators=["a a b^-2"])
    assert_rejected(doc, "/complex/relators/0", "cannot parse word token 'b^-2'", tmp_path, capsys)


def test_errors_are_reported_in_word_order(tmp_path, capsys):
    # a path break in an earlier covering word beats a bad token in a later one
    doc = path_document(words=["a a", "zz"])
    assert_rejected(doc, "/covering/words/0", BREAK_AT_1, tmp_path, capsys)
    # every relator's tokens are read before any relator's path is checked
    doc = path_document(relators=["a a", "zz"])
    assert_rejected(doc, "/complex/relators/1", "unknown edge or alias 'zz' in word", tmp_path, capsys)


def test_an_alias_named_like_an_edge_beats_the_edge(tmp_path, capsys):
    inst = parse_instance_data(path_document(relators=["e3 e1", "e2 b"], words=["e3 e1", "a b e3 b"]))
    assert inst.complex.relators == (((2, 1), (1, 1)), ((2, 1), (1, 1)))
    same = parse_instance_data(path_document(relators=["e2 b", "e2 b"], words=["e2 b", "a b e2 e1"]))
    assert inst.covering_spec.words == same.covering_spec.words
    # edge 3 (1 -> 0) would break the path after b; the alias (edge 2) only leaves it open
    doc = path_document(words=["b e3"])
    assert_rejected(doc, "/covering/words/0", OPEN, tmp_path, capsys)


NOT_A_LABEL = ["(10)", "(0 1)", "(01)(01)", "()", "(0,1)", "(0)", "(01", "01", "1", " (01)", "(01) ", "E", ""]


@pytest.mark.parametrize("ref", NOT_A_LABEL)
def test_voltage_element_that_is_not_the_exact_label(ref, tmp_path, capsys):
    doc = wedge_document(voltage=(ref, "(012)"))
    assert_rejected(doc, "/voltage/0/element", f"no element labelled {ref!r}", tmp_path, capsys)


@pytest.mark.parametrize("ref", NOT_A_LABEL)
def test_covering_subgroup_element_that_is_not_the_exact_label(ref, tmp_path, capsys):
    doc = wedge_document(covering={"kind": "quotient", "subgroup": ["e", ref]})
    assert_rejected(doc, "/covering/subgroup/1", f"no element labelled {ref!r}", tmp_path, capsys)


@pytest.mark.parametrize("ref", NOT_A_LABEL)
def test_covering_image_that_is_not_the_exact_label(ref, tmp_path, capsys):
    doc = wedge_document(covering={"kind": "quotient", "group": "S3", "images": ["(01)", ref]})
    assert_rejected(doc, "/covering/images/1", f"no element labelled {ref!r}", tmp_path, capsys)


DEGREE_11 = {"degree": 11, "generators": [[1, 0, *range(2, 11)], [0, 1, 3, 4, 2, *range(5, 11)]]}


@pytest.mark.parametrize("ref", ["(01)", "(0 1)", "(1,0)", "(0,1)(0,1)", "(0,,1)", "(0,1,)", "(0, 1)"])
def test_labels_above_degree_10_use_commas(ref, tmp_path, capsys):
    doc = wedge_document(group=DEGREE_11, voltage=(ref, "e"))
    assert_rejected(doc, "/voltage/0/element", f"no element labelled {ref!r}", tmp_path, capsys)


def test_exact_labels_resolve_at_every_degree():
    inst = parse_instance_data(wedge_document(group=DEGREE_11, voltage=("(0,1)(2,4,3)", "(2,3,4)")))
    g = inst.group
    assert g.perms[inst.voltage.on_edge(0)] == (1, 0, 4, 2, 3, *range(5, 11))
    assert g.perms[inst.voltage.on_edge(1)] == (0, 1, 3, 4, 2, *range(5, 11))
    inst = parse_instance_data(wedge_document(voltage=("(01)", "(021)")))
    assert inst.group.perms[inst.voltage.on_edge(1)] == (2, 0, 1)


@pytest.mark.parametrize("ref", ["4", "e", "(01)", " 1", "01"])
def test_caller_labels_resolve_only_to_themselves(ref, tmp_path, capsys):
    doc = wedge_document(group="Z4", voltage=(ref, "2"))
    assert_rejected(doc, "/voltage/0/element", f"no element labelled {ref!r}", tmp_path, capsys)
    inst = parse_instance_data(wedge_document(group="Z4", voltage=("3", "2")))
    assert (inst.voltage.on_edge(0), inst.voltage.on_edge(1)) == (3, 2)


def test_bad_label_document_of_the_ci_error_step(capsys):
    path = os.path.join(os.path.dirname(__file__), "documents", "wedge_s3_bad_label.json")
    code = main(["verify", path, "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: /voltage/0/element: no element labelled '(10)'\n")


def test_more_vertices_than_the_edges_can_connect(tmp_path, capsys):
    doc = wedge_document()
    doc["complex"]["vertices"] = 50
    message = "50 vertices cannot be connected by 2 edges (at most 3)"
    assert_rejected(doc, "/complex/vertices", message, tmp_path, capsys)
    doc["complex"]["vertices"] = 3
    doc["complex"]["edges"] = [{"id": 0, "tail": 0, "head": 1}, {"id": 1, "tail": 1, "head": 2}]
    assert parse_instance_data(doc).complex.vertex_count == 3


def test_oversized_document_of_the_ci_error_step(capsys):
    path = os.path.join(os.path.dirname(__file__), "documents", "wedge_s3_50_vertices.json")
    code = main(["verify", path, "--seed", "1"])
    captured = capsys.readouterr()
    expected = "error: /complex/vertices: 50 vertices cannot be connected by 2 edges (at most 3)\n"
    assert (code, captured.out, captured.err) == (2, "", expected)


def test_a_group_without_generators_has_degree_one(tmp_path, capsys):
    """Only a generator's length bounds the degree, so with none the
    reader refuses any degree but 1 before closing the group: nothing of
    the degree's size is made."""
    doc = wedge_document(group={"degree": 10**6, "generators": []}, voltage=(0, 0))
    message = "a group with no generators is trivial: 'degree' must be 1, not 1000000"
    tracemalloc.start()
    try:
        assert_rejected(doc, "/group/degree", message, tmp_path, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # an identity of degree 10^6 alone takes 8 MB
    doc["group"]["degree"] = 0
    message = "a group with no generators is trivial: 'degree' must be 1, not 0"
    assert_rejected(doc, "/group/degree", message, tmp_path, capsys)
    doc["group"]["degree"] = 1
    assert parse_instance_data(doc).group.order == 1


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_degree_document_of_the_ci_error_step():
    """The degree-10^9 document, read by the CLI in a child process under a
    1 GiB address-space limit, so that a reader which closed the group
    first fails with a MemoryError instead of taking the machine's memory."""
    path = os.path.join(os.path.dirname(__file__), "documents", "trivial_group_degree_1e9.json")
    src = os.path.dirname(os.path.dirname(flatconn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-m", "flatconn.cli", "holonomy", path],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_address_space,
    )
    expected = "error: /group/degree: a group with no generators is trivial: 'degree' must be 1, not 1000000000\n"
    assert (out.returncode, out.stdout, out.stderr) == (2, "", expected)


def test_closure_cap_document_of_the_ci_error_step():
    """S8 by (01) and the 8-cycle over one loop: the closure stops at its
    cap of 10,000 elements inside the loop that composes and carries
    inverses.  The CLI, in a child process under a 1 GiB address-space
    limit, exits 2 with the pinned line."""
    path = os.path.join(os.path.dirname(__file__), "documents", "s8_closure_cap.json")
    src = os.path.dirname(os.path.dirname(flatconn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-m", "flatconn.cli", "verify", path, "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_address_space,
    )
    expected = "error: /group: closure exceeded cap of 10000 elements\n"
    assert (out.returncode, out.stdout, out.stderr) == (2, "", expected)


def test_a_disconnected_complex_names_ten_unreachable_vertices_and_a_count(tmp_path, capsys):
    doc = wedge_document()
    doc["complex"] = {"vertices": 1000, "edges": [{"id": k, "tail": 0, "head": 0} for k in range(1000)]}
    message = "graph is disconnected; unreachable vertices [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 989 more"
    assert_rejected(doc, "/complex", message, tmp_path, capsys)


@pytest.mark.parametrize("aliases", [[], 0, False, "", [1], 1, "a", True])
def test_aliases_that_are_not_an_object_are_rejected(aliases, tmp_path, capsys):
    doc = wedge_document()
    doc["complex"]["aliases"] = aliases
    assert_rejected(doc, "/complex/aliases", "'aliases' must be an object of name: edge id", tmp_path, capsys)


@pytest.mark.parametrize("missing", [True, False])
def test_missing_or_null_aliases_mean_none(missing):
    doc = wedge_document()
    doc["voltage"] = [{"edge": 0, "element": "(01)"}, {"edge": 1, "element": "(012)"}]
    if missing:
        del doc["complex"]["aliases"]
    else:
        doc["complex"]["aliases"] = None
    assert parse_instance_data(doc).voltage.assignment == {0: 1, 1: 2}
