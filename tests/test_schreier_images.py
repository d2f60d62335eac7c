"""Schreier images read down the coset transversal, against spelled-out words.

h(H), the kernel side of the triviality criterion and the kernel-inside-
subgroup gate are computed from one walk down the breadth-first transversal
that carries either hol(rep s) or the state rep(s) reaches in another
automaton.  Here they are compared with the word path in ``helpers``, which
spells every Schreier generator out, evaluates it and traces it letter by
letter: the same h(H), and the same first generator outside the other
subgroup (or none).  The witness texts are pinned as the word path wrote
them, and the verify path is shown to spell out no Schreier word list.
"""

import ast
import json
import os
import random

import pytest

from flatconn import subgroups
from flatconn.cli import main
from flatconn.connections import Voltage
from flatconn.corpus import base_catalog, generate_corpus, random_flat_voltage
from flatconn.errors import EnumerationCapError, InputError
from flatconn.groups import catalog_group, subgroup_closure
from flatconn.io import parse_instance
from flatconn.subgroups import (
    SubgroupSpec,
    _first_step_outside,
    _rep_word,
    _schreier_word,
    todd_coxeter,
)
from flatconn.theorems import (
    FAILS,
    Instance,
    is_induced_trivial,
    standard_reports,
    verify_cor_2_2,
    verify_theorem_1_1,
)
from flatconn.words import invert_word
from helpers import breadth_first_reps, word_path_image, word_path_outside
from test_low_index_sweep import CASES, based_subgroups

HERE = os.path.dirname(__file__)
INSTANCES = os.path.join(HERE, os.pardir, "instances")
PARITY = os.path.join(INSTANCES, "wedge_s3_parity.json")
A, B, B_ = (0, 1), (1, 1), (1, -1)


def documents():
    names = sorted(n for n in os.listdir(INSTANCES) if n.endswith(".json"))
    return [os.path.join(INSTANCES, n) for n in names]


def _outside(a, b):
    step = _first_step_outside(a, b)
    return None if step is None else _schreier_word(a, *step)


def _compare(inst, label):
    """h(H), the kernel side and the gate against the word path; when the
    subgroup automaton is partial only the gate applies.  Returns whether it
    is complete, or None past the enumeration cap."""
    try:
        a = inst.subgroup_aut
    except EnumerationCapError:
        return None
    kernel = inst.kernel_aut
    assert all(a.parent[t] < t for t in range(1, a.state_count)), label
    assert [_rep_word(a, t) for t in range(a.state_count)] == breadth_first_reps(a), label
    if a.complete:
        assert inst.restricted_image.members == word_path_image(a, inst.morphism).members, label
        assert _outside(a, kernel) == word_path_outside(a, kernel), label
    assert _outside(kernel, a) == word_path_outside(kernel, a), label
    return a.complete


def _over(probe, a):
    """The probe's base instance with subgroup automaton a."""
    inst = Instance(probe.voltage)
    inst.__dict__.update(subgroup_aut=a, morphism=probe.morphism, kernel_aut=probe.kernel_aut)
    return inst


# ---------------------------------------------------------------------------
# pinned on the word path


@pytest.fixture()
def wedge_s3():
    inst = parse_instance(os.path.join(INSTANCES, "wedge_s3_a3.json"))
    return inst.voltage


@pytest.mark.parametrize(
    "words,detail",
    [
        (((B, B), (A,), (B, A, B_)), "kernel generator ((1, 1), (1, 1), (1, 1)) escapes the subgroup"),
        (((A,),), "kernel generator ((1, 1), (0, 1), (1, 1), (0, -1)) escapes the subgroup"),
    ],
    ids=["parity", "partial-core"],
)
def test_gate_detail_names_the_first_escaping_kernel_generator(wedge_s3, words, detail):
    # a -> (01), b -> (012): the b-parity subgroup (complete) and the partial
    # Stallings core of <a> (infinite index)
    inst = Instance(wedge_s3, SubgroupSpec(kind="words", words=words))
    assert inst.subgroup_aut.complete == (len(words) == 3)
    gate = {h.name: h for h in verify_cor_2_2(inst).hypotheses}["kernel-inside-subgroup"]
    assert not gate.passed
    assert gate.detail == detail


def test_tampered_induced_image_fails_with_the_word_path_witnesses():
    inst = parse_instance(os.path.join(INSTANCES, "wedge_s3_a3.json"))
    inst.__dict__["induced_image"] = subgroup_closure(inst.group, ())
    report = is_induced_trivial(inst)
    assert report.verdict == FAILS
    assert report.witnesses == (
        ("induced-image-trivial", "True"),
        ("subgroup-inside-kernel", "False"),
        ("kernel-membership-failure", "((1, 1),)"),
        ("product-form", "2 components, expected 6"),
    )
    report = verify_theorem_1_1(inst)
    assert report.verdict == FAILS
    assert report.witnesses == (("h(H)", "{e, (012), (021)}"), ("Im(h-induced)", "{e}"))


def test_cli_verify_on_an_empty_words_covering_exits_2(tmp_path, capsys):
    with open(os.path.join(INSTANCES, "wedge_s3_a3.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["covering"] = {"kind": "words", "words": []}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", str(path), "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: Schreier generators require a complete automaton\n"


# ---------------------------------------------------------------------------
# against the word path


@pytest.mark.parametrize("seed", range(8))
def test_corpus(seed):
    outcomes = [_compare(item.instance, item.name) for item in generate_corpus(seed, 250)]
    assert outcomes.count(True) > 200 and outcomes.count(False) > 5


def test_documents():
    outcomes = []
    for path in documents():
        try:
            inst = parse_instance(path)
        except InputError:  # the non-flat document
            continue
        outcomes.append(_compare(inst, path))
    assert outcomes == [True, None, True, True, True, True, True]


def _probes(base, voltages):
    return [Instance(v) for v in voltages]


@pytest.mark.parametrize("case", sorted(CASES))
def test_low_index_sweep_automata(case):
    base, group_name, values, max_index, _, _ = CASES[case]
    voltages = [Voltage(base, catalog_group(group_name), dict(enumerate(values)))]
    voltages += [random_flat_voltage(random.Random(k), base, catalog_group("S3")) for k in range(2)]
    probes = _probes(base, voltages)
    rank = probes[0].presentation.rank
    for n in range(1, max_index + 1):
        for a in based_subgroups(rank, n, abelian=bool(base.relators)):
            for probe in probes:
                assert _compare(_over(probe, a), (case, n))


@pytest.mark.parametrize("name", ["torus", "klein"])
def test_todd_coxeter_up_to_index_256(name):
    base = base_catalog()[name]
    voltages = [random_flat_voltage(random.Random(k), base, catalog_group(g)) for k, g in enumerate(("Z4", "S3", "D4"))]
    probes = _probes(base, voltages)
    presentation = probes[0].presentation
    largest = 0
    for p in (1, 2, 3, 4, 8, 16):
        for q in (1, 2, 5, 8, 16):
            for words in ([(A,) * p, (B,) * q], [(A,) * p + (B,), (B,) * q]):
                try:
                    a = todd_coxeter(presentation, words)
                except EnumerationCapError:
                    continue
                largest = max(largest, a.state_count)
                for probe in probes:
                    assert _compare(_over(probe, a), (name, words))
    assert largest == 256


# ---------------------------------------------------------------------------
# no Schreier word list on the verify path


@pytest.mark.parametrize("path", [os.path.join(INSTANCES, "wedge_s3_kernel.json"), PARITY], ids=["kernel", "parity"])
def test_standard_reports_spell_out_no_schreier_word_list(monkeypatch, path):
    """A Schreier word is spelled out only as a printed witness: each one
    reads back the two representatives rep(s) and rep(s g) it is made of,
    and no other representative is read back."""
    reps = []
    rep_word = subgroups._rep_word

    def counted(a, t):
        reps.append(rep_word(a, t))
        return reps[-1]

    monkeypatch.setattr(subgroups, "_rep_word", counted)
    reports = standard_reports(parse_instance(path), seed=5)
    assert [r.verdict for r in reports].count(FAILS) == 0
    printed = [value for r in reports for name, value in r.witnesses if name == "kernel-membership-failure"]
    printed += [
        h.detail.removeprefix("kernel generator ").removesuffix(" escapes the subgroup")
        for r in reports
        for h in r.hypotheses
        if h.name == "kernel-inside-subgroup" and not h.passed
    ]
    assert len(printed) == (1 if path == PARITY else 0)  # the parity document misses the cor 2.2 gate
    assert len(reps) == 2 * len(printed)
    for k, text in enumerate(printed):
        word, rep_s, rep_t = ast.literal_eval(text), reps[2 * k], reps[2 * k + 1]
        assert word == rep_s + word[len(rep_s) : len(rep_s) + 1] + invert_word(rep_t)
