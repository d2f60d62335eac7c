"""Instance documents: JSON parsing, validation and serialization.

A document is one JSON object with sections "group", "complex", "voltage"
and optionally "covering".  Word strings use space-separated tokens like
"e3" / "e3^-1", or aliases declared under "complex.aliases".  Validation
failures raise :class:`InputError` with a JSON-pointer style location.
"""

from __future__ import annotations

import json
import re
from typing import Any, Mapping, Optional

from .complexes import (
    _NO_LETTER,
    BaseComplex,
    Edge,
    EdgeWord,
    SpanningTreeData,
    _closed_loop_word,
    pi1_presentation,
    spanning_tree,
    validate_complex,
)
from .connections import Voltage, check_flatness
from .errors import ComplexError, FlatConnError, InputError
from .groups import GroupTable, _is_int, catalog_group, group_from_permutations
from .subgroups import SubgroupSpec, check_quotient_images
from .theorems import Instance
from .words import Word

_TOKEN_RE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*)(?P<inv>\^-1)?$")


class _WordReader(dict):
    """A document's alias table (name -> edge id) and the reader of its word
    strings, relators and covering words alike.  A token is matched only on
    its first sight and kept, for as long as the parse that built the
    reader, as (from, to, step, letter, inverse): its signed step (edge id,
    sign), the step's endpoints and, once a spanning tree is given, the
    step's generator letter and that letter's inverse (None on tree edges)."""

    __slots__ = ("_edges", "_tokens", "_letters")

    def __init__(self, aliases: Mapping[str, int], edges: Mapping[int, Edge]):
        super().__init__(aliases)
        self._edges = edges
        self._tokens: dict = {}
        self._letters: dict = {}

    def _entry(self, tok: str, location: str) -> tuple:
        """Match a token seen for the first time, resolve it and keep it."""
        m = _TOKEN_RE.match(tok)
        if not m:
            raise InputError(f"cannot parse word token {tok!r}", location)
        name = m.group("name")
        sign = -1 if m.group("inv") else 1
        if name in self:
            eid = self[name]
        elif name.startswith("e") and name[1:].isdigit():
            eid = int(name[1:])
        else:
            raise InputError(f"unknown edge or alias {name!r} in word", location)
        e = self._edges.get(eid)
        if e is None:
            raise InputError(f"word references unknown edge {eid}", location)
        step = (eid, sign)
        ends = (e.tail, e.head) if sign > 0 else (e.head, e.tail)
        entry = self._tokens[tok] = (*ends, step, *self._letters.get(step, _NO_LETTER))
        return entry

    def _entries(self, text: str, location: str) -> list:
        """The entry of every token of a word string, all checked in order."""
        known = self._tokens.get
        return [known(tok) or self._entry(tok, location) for tok in text.split()]

    def edge_word(self, text: str, location: str) -> EdgeWord:
        """Parse "e3 a^-1 b" into an edge word using aliases and eNN tokens."""
        return tuple(entry[2] for entry in self._entries(text, location))

    def loop_word(self, text: str, location: str, tree: SpanningTreeData) -> Word:
        """A word string's loop at the basepoint as a reduced generator word.
        Its tokens are all checked (InputError) before its path
        (ComplexError)."""
        if self._letters is not tree.letters:  # tokens kept before the tree was known get its letters
            letters = self._letters = tree.letters
            self._tokens = {tok: (*e[:3], *letters.get(e[2], _NO_LETTER)) for tok, e in self._tokens.items()}
        return _closed_loop_word(self._entries(text, location), tree.order[0])


def word_to_string(w: EdgeWord) -> str:
    return " ".join(f"e{eid}" + ("" if sign > 0 else "^-1") for eid, sign in w)


def resolve_element(g: GroupTable, ref: Any, location: str) -> int:
    """An element reference is an index or a unique label."""
    if isinstance(ref, bool):
        raise InputError("element reference must be an index or label", location)
    if isinstance(ref, int):
        if not 0 <= ref < g.order:
            raise InputError(f"element index {ref} out of range 0..{g.order - 1}", location)
        return ref
    if isinstance(ref, str):
        a = g.labelled(ref)
        if a is None:
            raise InputError(f"no element labelled {ref!r}", location)
        return a
    raise InputError(f"element reference must be an index or label, got {ref!r}", location)


def _require_list(value: Any, message: str, location: str) -> None:
    if not isinstance(value, list):
        raise InputError(message, location)


def parse_group(data: Any, location: str = "/group") -> GroupTable:
    if isinstance(data, str):
        try:
            return catalog_group(data)
        except ValueError as exc:
            raise InputError(str(exc), location) from None
    if not isinstance(data, dict):
        raise InputError("group must be a catalog name or an object", location)
    if "degree" not in data or "generators" not in data:
        raise InputError("permutation group needs 'degree' and 'generators'", location)
    degree, generators = data["degree"], data["generators"]
    if not _is_int(degree):
        raise InputError("'degree' must be an integer", f"{location}/degree")
    _require_list(generators, "'generators' must be a list of permutations", f"{location}/generators")
    for k, p in enumerate(generators):
        _require_list(p, "a generator must be a list of images", f"{location}/generators/{k}")
        for i, x in enumerate(p):
            if not _is_int(x):
                raise InputError("a generator image must be an integer", f"{location}/generators/{k}/{i}")
    labels = data.get("labels")
    if labels is not None:
        _require_list(labels, "'labels' must be a list of strings", f"{location}/labels")
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise InputError("'labels' must be a list of strings", f"{location}/labels/{i}")
    try:
        return group_from_permutations(
            degree,
            [tuple(p) for p in generators],
            labels=labels,
            name=data.get("name"),
        )
    except (TypeError, ValueError, FlatConnError) as exc:
        raise InputError(str(exc), location) from None


def parse_complex(data: Any, location: str = "/complex") -> tuple[BaseComplex, _WordReader]:
    """Returns (validated complex, alias table); the alias table also reads
    the document's word strings (see :class:`_WordReader`)."""
    if not isinstance(data, dict):
        raise InputError("complex must be an object", location)
    if "vertices" not in data:
        raise InputError("complex needs a 'vertices' count", location)
    vertices = data["vertices"]
    if not _is_int(vertices):
        raise InputError("'vertices' must be an integer", f"{location}/vertices")
    if vertices < 1:
        raise InputError("'vertices' must be positive", f"{location}/vertices")
    edges = []
    known = set()
    raw_edges = data.get("edges", [])
    _require_list(raw_edges, "'edges' must be a list", f"{location}/edges")
    if vertices > len(raw_edges) + 1:
        raise InputError(
            f"{vertices} vertices cannot be connected by {len(raw_edges)} edges (at most {len(raw_edges) + 1})",
            f"{location}/vertices",
        )
    for k, rec in enumerate(raw_edges):
        loc = f"{location}/edges/{k}"
        if not isinstance(rec, dict):
            raise InputError("edge must be an object with id/tail/head", loc)
        if not all(_is_int(rec.get(key)) for key in ("id", "tail", "head")):
            raise InputError("edge needs integer 'id', 'tail', 'head'", loc)
        if rec["id"] in known:
            raise InputError(f"duplicate edge id {rec['id']}", f"{loc}/id")
        for key in ("tail", "head"):
            if not 0 <= rec[key] < vertices:
                raise InputError(f"{key} vertex {rec[key]} out of range 0..{vertices - 1}", f"{loc}/{key}")
        known.add(rec["id"])
        edges.append(Edge(rec["id"], rec["tail"], rec["head"]))
    aliases = _WordReader({}, {e.id: e for e in edges})
    raw_aliases = data.get("aliases")
    if not isinstance(raw_aliases, (dict, type(None))):
        raise InputError("'aliases' must be an object of name: edge id", f"{location}/aliases")
    for name, eid in (raw_aliases or {}).items():
        if not _is_int(eid):
            raise InputError(f"alias {name!r} must name an integer edge id", f"{location}/aliases/{name}")
        if eid not in known:
            raise InputError(f"alias {name!r} refers to unknown edge {eid}", f"{location}/aliases/{name}")
        aliases[str(name)] = eid
    relators = []
    raw_relators = data.get("relators", [])
    _require_list(raw_relators, "'relators' must be a list of word strings", f"{location}/relators")
    for k, text in enumerate(raw_relators):
        loc = f"{location}/relators/{k}"
        if not isinstance(text, str):
            raise InputError("relator must be a word string", loc)
        relators.append(aliases.edge_word(text, loc))
    basepoint = data.get("basepoint", 0)
    if not _is_int(basepoint):
        raise InputError("'basepoint' must be an integer vertex", f"{location}/basepoint")
    if not 0 <= basepoint < vertices:
        raise InputError(f"basepoint {basepoint} out of range 0..{vertices - 1}", f"{location}/basepoint")
    try:
        c = BaseComplex(vertices, edges, basepoint=basepoint, relators=relators)
        validate_complex(c)
    except ComplexError as exc:
        raise InputError(str(exc), location) from None
    return c, aliases


def parse_voltage(
    data: Any, c: BaseComplex, g: GroupTable, aliases: Mapping[str, int], location: str = "/voltage"
) -> Voltage:
    if not isinstance(data, list):
        raise InputError("voltage must be a list of {edge, element} entries", location)
    known = {e.id for e in c.edges}
    assignment = {}
    for k, rec in enumerate(data):
        loc = f"{location}/{k}"
        if not isinstance(rec, dict) or "edge" not in rec or "element" not in rec:
            raise InputError("voltage entry needs 'edge' and 'element'", loc)
        ref = rec["edge"]
        if isinstance(ref, str):
            if ref not in aliases:
                raise InputError(f"unknown edge alias {ref!r}", f"{loc}/edge")
            eid = aliases[ref]
        elif _is_int(ref):
            eid = ref
        else:
            raise InputError("voltage edge must be an edge id or alias", f"{loc}/edge")
        if eid not in known:
            raise InputError(f"voltage on unknown edge {eid}", f"{loc}/edge")
        if eid in assignment:
            raise InputError(f"duplicate voltage for edge {eid}", f"{loc}/edge")
        assignment[eid] = resolve_element(g, rec["element"], f"{loc}/element")
    try:
        return Voltage(c, g, assignment)
    except ValueError as exc:
        raise InputError(str(exc), location) from None


def parse_covering(
    data: Any,
    c: BaseComplex,
    g: GroupTable,
    aliases: _WordReader,
    location: str = "/covering",
) -> SubgroupSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("covering must be an object with a 'kind'", location)
    kind = data["kind"]
    if kind == "words":
        tree = spanning_tree(c)
        words = []
        raw_words = data.get("words", [])
        _require_list(raw_words, "'words' must be a list of word strings", f"{location}/words")
        for k, text in enumerate(raw_words):
            loc = f"{location}/words/{k}"
            if not isinstance(text, str):
                raise InputError("covering word must be a word string", loc)
            try:
                words.append(aliases.loop_word(text, loc, tree))
            except ComplexError as exc:
                raise InputError(f"covering word must be a closed loop at the basepoint: {exc}", loc) from None
        return SubgroupSpec(kind="words", words=tuple(words))
    if kind == "quotient":
        target = g
        images: Optional[tuple] = None
        if "group" in data and data["group"] is not None:
            target = parse_group(data["group"], f"{location}/group")
        if "images" in data and data["images"] is not None:
            refs = data["images"]
            if not isinstance(refs, list):
                raise InputError("'images' must be a list of element references", f"{location}/images")
            images = tuple(
                resolve_element(target, ref, f"{location}/images/{k}") for k, ref in enumerate(refs)
            )
            try:
                check_quotient_images(images, target, pi1_presentation(c, spanning_tree(c)))
            except ValueError as exc:
                raise InputError(str(exc), f"{location}/images") from None
        elif "group" in data and data["group"] is not None:
            raise InputError(
                "a covering with an explicit group needs explicit images", f"{location}/images"
            )
        members = data.get("subgroup", [])
        if not isinstance(members, list):
            raise InputError("'subgroup' must be a list of element references", f"{location}/subgroup")
        sub = tuple(
            resolve_element(target, ref, f"{location}/subgroup/{k}") for k, ref in enumerate(members)
        )
        spec_group = target if images is not None else None
        return SubgroupSpec(kind="quotient", group=spec_group, images=images, subgroup=sub or (0,))
    raise InputError(f"unknown covering kind {kind!r}", f"{location}/kind")


def parse_instance_data(data: Any, name: str = "document") -> Instance:
    """Validate a loaded document into an Instance (flatness included)."""
    if not isinstance(data, dict):
        raise InputError("document must be a JSON object", "/")
    for section in ("group", "complex", "voltage"):
        if section not in data:
            raise InputError(f"missing section '{section}'", f"/{section}")
    g = parse_group(data["group"])
    c, aliases = parse_complex(data["complex"])
    v = parse_voltage(data["voltage"], c, g, aliases)
    violations = check_flatness(v)
    if violations:
        details = "; ".join(str(x) for x in violations)
        raise InputError(f"voltage is not flat: {details}", "/voltage")
    spec = None
    cap = None
    if "covering" in data and data["covering"] is not None:
        spec = parse_covering(data["covering"], c, g, aliases)
        raw_cap = data["covering"].get("cap")
        if raw_cap is not None:
            if not _is_int(raw_cap):
                raise InputError("'cap' must be an integer", "/covering/cap")
            cap = raw_cap
            if cap < 1:
                raise InputError("'cap' must be positive", "/covering/cap")
    return Instance(c, g, v, spec, name=name, tc_cap=cap)


def parse_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read document: {exc}", "/") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"document is not UTF-8 text: {exc}", "/") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}", "/") from None
    except RecursionError:
        raise InputError("document nests too deeply to read", "/") from None
    return parse_instance_data(data, name=path)


def complex_to_json(c: BaseComplex) -> dict:
    """Serialize a complex into the document's 'complex' section shape."""
    return {
        "vertices": c.vertex_count,
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in c.edges],
        "basepoint": c.basepoint,
        "relators": [word_to_string(w) for w in c.relators],
    }
