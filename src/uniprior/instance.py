"""Problem instances: parsing, validation, and the derived message graph.

An instance describes n receivers, each knowing its own message x_i a
priori.  An arc (i, j) means receiver j wants message x_i.  Messages
are q_i bits long.  Each of the S senders owns a subset of the
messages; together the senders own all of them.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import islice


class ParseError(ValueError):
    """Raised when an instance or code document is structurally bad."""


class _Frozen:
    """Refuses assignment to its attributes: ``__init__`` and the memos
    write through ``object.__setattr__``.  ``_fields`` names what the
    constructor takes, in order, which is also what copies and pickles
    carry and what the JSON writer prints.  The first ``_value_fields``
    of them (all when None) are the value's identity: equality, hash and
    repr see those alone."""

    __slots__ = ()
    _value_fields: int | None = None

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields[:self._value_fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = self._fields[:self._value_fields]
        return (f"{type(self).__name__}("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in fields) + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Instance(_Frozen):
    """n, the message lengths q, the arcs (i, j) and the senders' message
    tuples.  ``notes`` records ingestion (deduplication etc.) and is not
    part of the instance's identity: equality, hash and repr leave it out.
    The instance's work graph and message graph are kept on it on first
    use (``multi._graphs``)."""

    __slots__ = ("n", "q", "arcs", "senders", "notes", "_graphs")
    _fields = ("n", "q", "arcs", "senders", "notes")
    _value_fields = 4

    def __init__(self, n: int, q: tuple[int, ...], arcs: tuple[tuple[int, int], ...],
                 senders: tuple[tuple[int, ...], ...], notes: tuple[str, ...] = ()):
        for name, value in zip(self.__slots__, (n, q, arcs, senders, notes, None)):
            object.__setattr__(self, name, value)


class MessageGraph(_Frozen):
    """Undirected graph with an edge {i, j} when some sender owns both,
    kept as the senders and an index from each message to its (1-based)
    senders, ascending, built in O(sum |s|).  Equality, hashing and repr
    see n and the senders, not the edges they give.  The edges and the
    components are derived on first query; the memo that
    ``classify.message_class`` keeps here starts empty.
    """

    __slots__ = ("n", "senders", "_owners", "_edges", "_comps", "_comp_of", "_scc_classes")
    _fields = ("n", "senders")

    def __init__(self, n: int, senders: tuple[tuple[int, ...], ...]):
        owners: dict[int, list[int]] = {}
        for k, s in enumerate(senders, start=1):
            for m in s:
                owners.setdefault(m, []).append(k)
        for name, value in zip(self.__slots__, (n, senders, owners, None, None, None, {})):
            object.__setattr__(self, name, value)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every (a, b), a < b, that some sender owns both of."""
        if self._edges is None:
            object.__setattr__(self, "_edges", frozenset(
                (a, b) for s in self.senders for a in s for b in s if a < b))
        return self._edges

    def neighbors(self, v: int) -> set[int]:
        return set().union(*(self.senders[k - 1] for k in self._owners.get(v, ()))) - {v}

    def neighbors_of_set(self, vs: frozenset[int] | set[int]) -> set[int]:
        """Vertices outside vs adjacent to some member of vs."""
        return set().union(*map(self.neighbors, vs)) - set(vs)

    def _members_within(self, vs) -> dict[int, list[int]]:
        """Each sender that owns a member of vs -> its members in vs."""
        inside: dict[int, list[int]] = {}
        for v in vs:
            for k in self._owners.get(v, ()):
                inside.setdefault(k, []).append(v)
        return inside

    def components_within(self, vs: frozenset[int] | set[int] | range) -> list[frozenset[int]]:
        """Connected components of the subgraph induced on vs (edges
        inside vs only), ordered by smallest member; each sender joins
        all its members in vs at once, so it is expanded once."""
        inside = self._members_within(vs)
        seen: set[int] = set()
        comps = []
        for start in sorted(vs):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                for k in self._owners.get(stack.pop(), ()):
                    for w in inside.pop(k, ()):
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def connected_within(self, vs: frozenset[int] | set[int]) -> bool:
        """Is the subgraph induced on vs connected (edges inside vs only)?"""
        return len(self.components_within(vs)) <= 1

    def components(self) -> list[frozenset[int]]:
        """Connected components over vertices 1..n, ordered by smallest member."""
        if self._comps is None:
            comps = tuple(self.components_within(range(1, self.n + 1)))
            object.__setattr__(self, "_comps", comps)
            object.__setattr__(self, "_comp_of",
                               {v: k for k, comp in enumerate(comps) for v in comp})
        return list(self._comps)

    def component_of(self, v: int) -> int:
        """Index in components() of the component holding v."""
        if self._comp_of is None:
            self.components()
        return self._comp_of[v]


# ok: no violations; violations and notes: messages, in the order found
ValidationReport = namedtuple("ValidationReport", "ok violations notes", defaults=((),))


_REQUIRED_FIELDS = ("n", "q", "arcs", "senders")

# validate() names at most this many unowned messages, then counts the rest
_UNOWNED_LISTED = 20


def _require_int(value, what: str) -> int:
    # bool is an int subclass; JSON true/false must not pass as numbers
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def parse_json(text: str):
    """json.loads, with ParseError for bad syntax, nesting past the
    recursion limit and an integer past Python's digit limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError("JSON nested too deeply") from e
    except ValueError as e:
        # "Exceeds the limit (4300 digits) for integer string conversion: ..."
        msg = str(e).split(";")[0]
        raise ParseError(f"integer literal too long: {msg[:1].lower()}{msg[1:]}") from e


def parse_instance(text: str) -> Instance:
    """Decode an instance document.  Syntax only; semantics live in validate().

    Duplicate arcs, duplicate senders, and repeated members within one
    sender are dropped, each leaving a note on the returned Instance.
    """
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise ParseError(f"instance document must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(_REQUIRED_FIELDS))
    if unknown:
        raise ParseError(f"unknown field(s): {', '.join(unknown)}")
    missing = [f for f in _REQUIRED_FIELDS if f not in doc]
    if missing:
        raise ParseError(f"missing required field(s): {', '.join(missing)}")

    n = _require_int(doc["n"], "n")
    if not isinstance(doc["q"], list):
        raise ParseError("q must be an array")
    q = doc["q"]
    # one type test per item for the common all-int list; only when it
    # fails, the per-item check runs, to raise at the first bad item
    if not all(type(x) is int for x in q):
        q = [_require_int(x, f"q[{k}]") for k, x in enumerate(q)]
    q = tuple(q)

    if not isinstance(doc["arcs"], list):
        raise ParseError("arcs must be an array")
    pairs = doc["arcs"]
    if not all(type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
               for p in pairs):
        for k, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"arcs[{k}] must be a 2-element array")
            _require_int(pair[0], f"arcs[{k}][0]")
            _require_int(pair[1], f"arcs[{k}][1]")
    notes: list[str] = []
    arcs: list[tuple[int, int]] = []
    seen_arcs: set[tuple[int, int]] = set()
    for arc in map(tuple, pairs):
        if arc in seen_arcs:
            notes.append(f"duplicate arc [{arc[0]}, {arc[1]}] removed")
            continue
        seen_arcs.add(arc)
        arcs.append(arc)

    if not isinstance(doc["senders"], list):
        raise ParseError("senders must be an array")
    senders: list[tuple[int, ...]] = []
    seen_senders: set[tuple[int, ...]] = set()
    for k, members in enumerate(doc["senders"]):
        if not isinstance(members, list):
            raise ParseError(f"senders[{k}] must be an array")
        raw = members
        if not all(type(m) is int for m in members):
            raw = [_require_int(m, f"senders[{k}]") for m in members]
        uniq = sorted(set(raw))
        if len(uniq) != len(raw):
            notes.append(f"repeated member(s) in sender {k + 1} removed")
        key = tuple(uniq)
        if key in seen_senders and key:
            notes.append(f"duplicate sender {list(key)} removed (was position {k + 1})")
            continue
        seen_senders.add(key)
        senders.append(key)

    return Instance(n=n, q=q, arcs=tuple(sorted(arcs)), senders=tuple(senders),
                    notes=tuple(notes))


def serialize_instance(inst: Instance) -> str:
    doc = {
        "n": inst.n,
        "q": list(inst.q),
        "arcs": [list(a) for a in sorted(inst.arcs)],
        "senders": [list(s) for s in inst.senders],
    }
    return json.dumps(doc, indent=2) + "\n"


def read_text(path: str) -> str:
    """A file's text, decoded as UTF-8.  ParseError names the byte offset
    of the first byte that is not UTF-8 (a UTF-16 file fails at once)."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 text at byte offset {e.start}: {e.reason}") from e


def load_instance(path: str) -> Instance:
    return parse_instance(read_text(path))


def validate(inst: Instance) -> ValidationReport:
    """Check all instance invariants.  Findings are data, not exceptions."""
    v: list[str] = []
    if inst.n < 1:
        v.append(f"n must be at least 1, got {inst.n}")
    if len(inst.q) != inst.n:
        v.append(f"q has {len(inst.q)} entries, expected n = {inst.n}")
    for k, qi in enumerate(inst.q):
        if qi < 1:
            v.append(f"q[{k}] = {qi} must be positive")
    for (i, j) in inst.arcs:
        if i == j:
            v.append(f"self-arc [{i}, {j}] not allowed")
        for e in (i, j):
            if not 1 <= e <= inst.n:
                v.append(f"arc [{i}, {j}] endpoint {e} out of range 1..{inst.n}")
    if not inst.senders:
        v.append("at least one sender required")
    owned: set[int] = set()
    for k, s in enumerate(inst.senders):
        if not s:
            v.append(f"sender {k + 1} is empty")
        for m in s:
            if not 1 <= m <= inst.n:
                v.append(f"sender {k + 1} member {m} out of range 1..{inst.n}")
            else:
                owned.add(m)
    # n is only a number in the file: list the first few unowned messages
    # and count the rest, so the scan stops after len(owned) + the cap
    unowned = (m for m in range(1, inst.n + 1) if m not in owned)
    v.extend(f"message {m} unowned by any sender" for m in islice(unowned, _UNOWNED_LISTED))
    more = inst.n - len(owned) - _UNOWNED_LISTED
    if more > 0:
        v.append(f"... and {more} more unowned messages")
    return ValidationReport(ok=not v, violations=tuple(v), notes=inst.notes)


def derive_message_graph(inst: Instance) -> MessageGraph:
    """Edge {i, j} iff messages x_i and x_j are known to the same sender."""
    return MessageGraph(inst.n, inst.senders)
