"""Linear index codes over GF(2): representation, verification, oracle.

Every transmitted symbol is a single XOR of message bits, owned by one
sender and supported only on that sender's messages.  Message bit (j, b)
maps to one coordinate of a bit-packed integer vector; all rank work is
integer XOR elimination.  The JSON-text section writes the CLI's
documents and code files.
"""

from __future__ import annotations

import json
from collections import namedtuple
from enum import Enum

from . import graph
from .instance import Instance, ParseError, _Frozen, parse_json, read_text


class MalformedCodeError(ValueError):
    """Code is structurally inconsistent with the instance (for example a
    term outside the owning sender's message set).  Distinct from a code
    that is well-formed but fails to decode."""


class CapExceededError(RuntimeError):
    pass


# sender: 1-based index into the instance's sender list
# terms: sorted (message, bit) pairs, 1-based
CodeSymbol = namedtuple("CodeSymbol", "sender terms")


class LinearIndexCode(_Frozen):
    """A tuple of code symbols; its len() is the symbol count."""

    __slots__ = _fields = ("symbols",)

    def __init__(self, symbols: tuple[CodeSymbol, ...]):
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return len(self.symbols)


def symbol(sender: int, *terms: tuple[int, int]) -> CodeSymbol:
    return CodeSymbol(sender=sender, terms=tuple(sorted(terms)))


# failures: (receiver, wanted (message, bit)) pairs that do not decode
VerifyReport = namedtuple("VerifyReport", "valid failures")


def parse_code(text: str) -> LinearIndexCode:
    doc = parse_json(text)
    if type(doc) is not list:
        raise ParseError("code document must be a JSON array of symbols")
    # json.loads builds exact dicts, lists and ints, so type() tests are
    # the isinstance tests, and type() is int keeps true/false out
    symbols = []
    for k, sym in enumerate(doc):
        if type(sym) is not dict or len(sym) != 2 or "sender" not in sym or "terms" not in sym:
            raise ParseError(f"symbol {k} must be an object with fields sender, terms")
        sender = sym["sender"]
        if type(sender) is not int:
            raise ParseError(f"symbol {k} sender must be an integer")
        terms = sym["terms"]
        if type(terms) is not list or not terms:
            raise ParseError(f"symbol {k} terms must be a nonempty array")
        for t in terms:
            if type(t) is not list or len(t) != 2 or type(t[0]) is not int \
                    or type(t[1]) is not int:
                raise ParseError(f"symbol {k} terms must be [message, bit] integer pairs")
        # a file's terms are a set: a repeated pair is read once
        symbols.append(CodeSymbol(sender, (tuple(terms[0]),) if len(terms) == 1
                                  else tuple(sorted(set(map(tuple, terms))))))
    return LinearIndexCode(symbols=tuple(symbols))


def serialize_code(code: LinearIndexCode) -> str:
    # a symbol writes as {"sender": ..., "terms": ...}, keys sorted, so
    # this is json.dumps(doc, indent=2) + "\n"
    return json_text(code.symbols) + "\n"


# ------------------------------------------------------------ JSON text

_encode_str = json.encoder.encode_basestring_ascii


def json_text(obj) -> str:
    """obj as ``json.dumps(..., indent=2, sort_keys=True)`` writes its
    plain form, in one walk.  It takes ints, strings, bools, None, lists,
    tuples, dicts (keys through ``str``), sets (sorted), Enums (their
    values), records (by ``_fields``), code symbols and work graphs; any
    other type raises TypeError, as json.dumps does."""
    return _emit(obj, "\n")


# record type -> its field names in sorted order, each with the JSON text
# of its key.  A memo of facts about types, filled on a type's first use.
_FIELD_KEYS: dict[type, list[tuple[str, str]]] = {}


def _emit(obj, nl: str) -> str:
    # nl: a newline and the indent of the line obj starts on
    t = type(obj)
    if t is int:
        return int.__repr__(obj)
    if t is str:
        return _encode_str(obj)
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        if type(obj[0]) is CodeSymbol:
            items = _symbol_texts(obj, inner)
            items += [_emit(x, inner) for x in obj[len(items):]]  # from the first non-symbol
        else:
            for x in obj:
                if type(x) is not int:
                    items = [int.__repr__(x) if type(x) is int else _emit(x, inner) for x in obj]
                    break
            else:
                items = map(int.__repr__, obj)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        d = {str(k): v for k, v in obj.items()}
        return ("{" + inner + ("," + inner).join([_encode_str(k) + ": " + _emit(d[k], inner)
                                                  for k in sorted(d)]) + nl + "}")
    if t is CodeSymbol:
        return _symbol_texts((obj,), nl)[0]
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if t is frozenset or t is set:
        return _emit(sorted(obj), nl)
    keys = _FIELD_KEYS.get(t)  # before graph.WorkGraph, which loads graph
    if keys is None:
        if isinstance(obj, Enum):
            return _emit(obj.value, nl)
        fields = getattr(obj, "_fields", None)
        if fields is None:
            if isinstance(obj, graph.WorkGraph):
                return _graph_text(obj, nl)
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        keys = _FIELD_KEYS[t] = [(f, _encode_str(f) + ": ") for f in sorted(fields)]
    if not keys:
        return "{}"
    inner = nl + "  "
    return ("{" + inner + ("," + inner).join([k + _emit(getattr(obj, f), inner)
                                              for f, k in keys]) + nl + "}")


def _symbol_texts(seq, nl: str) -> list[str]:
    """The text of each code symbol seq starts with, up to its first
    item that is no symbol.  A symbol with one or two terms is one
    %-template, a longer one a template per term pair; %d writes a bool
    or IntEnum as the int it equals."""
    empty, one, two, sym, pair, comma = _TEMPLATES.get(nl) or _templates(nl)
    texts = []
    for s in seq:
        if type(s) is not CodeSymbol:
            break
        sender, terms = s
        texts.append(one % ((sender,) + terms[0]) if len(terms) == 1
                     else two % ((sender,) + terms[0] + terms[1]) if len(terms) == 2
                     else sym % (sender, comma.join([pair % p for p in terms])) if terms
                     else empty % sender)
    return texts


# nl -> the %-templates of a code symbol whose braces start on line nl,
# with no term, one, two, and with its term pairs as one %s; of a term
# pair (or a graph's arc), and the separator between pairs
_TEMPLATES: dict[str, tuple[str, str, str, str, str, str]] = {}


def _templates(nl: str) -> tuple[str, str, str, str, str, str]:
    i1 = nl + "  "  # the symbol's fields
    i2 = i1 + "  "  # a term's brackets
    i3 = i2 + "  "  # a term's message and bit
    sym = "{" + i1 + '"sender": %d,' + i1 + '"terms": [' + i2 + "%s" + i1 + "]" + nl + "}"
    pair = "[" + i3 + "%d," + i3 + "%d" + i2 + "]"
    _TEMPLATES[nl] = (sym.replace(i2 + "%s" + i1, ""), sym.replace("%s", pair),
                      sym.replace("%s", pair + "," + i2 + pair), sym, pair, "," + i2)
    return _TEMPLATES[nl]


def _graph_text(g: graph.WorkGraph, nl: str) -> str:
    """A graph as the object of its arcs, dummies, vertices and weights,
    written from its adjacency: its vertices and each out-neighbour tuple
    are sorted, so the arcs come in order.  Weight keys are strings, so
    they sort as strings ("10" before "2")."""
    out, weight = g._out, g.weight
    pair, comma = (_TEMPLATES.get(nl) or _templates(nl))[4:]
    i1 = nl + "  "
    arcs = [pair % (v, w) for v, ns in out.items() for w in ns]  # out's keys: the vertices
    weights = ['"%d": %d' % (v, weight[v]) for v in sorted(out, key=str)]
    return ("{" + i1 + '"arcs": ' + ("[" + comma[1:] + comma.join(arcs) + i1 + "]" if arcs
                                     else "[]")
            + "," + i1 + '"dummies": ' + _emit(sorted(g.dummies), i1) + "," + i1 + '"vertices": '
            + _emit(g.vertices, i1) + "," + i1 + '"weight": '
            + ("{" + comma[1:] + comma.join(weights) + i1 + "}" if weights else "{}") + nl + "}")


def load_code(path: str) -> LinearIndexCode:
    return parse_code(read_text(path))


def bit_layout(inst: Instance) -> tuple[tuple[int, ...], int]:
    """Coordinate offsets per message and the total bit count B."""
    offsets = []
    total = 0
    for qi in inst.q:
        offsets.append(total)
        total += qi
    return tuple(offsets), total


def _coord(offsets: tuple[int, ...], msg: int, bit: int) -> int:
    return offsets[msg - 1] + (bit - 1)


def _checked_vectors(inst: Instance, code: LinearIndexCode) -> tuple[list[int], set[int]]:
    """Each symbol's vector and the set of coordinates the code touches,
    in one pass that raises MalformedCodeError at the first symbol that
    is not well-formed for inst."""
    offsets, _ = bit_layout(inst)
    n, q, n_senders = inst.n, inst.q, len(inst.senders)
    owned_by = [set(s) for s in inst.senders]
    vecs = []
    touched: set[int] = set()
    for k, (sender, terms) in enumerate(code.symbols, start=1):
        if not 1 <= sender <= n_senders:
            raise MalformedCodeError(f"symbol {k}: sender {sender} does not exist")
        owned = owned_by[sender - 1]
        if not terms:
            raise MalformedCodeError(f"symbol {k}: empty term list")
        v = 0
        for (msg, bit) in terms:
            if not 1 <= msg <= n:
                raise MalformedCodeError(f"symbol {k}: message {msg} out of range")
            if msg not in owned:
                raise MalformedCodeError(f"symbol {k}: message {msg} not in sender {sender}'s set")
            if not 1 <= bit <= q[msg - 1]:
                raise MalformedCodeError(f"symbol {k}: bit {bit} out of range for message {msg}")
            c = offsets[msg - 1] + bit - 1
            v ^= 1 << c
            touched.add(c)
        # a repeated term cancels in the XOR, so the symbol would not be
        # the set of terms its code file holds
        if v.bit_count() != len(terms):
            msg, bit = next(t for i, t in enumerate(terms) if t in terms[:i])
            raise MalformedCodeError(f"symbol {k}: term [{msg}, {bit}] repeated")
        vecs.append(v)
    return vecs, touched


def check_code(inst: Instance, code: LinearIndexCode) -> None:
    """Raise MalformedCodeError unless the code is well-formed for inst."""
    _checked_vectors(inst, code)


def symbol_vectors(inst: Instance, code: LinearIndexCode) -> list[int]:
    """Each symbol's bit vector; MalformedCodeError as ``check_code``."""
    return _checked_vectors(inst, code)[0]


class Gf2Basis:
    """Incremental GF(2) row basis in fully reduced form."""

    def __init__(self, rows=()):
        self.rows: dict[int, int] = {}  # pivot bit position -> reduced row
        # OR of every vector inserted, reduced: each row is an XOR of
        # these, so a bit outside the mask is in no row
        self._mask = 0
        for r in rows:
            self.add(r)

    def _reduce(self, vec: int) -> int:
        # a row holds no other row's pivot, so the rows to XOR in are
        # exactly those pivoted at vec's own bits
        bits = vec
        while bits:
            low = bits & -bits
            bits ^= low
            vec ^= self.rows.get(low.bit_length() - 1, 0)
        return vec

    def add(self, vec: int) -> bool:
        """Insert vec; True if it was independent of the current basis."""
        vec = self._reduce(vec)
        if vec == 0:
            return False
        pivot = vec.bit_length() - 1
        if (self._mask >> pivot) & 1:
            for p, row in self.rows.items():
                if p > pivot and (row >> pivot) & 1:  # lower pivots lie below bit pivot
                    self.rows[p] = row ^ vec
        self._mask |= vec
        self.rows[pivot] = vec
        return True

    def contains(self, vec: int) -> bool:
        return self._reduce(vec) == 0

    @property
    def rank(self) -> int:
        return len(self.rows)


def _wants(inst: Instance) -> dict[int, list[int]]:
    """Receiver r -> the messages r wants, ascending, for r = 1..n."""
    wants: dict[int, list[int]] = {r: [] for r in range(1, inst.n + 1)}
    for (i, j) in sorted(inst.arcs):
        wants[j].append(i)
    return wants


def _receivers(inst: Instance, offsets: tuple[int, ...]) -> list[tuple]:
    """(r, r's own coordinates, wanted (message, bit) pairs, their
    coordinates) for every receiver that wants something, in order."""
    out = []
    for r, ms in _wants(inst).items():
        wanted = [(j, b) for j in ms for b in range(1, inst.q[j - 1] + 1)]
        if wanted:
            out.append((r, range(offsets[r - 1], offsets[r - 1] + inst.q[r - 1]),
                        wanted, [_coord(offsets, j, b) for (j, b) in wanted]))
    return out


def verify_linear(inst: Instance, code: LinearIndexCode) -> VerifyReport:
    """Rank criterion: receiver r decodes bit (j, b) iff its unit vector
    lies in the span of the code symbols plus r's own message bits.

    One elimination of the code to its RREF ``rows`` by ``Gf2Basis``,
    which reduces a vector by its own set bits through a dict keyed by
    pivot (``_reduced`` tests every row: 16x slower on single-verify codes).
    Deleting r's own columns (keep = ~own) leaves a row pivoted outside
    them the only one with its pivot bit, so it fixes that coefficient:
    e_c lies in the projected row space iff t_c & keep lies in the span
    K of the <= q_r rows pivoted inside own, where t_c = rows[c] ^ e_c
    (rows[c] = 0 if c is no pivot).  A c with t_c = 0 decodes at every
    receiver, and a c that no symbol touches is in no row of the span,
    so it decodes at none: both are settled once per wanted message, the
    second with no big-integer work.  The rest take one reduction by K
    per receiver, and K is built, by ``Gf2Basis`` again, only for a
    receiver that has such a bit to test."""
    vecs, touched = _checked_vectors(inst, code)
    rows = Gf2Basis(vecs).rows
    offsets, _ = bit_layout(inst)
    q = inst.q
    # wanted message -> its (bit, t_c) with t_c != 0, t_c None if untouched
    open_bits: dict[int, list[tuple[int, int | None]]] = {}
    for m in {i for (i, _) in inst.arcs}:
        bits = open_bits[m] = []
        base = offsets[m - 1] - 1
        for c in range(base + 1, base + 1 + q[m - 1]):
            if c not in touched:
                bits.append((c - base, None))
                continue
            t = rows.get(c, 0) ^ (1 << c)
            if t:
                bits.append((c - base, t))
    failures = []
    for r, ms in _wants(inst).items():
        k = None
        for m in ms:
            bits = open_bits[m]
            if not bits or m == r:  # a receiver knows its own bits
                continue
            if k is None:
                start = offsets[r - 1]
                keep = ~(((1 << q[r - 1]) - 1) << start)
                k = Gf2Basis(rows[p] & keep for p in range(start, start + q[r - 1]) if p in rows)
            for b, t in bits:
                if t is None or not k.contains(t & keep):
                    failures.append((r, (m, b)))
    return VerifyReport(valid=not failures, failures=tuple(failures))


def verify_exhaustive(inst: Instance, code: LinearIndexCode, cap: int = 20) -> VerifyReport:
    """Decodability by definition: enumerate every message assignment and
    demand each wanted bit be a function of (codeword, receiver's own bits).

    Exponential in the total bit count B; refuses to run past the cap.
    """
    vecs = symbol_vectors(inst, code)
    offsets, total = bit_layout(inst)
    if total > cap:
        raise CapExceededError(f"total bits {total} exceeds cap {cap}")

    codewords = []
    for x in range(1 << total):
        w = 0
        for k, v in enumerate(vecs):
            w |= (bin(x & v).count("1") & 1) << k
        codewords.append(w)

    failures = []
    for r, own_coords, wanted, coords in _receivers(inst, offsets):
        own = ((1 << len(own_coords)) - 1) << own_coords.start
        for (j, b), c in zip(wanted, coords):
            probe = 1 << c
            seen: dict[tuple[int, int], int] = {}
            ok = True
            for x in range(1 << total):
                key = (codewords[x], x & own)
                val = 1 if x & probe else 0
                prev = seen.get(key)
                if prev is None:
                    seen[key] = val
                elif prev != val:
                    ok = False
                    break
            if not ok:
                failures.append((r, (j, b)))
    return VerifyReport(valid=not failures, failures=tuple(failures))


OracleResult = namedtuple("OracleResult", "length code exact note", defaults=("",))


def _trivial_upper_code(inst: Instance) -> LinearIndexCode:
    """Send every bit of every requested message uncoded; always decodes."""
    requested = sorted({i for (i, _) in inst.arcs})
    symbols = []
    for msg in requested:
        owner = next(k + 1 for k, s in enumerate(inst.senders) if msg in s)
        for b in range(1, inst.q[msg - 1] + 1):
            symbols.append(CodeSymbol(sender=owner, terms=((msg, b),)))
    return LinearIndexCode(symbols=tuple(symbols))


def _candidate_vectors(inst: Instance, offsets: tuple[int, ...]) -> list[tuple[int, int]]:
    """All admissible symbol vectors: per sender, every nonzero XOR over
    that sender's bit coordinates.  Ordered by (sender, vector) so the
    search is canonical.  A vector ownable by several senders appears
    once, attributed to the smallest sender; attribution never affects
    decodability."""
    cands = []
    seen = {0}
    for si, members in enumerate(inst.senders, start=1):
        vecs = [0]
        for m in members:
            for b in range(1, inst.q[m - 1] + 1):
                vecs += [v | 1 << _coord(offsets, m, b) for v in vecs]
        cands += [(si, v) for v in sorted(set(vecs) - seen)]
        seen.update(vecs)
    return cands


def _reduced(rows: tuple[int, ...], v: int) -> int:
    """v reduced by echelon rows in descending order, or by RREF rows in
    any order: 0 iff v is in their span (v ^ row < v iff v has row's top
    bit)."""
    for row in rows:
        if v ^ row < v:
            v ^= row
    return v


def _lowers(a: tuple[int, ...], b: tuple[int, ...], ko: int, kow: int, v: int) -> bool:
    """Whether v lowers the deficit of a receiver (``oracle_min_linear``)."""
    return not _reduced(b, v & kow) and bool(_reduced(a, v & ko))


def _grown(state: tuple, masks: list[tuple[int, int]], v: int) -> tuple:
    """Per receiver (d_r, A_r, B_r) of span + v from those of the span;
    a basis v does not widen is shared, not copied."""
    out = []
    for (d, a, b), (ko, kow) in zip(state, masks):
        x = _reduced(a, v & ko)
        if x:  # else neither basis grows
            a = tuple(sorted(a + (x,), reverse=True))
            y = _reduced(b, v & kow)
            b, d = (tuple(sorted(b + (y,), reverse=True)), d) if y else (b, d - 1)
        out.append((d, a, b))
    return tuple(out)


def _closed_demands(inst: Instance, offsets: tuple[int, ...]) -> list[tuple[int, int]]:
    """(own coordinates, coordinates to decode), as bit masks, for every
    receiver that wants something, where r must decode every message
    reachable from it along requests (r wants i, receiver i wants j, ...).

    A receiver that decodes message i knows all that receiver i knows, so
    a code decoding every request decodes these closed demands as well,
    and conversely.  Each closed deficit is at least the plain one."""
    wants = _wants(inst)
    return [(((1 << inst.q[r - 1]) - 1) << offsets[r - 1],
             sum(((1 << inst.q[m - 1]) - 1) << offsets[m - 1]
                 for m in graph._closure(wants, (r,)) - {r}))
            for r in range(1, inst.n + 1) if wants[r]]


def oracle_min_linear(inst: Instance, max_len: int | None = None,
                      max_bits: int = 12, max_nodes: int = 10_000) -> OracleResult:
    """Minimum number of scalar-linear symbols decoding every request.

    Exhaustive subspace search with canonical (lexicographic) ordering,
    so the returned witness is deterministic.  For multi-sender inputs
    the value is the linear optimum; whether nonlinear codes can beat it
    is not settled, so callers should label it accordingly.

    A node is (span S, slots, start): the code so far as its RREF rows,
    the symbols still to place, and the first candidate it may use.
    Receiver r knows its coordinates O_r and must decode W_r, the
    messages reachable from it along requests (``_closed_demands``).
    With S|M the projection of S onto coordinates M, A_r the rows of
    S|~O_r and B_r those of S|~(O_r u W_r), r's rank deficit is

        d_r(S) = |W_r| + rank B_r - rank A_r,

    since S + e(O_r) has rank |O_r| + rank A_r, S + e(O_r u W_r) has
    rank |O_r u W_r| + rank B_r, and r decodes W_r iff they are equal.
    Adding v grows B_r iff v|~(O_r u W_r) is outside span B_r, and then
    v|~O_r is outside span A_r, which grows A_r: so d_r moves by -1 or 0.
    The root has every d_r <= slots (= length), and so does each node
    after it: the child by v needs d_r <= slots - 1, so it survives iff v
    lowers every tight d_r (== slots):
    v|~O_r outside span A_r and v|~(O_r u W_r) in span B_r.  At slots 1
    a survivor has every deficit 0 and is the witness.  A node that is
    searched builds its (d_r, A_r, B_r) from its parent's (``_grown``).
    All else skipped has no witness or was searched already, so the
    visiting order and the first witness are the plain search's:

    - ``failed``: span -> the smallest start a search from it failed at,
      per length (slots + rank = length).  The branches from start
      s' >= s are among those from s, so a node tries only candidates
      below the start it last failed from.
    - Candidates in one coset v + S give one child span, the later one
      with a later start, so only the first is tried.

    At most ``max_nodes`` nodes are entered over all lengths; past that
    the result is the uncoded code, not exact, as past ``max_len``.
    """
    offsets, total = bit_layout(inst)
    if total > max_bits:
        raise CapExceededError(f"total bits {total} exceeds cap {max_bits}")

    demands = _closed_demands(inst, offsets)
    if not demands:
        return OracleResult(length=0, code=LinearIndexCode(symbols=()), exact=True)

    cands = _candidate_vectors(inst, offsets)
    upper_code = _trivial_upper_code(inst)
    hard_cap = len(upper_code) if max_len is None else min(max_len, len(upper_code))
    masks = [(~own, ~(own | wanted)) for own, wanted in demands]
    root = tuple((wanted.bit_count(), (), ()) for _, wanted in demands)
    failed: dict[tuple[int, ...], int] = {}
    nodes = 0

    def dfs(start: int, span: tuple[int, ...], slots: int, up: tuple, v: int) -> bool:
        # span is the parent's span + v, and up the parent's state
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise CapExceededError
        end = failed.get(span, len(cands))
        if end <= start:
            return False
        state = _grown(up, masks, v)
        tight = [(a, b, ko, kow) for (d, a, b), (ko, kow) in zip(state, masks) if d == slots]
        seen = set()
        for k in range(start, end):
            si, vec = cands[k]
            r = vec  # _reduced(span, vec), inline in the hottest loop: v + S's representative
            for row in span:
                if r ^ row < r:
                    r ^= row
            if not r or r in seen:
                continue  # dependent, or the coset of an earlier candidate
            seen.add(r)
            for a, b, ko, kow in tight:
                if not _lowers(a, b, ko, kow, r):
                    break
            else:
                chosen.append((si, vec))
                if slots == 1:
                    return True
                top = r.bit_length() - 1  # RREF of span + r, sorted: the child's key
                child = tuple(sorted([row ^ r if row >> top & 1 else row for row in span] + [r],
                                     reverse=True))
                if dfs(k + 1, child, slots - 1, state, r):
                    return True
                chosen.pop()
        failed[span] = start
        return False

    lb = max(d for d, _, _ in root)
    note = f"no code of length <= {hard_cap} found within caps"
    for length in range(lb, hard_cap + 1):
        failed.clear()
        chosen: list[tuple[int, int]] = []
        try:
            found = dfs(0, (), length, root, 0)
        except CapExceededError:
            note = f"search stopped after {max_nodes} nodes (max_nodes) at length {length}"
            break
        if found:
            terms = [(m, b) for m in range(1, inst.n + 1) for b in range(1, inst.q[m - 1] + 1)]
            symbols = tuple(CodeSymbol(si, tuple(t for t in terms if vec >> _coord(offsets, *t) & 1))
                            for si, vec in chosen)
            return OracleResult(length=length, code=LinearIndexCode(symbols), exact=True)

    # a cap cut the search short; fall back to the uncoded scheme
    return OracleResult(length=len(upper_code), code=upper_code, exact=False,
                        note=note + "; reporting the uncoded upper bound")
