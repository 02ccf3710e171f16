"""Linear codes: layout, verification, and the brute-force oracle."""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from uniprior import (CapExceededError, Gf2Basis, Instance, LinearIndexCode,
                      MalformedCodeError, ParseError, bit_layout, check_code, load_code,
                      oracle_min_linear, parse_code, serialize_code, solve_single,
                      symbol, verify_exhaustive, verify_linear)

from generators import (make_instance, rand_arcs, rand_code, rand_multi,
                        rand_senders, rand_single)
from oracles import (_residues, brute_min_linear, reference_oracle_min_linear,
                     reference_verify_linear)
from uniprior.codes import _closed_demands, _grown, _lowers, symbol_vectors

EX2 = make_instance(5, [[2, 1], [3, 1], [1, 2], [3, 2], [1, 3], [2, 3], [4, 5]],
                    [[1, 2, 3, 4, 5]], q=[1, 2, 2, 2, 2])
TWO_CYCLE = make_instance(2, [[1, 2], [2, 1]], [[1, 2]])
D1 = make_instance(3, [[1, 2], [2, 1], [3, 1]], [[1, 3], [2, 3]])

EX2_CODE = LinearIndexCode((
    symbol(1, (1, 1), (2, 1)),
    symbol(1, (2, 1), (3, 1)),
    symbol(1, (2, 2)),
    symbol(1, (3, 2)),
    symbol(1, (4, 1)),
    symbol(1, (4, 2)),
))


def test_bit_layout():
    offsets, total = bit_layout(EX2)
    assert total == 9
    assert offsets == (0, 1, 3, 5, 7)


def test_symbol_sorts_terms():
    assert symbol(1, (3, 1), (1, 2)).terms == ((1, 2), (3, 1))


def test_code_round_trip(tmp_path):
    text = serialize_code(EX2_CODE)
    assert parse_code(text) == EX2_CODE
    p = tmp_path / "c.json"
    p.write_text(text)
    assert load_code(str(p)) == EX2_CODE


PAIRS = "terms must be [message, bit] integer pairs"


@pytest.mark.parametrize("doc,message", [
    ([{"sender": 1, "terms": [[1, True]]}], f"symbol 0 {PAIRS}"),
    ([{"sender": 1, "terms": [[1, 1], [2]]}], f"symbol 0 {PAIRS}"),
    ([{"sender": 1, "terms": [[1, 1], "x"]}], f"symbol 0 {PAIRS}"),
    ([{"sender": 1, "terms": [[1.0, 1]]}], f"symbol 0 {PAIRS}"),
    ([{"sender": True, "terms": [[1, 1]]}], "symbol 0 sender must be an integer"),
    ([{"sender": 1, "terms": []}], "symbol 0 terms must be a nonempty array"),
    ([{"sender": 1, "terms": [[1, 1]]}, {"sender": 1}],
     "symbol 1 must be an object with fields sender, terms"),
    ([{"sender": 1, "terms": [[1, 1]]}, {"sender": 2, "terms": [[1, 1, 1]]}],
     f"symbol 1 {PAIRS}"),
])
def test_parse_code_error_messages(doc, message):
    with pytest.raises(ParseError) as e:
        parse_code(json.dumps(doc))
    assert str(e.value) == message


@pytest.mark.parametrize("sym", [
    symbol(3, (1, 1)),            # no such sender
    symbol(1, (2, 1)),            # message outside the sender's set
    symbol(2, (3, 2)),            # bit index beyond q_3
    symbol(2, (3, 0)),
])
def test_check_code_rejects(sym):
    with pytest.raises(MalformedCodeError):
        check_code(D1, LinearIndexCode((sym,)))


def test_check_code_rejects_empty_terms():
    with pytest.raises(MalformedCodeError):
        check_code(D1, LinearIndexCode((symbol(1),)))


def test_gf2_basis_basics():
    b = Gf2Basis()
    assert b.add(0b101)
    assert b.add(0b011)
    assert not b.add(0b110)  # dependent
    assert b.rank == 2
    assert b.contains(0b110)
    assert not b.contains(0b001)
    assert not b.add(0)


class _UnmaskedBasis:
    """Gf2Basis without the insertion mask: every add clears the new
    pivot's bit from every higher row."""

    def __init__(self):
        self.rows: dict[int, int] = {}

    def add(self, vec: int) -> bool:
        for p in sorted(self.rows, reverse=True):
            if (vec >> p) & 1:
                vec ^= self.rows[p]
        if vec == 0:
            return False
        pivot = vec.bit_length() - 1
        for p, row in self.rows.items():
            if p > pivot and (row >> pivot) & 1:
                self.rows[p] = row ^ vec
        self.rows[pivot] = vec
        return True

    def copy(self) -> _UnmaskedBasis:
        b = _UnmaskedBasis()
        b.rows = dict(self.rows)
        return b


def test_gf2_basis_matches_unmasked_reference_across_copies():
    rng = random.Random("gf2-mask")
    scans = skips = 0
    for _ in range(300):
        bits = rng.randint(1, 12)
        pairs = [(Gf2Basis(), _UnmaskedBasis())]
        for _ in range(rng.randint(1, 16)):
            b, ref = rng.choice(pairs)
            if rng.random() < 0.3:  # branch: the oracle adds to a copy
                b, ref = Gf2Basis(b.rows.values()), ref.copy()
                pairs.append((b, ref))
            # sparse vectors leave bits outside the mask, dense ones clear rows
            vec = (rng.getrandbits(bits) if rng.random() < 0.5
                   else 1 << rng.randrange(bits) | 1 << rng.randrange(bits))
            reduced = b._reduce(vec)
            if reduced:
                if (b._mask >> (reduced.bit_length() - 1)) & 1:
                    scans += 1
                else:
                    skips += 1
            assert b.add(vec) == ref.add(vec)
            assert b.rows == ref.rows
            assert tuple(sorted(b.rows.values())) == tuple(sorted(ref.rows.values()))
    assert scans > 100 and skips > 100


@given(st.lists(st.integers(1, 2 ** 8 - 1), max_size=10), st.randoms())
def test_gf2_basis_snapshot_is_order_independent(vectors, pyrand):
    b1 = Gf2Basis()
    for v in vectors:
        b1.add(v)
    shuffled = list(vectors)
    pyrand.shuffle(shuffled)
    b2 = Gf2Basis()
    for v in shuffled:
        b2.add(v)
    assert tuple(sorted(b1.rows.values())) == tuple(sorted(b2.rows.values()))
    assert b1.rank == b2.rank


def test_verify_two_cycle():
    ok = verify_linear(TWO_CYCLE, LinearIndexCode((symbol(1, (1, 1), (2, 1)),)))
    assert ok.valid
    empty = verify_linear(TWO_CYCLE, LinearIndexCode(()))
    assert not empty.valid
    assert empty.failures == ((1, (2, 1)), (2, (1, 1)))


def test_verify_example_code():
    assert verify_linear(EX2, EX2_CODE).valid
    assert verify_exhaustive(EX2, EX2_CODE).valid
    # dropping any symbol breaks it: the length is optimal
    for k in range(len(EX2_CODE.symbols)):
        rest = EX2_CODE.symbols[:k] + EX2_CODE.symbols[k + 1:]
        assert not verify_linear(EX2, LinearIndexCode(rest)).valid
    # losing the chain link x2[1]^x3[1] strands receiver 1 on x3[1]
    short = LinearIndexCode(EX2_CODE.symbols[:1] + EX2_CODE.symbols[2:])
    assert verify_linear(EX2, short).failures[0] == (1, (3, 1))


def test_empty_code_suffices_when_nothing_is_wanted():
    lonely = make_instance(2, [], [[1, 2]])
    rep = verify_linear(lonely, LinearIndexCode(()))
    assert rep.valid and rep.failures == ()


def test_verify_eliminates_within_a_receivers_own_rows():
    # both rows are pivoted on receiver 2's own bits and equal x1[1] off
    # them, so the second reduces to 0 in receiver 2's basis
    inst = make_instance(2, [[1, 2]], [[1, 2]], q=[1, 2])
    code = LinearIndexCode((symbol(1, (1, 1), (2, 1)), symbol(1, (1, 1), (2, 2))))
    rows = Gf2Basis(symbol_vectors(inst, code)).rows
    assert sorted(rows) == [1, 2] and rows[1] & 1 == rows[2] & 1 == 1
    assert verify_linear(inst, code).valid and verify_exhaustive(inst, code).valid
    for sym in code.symbols:  # either symbol alone decodes x1[1]
        assert verify_linear(inst, LinearIndexCode((sym,))).valid
    assert verify_linear(inst, LinearIndexCode(())).failures == ((2, (1, 1)),)
    # off receiver 3's own bits its rows are x1[1]^x2[1] and x2[1]: the
    # second reduces by the first to x1[1], and decoding x1[1] takes both
    inst = make_instance(3, [[1, 3], [2, 3]], [[1, 2, 3]], q=[1, 1, 2])
    code = LinearIndexCode((symbol(1, (1, 1), (2, 1), (3, 1)), symbol(1, (2, 1), (3, 2))))
    assert verify_linear(inst, code).valid and verify_exhaustive(inst, code).valid
    assert verify_linear(inst, LinearIndexCode(code.symbols[1:])).failures == ((3, (1, 1)),)


def test_verify_reports_first_failures_in_receiver_order():
    naive = LinearIndexCode((symbol(1, (1, 1), (2, 1)), symbol(2, (3, 1), (4, 1))))
    split = make_instance(4, [[1, 3], [4, 2], [1, 2], [2, 1], [3, 4], [4, 3]],
                       [[1, 2], [3, 4]])
    rep = verify_linear(split, naive)
    assert not rep.valid
    assert rep.failures == ((2, (4, 1)), (3, (1, 1)))


def test_verify_exhaustive_cap():
    big = make_instance(21, [], [list(range(1, 22))])
    with pytest.raises(CapExceededError):
        verify_exhaustive(big, LinearIndexCode(()), cap=20)


def test_verifiers_agree_on_random_codes():
    rng = random.Random(31)
    for _ in range(250):
        inst = rand_multi(rng, n_max=5)
        code = rand_code(rng, inst)
        a = verify_linear(inst, code)
        b = verify_exhaustive(inst, code)
        assert a.valid == b.valid
        assert a.failures == b.failures


def _mixed_valid_code(rng, inst) -> LinearIndexCode:
    """Every requested bit sent uncoded by its first owner, then random
    XORs of one symbol into another of the same sender: the span and so
    the validity stay, the symbols become coded."""
    rows = []
    for msg in sorted({i for (i, _) in inst.arcs}):
        owner = next(k for k, s in enumerate(inst.senders, start=1) if msg in s)
        rows += [(owner, {(msg, b)}) for b in range(1, inst.q[msg - 1] + 1)]
    for _ in range(2 * len(rows) if len(rows) > 1 else 0):
        (sa, a), (sb, b) = rng.sample(rows, 2)
        if sa == sb:
            a ^= b  # in place: the row's term set changes
    rng.shuffle(rows)
    return LinearIndexCode(tuple(symbol(s, *terms) for (s, terms) in rows))


def test_verify_linear_matches_reference_on_weighted_multi_sender():
    rng = random.Random(43)
    valid = invalid = 0
    for _ in range(150):
        n = rng.randint(2, 5)
        inst = make_instance(n, rand_arcs(rng, n, rng.uniform(0.15, 0.55)),
                             rand_senders(rng, n), [rng.randint(1, 3) for _ in range(n)])
        total = bit_layout(inst)[1]
        mixed = _mixed_valid_code(rng, inst)
        for code in (rand_code(rng, inst, max_len=total + 2), mixed,
                     LinearIndexCode(mixed.symbols[1:])):
            rep = verify_linear(inst, code)
            assert rep == reference_verify_linear(inst, code)
            if total <= 12:
                assert rep == verify_exhaustive(inst, code)
            valid += rep.valid
            invalid += not rep.valid
    assert valid > 100 and invalid > 100


def test_verify_linear_matches_reference_on_deleted_optimal_symbols():
    # n = 150, one sender, q in [1, 3], shuffled labels: 8 cycles (leaf
    # SCCs, sent coded), 10 feeders wanted by cycle vertices, 20 sinks
    # wanting feeders, the rest idle
    rng = random.Random(47)
    label = list(range(1, 151))
    rng.shuffle(label)
    arcs, cycles, v = [], [], 0
    for _ in range(8):
        k = rng.randint(2, 4)
        cyc = label[v:v + k]
        arcs += [[a, b] for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        cycles += cyc
        v += k
    feeders, sinks = label[v:v + 10], label[v + 10:v + 30]
    arcs += [[f, c] for f in feeders for c in rng.sample(cycles, rng.randint(1, 2))]
    arcs += [[f, s] for s in sinks for f in rng.sample(feeders, rng.randint(1, 2))]
    inst = make_instance(150, arcs, [list(range(1, 151))],
                         [rng.randint(1, 3) for _ in range(150)])
    code = solve_single(inst).code
    assert verify_linear(inst, code).valid
    assert any(len(sym.terms) > 1 for sym in code.symbols)
    for k in range(len(code)):
        short = LinearIndexCode(code.symbols[:k] + code.symbols[k + 1:])
        rep = verify_linear(inst, short)
        assert not rep.valid
        assert rep == reference_verify_linear(inst, short)


def test_repeated_term_is_malformed():
    # x1[1] ^ x1[1] cancels to the zero vector, so a Python-built symbol
    # that repeats a term is not the term set its code file holds
    inst = Instance(n=2, q=(1, 1), arcs=((1, 2),), senders=((1, 2),))
    code = LinearIndexCode((symbol(1, (1, 1), (1, 1)),))
    for check in (check_code, verify_linear, verify_exhaustive):
        with pytest.raises(MalformedCodeError) as e:
            check(inst, code)
        assert str(e.value) == "symbol 1: term [1, 1] repeated"
    # a code file's terms are a set, so the file reads back as x1[1]
    assert verify_linear(inst, parse_code(serialize_code(code))).valid
    # the checks run symbol by symbol, all of a symbol's terms before the
    # repeat test: a bad term after the repeat raises first, a later bad
    # symbol does not
    with pytest.raises(MalformedCodeError, match=r"^symbol 1: bit 2 out of range"):
        check_code(inst, LinearIndexCode((symbol(1, (1, 1), (1, 1), (1, 2)),)))
    with pytest.raises(MalformedCodeError, match=r"^symbol 1: term \[1, 1\] repeated$"):
        check_code(inst, LinearIndexCode((code.symbols[0], symbol(3, (1, 1)))))


def _single_verify_codes(rng):
    """Instances shaped like the single-verify benchmark pool (one
    sender, n 36-52, q 1-3, about 3n arcs), each with its optimal code,
    that code minus its last symbol, and minus a few random symbols."""
    for _ in range(12):
        n = rng.randint(36, 52)
        inst = make_instance(n, rand_arcs(rng, n, 3.0 / (n - 1)), [list(range(1, n + 1))],
                             [rng.randint(1, 3) for _ in range(n)])
        syms = solve_single(inst).code.symbols
        drop = set(rng.sample(range(len(syms)), rng.randint(2, 5)))
        for kept in (syms, syms[:-1], tuple(s for k, s in enumerate(syms) if k not in drop)):
            yield inst, LinearIndexCode(kept)


def _untouched_codes(rng):
    """Weighted multi-sender instances with a valid code from which
    every symbol touching some wanted bits is dropped."""
    for _ in range(120):
        n = rng.randint(2, 5)
        inst = make_instance(n, rand_arcs(rng, n, rng.uniform(0.2, 0.6)), rand_senders(rng, n),
                             [rng.randint(1, 3) for _ in range(n)])
        wanted = sorted({(i, b) for (i, _) in inst.arcs for b in range(1, inst.q[i - 1] + 1)})
        if not wanted:
            continue
        gone = set(rng.sample(wanted, rng.randint(1, min(3, len(wanted)))))
        syms = _mixed_valid_code(rng, inst).symbols
        yield inst, LinearIndexCode(tuple(s for s in syms if gone.isdisjoint(s.terms)))


def _dependent_codes(rng):
    """Valid codes with dependent symbols added (copies of a symbol, and
    XORs of two symbols of one sender), then with some original symbols
    dropped."""
    for _ in range(120):
        n = rng.randint(2, 5)
        inst = make_instance(n, rand_arcs(rng, n, rng.uniform(0.2, 0.6)), rand_senders(rng, n),
                             [rng.randint(1, 3) for _ in range(n)])
        syms = list(_mixed_valid_code(rng, inst).symbols)
        if not syms:
            continue
        extra = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(syms), rng.choice(syms)
            terms = set(a.terms) ^ set(b.terms) if a.sender == b.sender else set(a.terms)
            extra.append(symbol(a.sender, *(terms or a.terms)))
        yield inst, LinearIndexCode(tuple(syms + extra))
        k = rng.randint(1, len(syms))
        yield inst, LinearIndexCode(tuple(rng.sample(syms, len(syms) - k) + extra))


@pytest.mark.parametrize("family", [_single_verify_codes, _untouched_codes, _dependent_codes],
                         ids=["single-verify", "untouched", "dependent"])
def test_verify_linear_matches_reference_and_exhaustive(family):
    """The same report as the per-receiver reference, failures in the
    same order, and as the definition wherever B <= 12."""
    rng = random.Random(family.__name__)
    seen = {"valid": 0, "invalid": 0, "exhaustive": 0, "untouched": 0, "touched": 0}
    for inst, code in family(rng):
        rep = verify_linear(inst, code)
        assert rep == reference_verify_linear(inst, code)
        if bit_layout(inst)[1] <= 12:
            assert rep == verify_exhaustive(inst, code)
            seen["exhaustive"] += 1
        seen["valid" if rep.valid else "invalid"] += 1
        touched = {t for s in code.symbols for t in s.terms}
        # codes failing on a bit no symbol touches, and on a touched bit
        seen["untouched"] += any(w not in touched for _, w in rep.failures)
        seen["touched"] += any(w in touched for _, w in rep.failures)
    assert seen["invalid"] >= 20
    if family is _single_verify_codes:
        assert seen["valid"] == 12
    else:
        assert seen["exhaustive"] >= 80
    if family is _untouched_codes:
        assert seen["untouched"] >= 80
    if family is _dependent_codes:
        assert seen["valid"] >= 80 and seen["touched"] >= 10


def test_verify_linear_cost_follows_the_code_not_the_message_length():
    # one symbol x1[1]; the 149 999 other bits of x1 touch no symbol, so
    # each fails at receiver 2 with no big-integer work.  Reducing a
    # 150 000-bit vector per wanted bit took about 5.5 s and 1.5 GB
    inst = Instance(n=2, q=(150000, 1), arcs=((1, 2),), senders=((1, 2),))
    t0 = time.perf_counter()
    rep = verify_linear(inst, LinearIndexCode((symbol(1, (1, 1)),)))
    elapsed = time.perf_counter() - t0
    assert len(rep.failures) == 149999
    assert rep.failures[0] == (2, (1, 2)) and rep.failures[-1] == (2, (1, 150000))
    assert elapsed < 2, f"verify_linear took {elapsed:.1f} s"


def test_oracle_frozen_values():
    ex1 = make_instance(4, [[4, 1], [3, 2], [1, 3], [2, 3], [1, 4], [2, 4]],
                        [[1, 2, 3, 4]])
    assert oracle_min_linear(ex1).length == 3

    singles = make_instance(5, [[2, 1], [3, 1], [1, 2], [3, 2], [1, 3],
                                [2, 3], [4, 5]],
                            [[1], [2], [3], [4], [5]], q=[1, 2, 2, 2, 2])
    assert oracle_min_linear(singles).length == 7

    res = oracle_min_linear(D1)
    assert res.length == 2 and res.exact
    assert verify_linear(D1, res.code).valid


def test_oracle_deterministic_witness():
    a = oracle_min_linear(D1)
    b = oracle_min_linear(D1)
    assert a.code == b.code
    assert a.code.symbols == (symbol(1, (1, 1), (3, 1)), symbol(2, (2, 1), (3, 1)))


def test_oracle_matches_plain_combination_scan():
    rng = random.Random(37)
    for _ in range(40):
        inst = rand_multi(rng, n_max=4)
        res = oracle_min_linear(inst)
        assert res.exact
        assert res.length == brute_min_linear(inst, max_len=res.length)
        assert verify_linear(inst, res.code).valid


def test_oracle_monotone_under_arc_removal():
    rng = random.Random(41)
    for _ in range(60):
        inst = rand_single(rng, n_max=5)
        base = oracle_min_linear(inst).length
        arcs = [list(a) for a in inst.arcs]
        if not arcs:
            continue
        keep = [a for a in arcs if rng.random() < 0.6]
        sub = make_instance(inst.n, keep, [list(s) for s in inst.senders],
                            list(inst.q))
        assert oracle_min_linear(sub).length <= base


def test_oracle_bit_cap():
    with pytest.raises(CapExceededError):
        oracle_min_linear(EX2, max_bits=8)


def test_oracle_length_cap_falls_back_to_uncoded():
    res = oracle_min_linear(D1, max_len=1)
    assert not res.exact
    assert res.length == 3  # every wanted message sent uncoded
    assert res.note
    assert verify_linear(D1, res.code).valid


def _grow(demands, vecs):
    """The oracle's per-receiver states (d_r, A_r, B_r) of the empty span
    and after each of vecs in turn, checking that every step moves each
    d_r by -1 or 0 and that the tight-receiver test says which."""
    masks = [(~own, ~(own | wanted)) for own, wanted in demands]
    states = [tuple((wanted.bit_count(), (), ()) for _, wanted in demands)]
    for v in vecs:
        child = _grown(states[-1], masks, v)
        for (d, a, b), (ko, kow), (d2, _, _) in zip(states[-1], masks, child):
            assert d2 in (d - 1, d)
            assert _lowers(a, b, ko, kow, v) == (d2 == d - 1)
        states.append(child)
    return states


def _scratch_deficit(vecs, own: int, wanted: int, total: int) -> int:
    """The rank of the residues of ``reference_verify_linear``'s criterion,
    from a fresh elimination of vecs."""
    start = own.bit_length() - own.bit_count()
    return Gf2Basis(_residues(Gf2Basis(vecs).rows, range(start, own.bit_length()),
                              [c for c in range(total) if wanted >> c & 1])).rank


def test_oracle_node_budget_falls_back_to_uncoded():
    """The budget counts node entries over all lengths, the same on every
    run: D1's search enters 3 nodes, at lengths 1 and 2."""
    assert oracle_min_linear(D1, max_nodes=3) == oracle_min_linear(D1)
    res = oracle_min_linear(D1, max_nodes=2)
    assert not res.exact and res.length == 3
    assert res.note == ("search stopped after 2 nodes (max_nodes) at length 2; "
                        "reporting the uncoded upper bound")
    assert verify_linear(D1, res.code).valid
    # 12 bits under four overlapping senders: 565 336 nodes to the exact answer
    slow = make_instance(4, [[1, 2], [4, 3]], [[1, 4], [2, 3], [1, 2, 4], [1, 3]],
                         q=[3, 3, 3, 3])
    t = time.perf_counter()
    res = oracle_min_linear(slow, max_nodes=500)
    assert not res.exact and res.length == 6 and "500 nodes" in res.note
    assert time.perf_counter() - t < 2


def test_deficit_matches_residue_rank():
    """The incremental deficit, on random spans, is the rank of the
    residues from scratch; one more vector lowers it iff ``_lowers``
    says so, which is the test the oracle applies to a tight receiver."""
    rng = random.Random(59)
    pivots_in_own: set[str] = set()
    for _ in range(600):
        q = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        offsets, total = bit_layout(make_instance(len(q), [], [list(range(1, len(q) + 1))], q))
        r = rng.randrange(len(q))
        own = ((1 << q[r]) - 1) << offsets[r]
        others = [c for c in range(total) if not own >> c & 1]
        wanted = sum(1 << c for c in rng.sample(others, rng.randint(1, len(others))))
        vecs = [rng.randrange(1, 1 << total) for _ in range(rng.randint(0, total))]
        rows = Gf2Basis(vecs).rows
        inside = sum(own >> p & 1 for p in rows)
        pivots_in_own.add("q_r" if inside == q[r] > 1 else str(min(inside, 2)))
        vecs.append(rng.randrange(1, 1 << total))  # the child the tight test judges
        states = _grow([(own, wanted)], vecs)
        for k, state in enumerate(states):
            assert state[0][0] == _scratch_deficit(vecs[:k], own, wanted, total)
    assert pivots_in_own >= {"0", "1", "q_r"}


def test_closed_demands_decode_iff_requests_do():
    """The oracle's closed demands are met exactly by the valid codes,
    and one more symbol lowers a closed deficit by at most one."""
    # receiver 3 wants 2 and receiver 2 wants 1, so 3 must decode both;
    # on a cycle a receiver never has to decode its own message
    chain = make_instance(3, [[1, 2], [2, 3], [3, 2]], [[1, 2, 3]])
    assert _closed_demands(chain, (0, 1, 2)) == [(0b010, 0b101), (0b100, 0b011)]
    rng = random.Random(61)
    for _ in range(150):
        inst = rand_multi(rng, n_max=5) if rng.random() < 0.5 else rand_single(rng, 4, q_max=2)
        offsets, total = bit_layout(inst)
        demands = _closed_demands(inst, offsets)
        code = rand_code(rng, inst, max_len=7)
        vecs = symbol_vectors(inst, code)
        after = _grow(demands, vecs)[-1]
        assert [d for d, _, _ in after] == [_scratch_deficit(vecs, own, wanted, total)
                                            for own, wanted in demands]
        assert verify_linear(inst, code).valid == (not any(d for d, _, _ in after))


def _rand_weighted(rng, multi: bool):
    """2-4 messages of 1-2 bits, at most 6 bits in all, under one sender
    or a random sender cover."""
    while True:
        n = rng.randint(2, 4)
        q = [rng.randint(1, 2) for _ in range(n)]
        if sum(q) <= 6:
            break
    senders = rand_senders(rng, n) if multi else [list(range(1, n + 1))]
    return make_instance(n, rand_arcs(rng, n, rng.uniform(0.15, 0.55)), senders, q)


def _rand_wide(rng):
    """9-11 bits of 1-2 bit messages under senders of at most 2 messages,
    sparse enough that the reference search ends in well under a second."""
    while True:
        n = rng.randint(6, 9)
        q = [rng.randint(1, 2) for _ in range(n)]
        if 9 <= sum(q) <= 11:
            return make_instance(n, rand_arcs(rng, n, rng.uniform(0.08, 0.2)),
                                 rand_senders(rng, n, size_max=2), q)


def _oracle_families(rng):
    for _ in range(60):
        yield rand_multi(rng, n_max=6)
    for _ in range(60):
        yield rand_single(rng, n_max=5)
    for k in range(80):
        yield _rand_weighted(rng, multi=k % 2 == 1)
    yield make_instance(3, [], [[1, 2], [3]])
    # the shapes of the oracle-small benchmark pool
    for k in range(60):
        n = rng.randint(5, 6) if k % 3 else rng.randint(4, 5)
        senders = rand_senders(rng, n, size_max=3) if k % 3 else [list(range(1, n + 1))]
        yield make_instance(n, rand_arcs(rng, n, rng.uniform(0.15, 0.55)), senders)
    for _ in range(20):
        yield _rand_wide(rng)


def test_oracle_matches_reference_search():
    """Same length, code, exactness and note as the unmemoized search,
    with and without a length cap that forces the uncoded fallback."""
    rng = random.Random(67)
    fallbacks = 0
    for inst in _oracle_families(rng):
        res = oracle_min_linear(inst)
        assert res == reference_oracle_min_linear(inst)
        for cap in {0, max(res.length - 1, 0)}:
            capped = oracle_min_linear(inst, max_len=cap)
            assert capped == reference_oracle_min_linear(inst, max_len=cap)
            fallbacks += not capped.exact
    assert fallbacks > 150

