import copy
import dataclasses
import functools
import random
import struct
import tempfile
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbl import codeshares
from flbl import labelfile as LF
from flbl.bits import BitReader, BitWriter, pack_fields, split_fields
from flbl.build import build_scheme, to_label_file
from flbl.cli import _run_query, main
from flbl.graph import Graph, UnionFind
from flbl.labels_rand import _bits
from flbl.labels_simple import LevelSection, SchemeMeta, SegmentList, SimpleEdgeLabel
from flbl.labels_sqrt import (BlockRecord, RevealEntry, SqrtEdgeLabel, SqrtLevelSection,
                              near_blocks)
from support import (PeekReader, oracle_classes, reference_decode_simple_edge,
                     reference_decode_sqrt_edge, section_starts, share_to_bytes,
                     simple_segment_spans, sqrt_row_spans)
from test_acceptance import random_regular3, tree_plus_chords
from test_golden import CASES, build_case


def random_connected(rng, n, p):
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v))
        uf = UnionFind(n)
        for u, v in edges:
            uf.union(u, v)
        if len(uf.groups()) == 1:
            return Graph(n, tuple(edges))


def test_bitwriter_round_trip():
    rng = random.Random(1)
    fields = [(rng.getrandbits(w), w) for w in rng.choices(range(1, 64), k=200)]
    w = BitWriter()
    for v, width in fields:
        w.write(v, width)
    r = BitReader(w.getvalue())
    for v, width in fields:
        assert r.read(v.bit_length() and width or width) == v


def test_bitwriter_rejects_overflow():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write(4, 2)


# widths around 61 bits, the 64-bit word and long sketch fields
WIDTHS = st.one_of(st.sampled_from([0, 1, 61, 64, 65, 1001]),
                   st.integers(0, 70), st.integers(1000, 1300))


@st.composite
def fields(draw):
    width = draw(WIDTHS)
    return draw(st.integers(0, (1 << width) - 1)), width


OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), fields()),
    st.tuples(st.just("framing"), fields()),
    st.tuples(st.just("fields"), st.lists(fields(), max_size=200)),
), max_size=25)


@settings(deadline=None, max_examples=150)
@given(OPS, st.data())
def test_codec_mixed_round_trip(ops, data):
    w = BitWriter()
    flat = []
    payload = framing = 0
    for kind, arg in ops:
        group = arg if kind == "fields" else [arg]
        if kind == "write":
            w.write(*arg)
        elif kind == "framing":
            w.write_framing(*arg)
        else:
            w.write_fields(arg)
        flat += group
        width = sum(wd for _, wd in group)
        if kind == "framing":
            framing += width
        else:
            payload += width
    assert (w.payload_bits, w.framing_bits) == (payload, framing)
    raw = w.getvalue()
    assert len(raw) == (payload + framing + 7) // 8
    # read back in a grouping of its own, with both read and read_fields
    r = BitReader(raw)
    got = []
    i = 0
    while i < len(flat):
        left = len(flat) - i
        k = data.draw(st.one_of(st.just(left), st.integers(1, left)))
        if k == 1 and data.draw(st.booleans()):
            got.append(r.read(flat[i][1]))
        else:
            got += r.read_fields([wd for _, wd in flat[i:i + k]])
        i += k
    assert got == [v for v, _ in flat]
    assert r.pos == payload + framing
    spare = len(raw) * 8 - r.pos
    with pytest.raises(ValueError):
        r.read(spare + 1)
    with pytest.raises(ValueError):
        r.read_fields([spare, 1])
    assert r.pos == payload + framing


@settings(deadline=None)
@given(st.lists(fields(), max_size=20), st.lists(fields(), max_size=20), WIDTHS,
       st.integers(0, 1 << 70), st.booleans())
def test_write_fields_rejects_oversized_value(before, prefix, width, extra, negative):
    bad = -1 - extra if negative else (1 << width) + extra
    w = BitWriter()
    w.write_fields(before)
    raw = w.getvalue()
    with pytest.raises(ValueError):
        # a filler long enough that the writer flushes bytes before the bad field
        w.write_fields(prefix + [(1, 1000)] * 70 + [(bad, width), (1, 1)])
    with pytest.raises(ValueError):
        w.write(bad, width)
    with pytest.raises(ValueError):
        pack_fields(prefix + [(bad, width), (1, 1)])
    # a rejected group leaves nothing behind
    assert w.getvalue() == raw
    assert w.payload_bits == sum(wd for _, wd in before)
    w.write(1, 1)
    r = BitReader(w.getvalue())
    assert r.read_fields([wd for _, wd in before] + [1]) == [v for v, _ in before] + [1]


@settings(deadline=None, max_examples=150)
@given(st.lists(fields(), max_size=20), st.lists(fields(), max_size=150))
def test_packed_group_writes_same_bits(lead, group):
    value, width = pack_fields(group)
    assert width == sum(wd for _, wd in group)
    whole, packed = BitWriter(), BitWriter()
    for w in (whole, packed):
        w.write_fields(lead)
    whole.write_fields(group)
    packed.write_fields([(value, width)])
    assert packed.getvalue() == whole.getvalue()
    assert packed.payload_bits == whole.payload_bits


def test_long_groups_round_trip():
    # groups far longer than one reader span or one writer chunk
    rng = random.Random(3)
    for widths in ([rng.choice((0, 1, 20, 61, 64, 65)) for _ in range(700)],
                   [rng.randrange(1000, 1300) for _ in range(40)]):
        group = [(rng.getrandbits(wd), wd) for wd in widths]
        w = BitWriter()
        w.write(1, 3)
        w.write_fields(group)
        r = BitReader(w.getvalue())
        assert r.read(3) == 1
        assert r.read_fields(widths) == [v for v, _ in group]


def test_reader_past_end_is_value_error():
    r = BitReader(b"\xff")
    assert r.read_fields([3, 5]) == [7, 31]
    with pytest.raises(ValueError):
        r.read(1)
    assert BitReader(b"").read(0) == 0
    with pytest.raises(ValueError):
        BitReader(b"\x01\x02").read_fields([8, 8, 1])


@settings(deadline=None, max_examples=150)
@given(st.lists(fields(), max_size=80), st.integers(0, 7), st.data())
def test_skip_then_read_matches_one_read(group, lead, data):
    w = BitWriter()
    w.write(0, lead)
    w.write_fields(group)
    raw = w.getvalue()
    widths = [wd for _, wd in group]
    whole = PeekReader(raw)
    whole.skip(lead)
    values = whole.read_fields(widths)
    k = data.draw(st.integers(0, len(group)))
    r = PeekReader(raw)
    assert r.skip(lead) == 0
    assert r.skip(sum(widths[:k])) == lead
    assert r.read_fields(widths[k:]) == values[k:]
    # a skip past the payload raises and moves nothing
    spare = len(raw) * 8 - r.pos
    with pytest.raises(ValueError):
        r.skip(spare + 1)
    assert r.pos == lead + sum(widths)
    assert r.skip(spare) == lead + sum(widths)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_split_fields_matches_read_fields(data):
    # widths on both sides of 57 and 64 bits and counts across the
    # 64-field chunk, under random bits above the run; the reference
    # reads the same bits back with read_fields
    width = data.draw(st.one_of(st.integers(1, 80), st.sampled_from([56, 57, 58, 64])))
    count = data.draw(st.integers(0, 150))
    nbits = count * width + data.draw(st.integers(0, 70))
    value = data.draw(st.integers(0, (1 << nbits) - 1))
    want = BitReader(value.to_bytes((nbits + 7) // 8, "little")).read_fields((width,) * count)
    assert split_fields(value, width, count) == want


def test_split_fields_all_ones_at_chunk_edges():
    # every bit set, one bit to spare above the run: a field that took a
    # bit of its neighbour, or a chunk that lost its last field, reads wrong
    for width in (1, 56, 57, 58, 63, 64, 65, 80):
        for count in (0, 1, 63, 64, 65, 128, 129):
            value = (1 << count * width + 1) - 1
            assert split_fields(value, width, count) == [(1 << width) - 1] * count, (width, count)


def test_payload_vs_framing_accounting():
    w = BitWriter()
    w.write(5, 3)
    w.write_framing(1, 1)
    assert w.payload_bits == 3
    assert w.framing_bits == 1
    assert w.payload_bits + w.framing_bits == 4


@pytest.mark.parametrize("scheme", [1, 2, 3, 4])
def test_file_round_trip_identity(tmp_path, scheme):
    rng = random.Random(scheme)
    if scheme == 4:
        n = 24
        g = random_connected(rng, n, 0.6)
        f = 2 * _bits(n) ** 2
        if g.m < f:
            pytest.skip("not enough edges for the short regime")
    else:
        g = random_connected(rng, 10, 0.45)
        f = 2
    res = build_scheme(g, scheme, f, seed=7)
    lf = to_label_file(res)
    path = tmp_path / "labels.flbl"
    LF.write_label_file(str(path), lf)
    lf2 = LF.read_label_file(str(path))
    assert lf2.scheme == scheme
    assert lf2.meta.n == res.meta.n
    assert lf2.meta.f == res.meta.f
    assert lf2.meta.phi == res.meta.phi
    assert lf2.meta.comp_roots == res.meta.comp_roots
    assert lf2.vertex_bits == lf.vertex_bits
    assert lf2.edge_bits == lf.edge_bits
    for v in range(g.n):
        assert LF.decode_vertex_label(lf2, v) == res.vertex_labels[v]
    for eid in range(g.m):
        assert LF.decode_edge(lf2, eid) == res.edge_labels[eid]


def test_reported_bits_exclude_padding():
    g = random_connected(random.Random(9), 8, 0.5)
    res = build_scheme(g, 1, 1)
    lf = to_label_file(res)
    for bits, payload in zip(lf.edge_bits, lf.edge_payloads):
        assert bits <= len(payload) * 8
        assert len(payload) * 8 - bits < 8 + 1  # one framing bit + padding


def test_share_bit_size_invariant(sqrt_withheld):
    # an in-label share row is an index of the header's width, the bit
    # length of the largest lge, and two components of the per-file
    # field's prime, the first prime above 2^(2·pos + par)
    res, lf = sqrt_withheld
    meta, wd = res.meta, lf.widths
    lges = [rec.lge for lab in res.edge_labels for sec in lab.sections.values()
            for per in sec.near.values() for rec in per.values()]
    assert meta.share_index_bits == wd.idx == max(lges).bit_length()
    name_bits = 2 * wd.pos + wd.par
    assert wd.names.width == name_bits
    p = meta.field.p
    assert codeshares.is_prime(p) and 1 << name_bits < p
    assert not any(codeshares.is_prime(q) for q in range((1 << name_bits) + 1, p))
    assert wd.share == p.bit_length() == name_bits + 1
    assert wd.present == 2 * (wd.j_max + 1)
    for lab in res.edge_labels:
        for sec in lab.sections.values():
            for ent in sec.reveal:
                for (j, _), sh in ent.shares.items():
                    assert j <= wd.j_max and 1 <= sh.index < 1 << wd.idx
                    assert 0 <= sh.a < p and 0 <= sh.b < p
    # the standalone wire format is the fixed 160-bit triple
    sh = codeshares.CodeShare(1, 2, 3)
    assert len(share_to_bytes(sh)) * 8 == 160


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.flbl"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        LF.read_label_file(str(path))


def _scheme1_file(tmp_path):
    g = random_connected(random.Random(5), 9, 0.5)
    path = tmp_path / "labels.flbl"
    LF.write_label_file(str(path), to_label_file(build_scheme(g, 1, 2)))
    return path


@pytest.mark.parametrize("cut", ["header", "payload", "whole-label", "length"])
def test_truncated_file_rejected(tmp_path, cut):
    path = _scheme1_file(tmp_path)
    raw = path.read_bytes()
    lf = LF.read_label_file(str(path))
    # the last payload, then the 4-byte CRC trailer, end the file
    last = len(lf.edge_payloads[-1]) + 4
    if cut == "length":
        # the last payload claims 4 GiB: rejected without reading it
        at = len(raw) - last - 4
        raw = raw[:at] + b"\xff\xff\xff\xff" + raw[at + 4:]
    keep = {"header": 20, "payload": len(raw) - 5,
            "whole-label": len(raw) - last - 8, "length": len(raw)}[cut]
    path.write_bytes(raw[:keep])
    with pytest.raises(ValueError, match="truncated label file"):
        LF.read_label_file(str(path))


def test_decode_rejects_out_of_range_ids(tmp_path):
    lf = LF.read_label_file(str(_scheme1_file(tmp_path)))
    for eid in (-1, lf.meta.m):
        with pytest.raises(ValueError):
            LF.decode_edge(lf, eid)
    for v in (-1, lf.meta.n):
        with pytest.raises(ValueError):
            LF.decode_vertex_label(lf, v)


@pytest.fixture(scope="module")
def sqrt_withheld():
    """A scheme-2 build with both stored and count-only block records, the
    latter's shares in reveal entries."""
    res = build_case("s2-sparse80-withheld")
    return res, to_label_file(res)


def test_sqrt_decoded_records_equal_built(sqrt_withheld):
    res, lf = sqrt_withheld
    for eid, built in enumerate(res.edge_labels):
        lab = LF.decode_edge(lf, eid)
        assert lab == built and built == lab
        assert repr(lab) == repr(built)


def _set_field(payload: bytes, at: int, width: int, value: int) -> bytes:
    word = int.from_bytes(payload, "little")
    word &= ~(((1 << width) - 1) << at)
    return (word | value << at).to_bytes(len(payload), "little")


def _claim(payload: bytes, at: int, row_bits: int) -> int:
    """The smallest row count from bit `at` that runs past the payload."""
    return (len(payload) * 8 - at) // row_bits + 1


def _payload_spans(lf, keep, count=20):
    """(edge id, payload, (start bit, rows, row width), kind, width of the
    field before the rows) for the first `count` share spans and `count`
    edge spans that `keep` accepts.  Share rows follow their entry's
    presence bitmap, edge rows their count."""
    wd = lf.widths
    seen = {"shares": 0, "edges": 0}
    for eid, payload in enumerate(lf.edge_payloads):
        for kind, *span in sqrt_row_spans(LF.decode_edge(lf, eid), wd):
            width = wd.present if kind == "shares" else wd.m
            if seen[kind] < count and keep(payload, span, kind, width):
                seen[kind] += 1
                yield eid, payload, span, kind, width
    assert seen == {"shares": count, "edges": count}


def _decode_payload(lf, eid, payload):
    payloads = list(lf.edge_payloads)
    payloads[eid] = payload
    return LF.decode_edge(dataclasses.replace(lf, edge_payloads=payloads), eid)


def test_sqrt_payload_cut_in_rows_fails_at_decode(sqrt_withheld):
    _, lf = sqrt_withheld
    # rows that end the payload, so no later field can catch the cut
    def last_rows(payload, span, kind, width):
        at, rows, row_bits = span
        end = at + len(rows) * row_bits
        return end - at > 8 and end > len(payload) * 8 - 8

    for eid, payload, (at, rows, row_bits), _, _ in _payload_spans(lf, last_rows):
        end = at + len(rows) * row_bits
        cut = (end - 1) // 8
        assert at < cut * 8 < end
        with pytest.raises(ValueError):
            _decode_payload(lf, eid, payload[:cut])


def _claim_field(kind, cnt):
    """The field value that claims `cnt` rows: a bitmap with `cnt` bits set
    before share rows, the count itself before edge rows."""
    return (1 << cnt) - 1 if kind == "shares" else cnt


def test_sqrt_row_count_past_payload_fails_at_decode(sqrt_withheld):
    _, lf = sqrt_withheld
    # a bitmap or count claiming rows past the payload fits its field only
    # for spans near the payload's end
    def fits(payload, span, kind, width):
        at, _, row_bits = span
        return _claim_field(kind, _claim(payload, at, row_bits)) < 1 << width

    for eid, payload, (at, rows, row_bits), kind, width in _payload_spans(lf, fits):
        claim = _claim_field(kind, _claim(payload, at, row_bits))
        bad = _set_field(payload, at - width, width, claim)
        with pytest.raises(ValueError):
            _decode_payload(lf, eid, bad)
        # the field located is the bitmap or count of these rows
        r = PeekReader(payload)
        r.skip(at - width)
        got = r.read(width)
        if kind == "shares":
            keys = {(bit >> 1, bit & 1) for bit in range(width) if got >> bit & 1}
            assert keys == set(rows)
        else:
            assert got == len(rows)


def _records(lab):
    """The reveal entries and block records of a scheme-2 label, in order."""
    for sec in lab.sections.values():
        yield from sec.reveal
        for per in sec.near.values():
            yield from per.values()


def _shared_records(labels):
    """The reveal entries and block records that more than one scheme-2
    label holds."""
    holders = {}
    for i, lab in enumerate(labels):
        for rec in _records(lab):
            holders.setdefault(id(rec), (rec, set()))[1].add(i)
    return [rec for rec, held in holders.values() if len(held) > 1]


@pytest.mark.parametrize("case", ["s2-sparse40", "s2-sparse80-withheld"])
def test_sqrt_shared_records_encode_like_copies(case):
    # each label deep-copied and encoded on its own shares no record with
    # any other label, so every record is packed afresh
    res = build_case(case)
    shared = _shared_records(res.edge_labels)
    assert any(isinstance(rec, RevealEntry) for rec in shared)
    assert any(isinstance(rec, BlockRecord) for rec in shared)
    lf = to_label_file(res)
    for eid, lab in enumerate(res.edge_labels):
        alone = LF.make_label_file(res.scheme, res.meta, [], [copy.deepcopy(lab)])
        assert alone.edge_payloads == [lf.edge_payloads[eid]], eid
        assert alone.edge_bits == [lf.edge_bits[eid]], eid


@pytest.mark.parametrize("where", ["share", "lge", "name"])
def test_make_label_file_rejects_oversized_shared_field(where):
    # one field that does not fit its width, in a record several labels hold
    res = build_case("s2-sparse80-withheld")
    shared = _shared_records(res.edge_labels)
    if where == "share":
        ent = next(rec for rec in shared if isinstance(rec, RevealEntry) and rec.shares)
        key = next(iter(ent.shares))
        ent.shares[key] = dataclasses.replace(ent.shares[key], a=1 << 61)
    elif where == "lge":  # negative
        next(rec for rec in shared if isinstance(rec, BlockRecord)).lge = -1
    else:
        rec = next(rec for rec in shared if isinstance(rec, BlockRecord) and rec.edges)
        a, b, _ = rec.edges[0]
        rec.edges[0] = (a, b, 1 << res.meta.par_bits)
    with pytest.raises(ValueError, match="does not fit"):
        to_label_file(res)


def _sqrt_case(name):
    """(build, label file, repr of every edge label each decoded from a
    fresh copy of the file) of a golden scheme-2 case, or of
    "s2-chords150": a seeded 150-vertex tree plus 4n chords at f = 16,
    the benchmark's scheme-2 graph family."""
    if name == "s2-chords150":
        res = build_scheme(tree_plus_chords(random.Random(1), 150, 600), 2, 16)
    else:
        res = build_case(name)
    lf = to_label_file(res)
    fresh = [repr(LF.decode_edge(dataclasses.replace(lf), eid)) for eid in range(lf.meta.m)]
    return res, lf, fresh


@pytest.fixture(scope="module")
def sqrt_case():
    """`_sqrt_case`, built once per case in this module; read-only."""
    return functools.cache(_sqrt_case)


@pytest.mark.parametrize("case", ["s2-sparse40", "s2-sparse80-withheld", "s2-multi30",
                                  "s2-chords150"])
def test_sqrt_decoded_records_shared_per_file(sqrt_case, case):
    # every edge of one file decoded forward, in reverse and shuffled gives
    # the labels that a fresh file per label gives; the records the build
    # shares come back shared, and each distinct record is one object,
    # held once in the file's tables
    res, lf, fresh = sqrt_case(case)
    m = lf.meta.m
    shared = {id(rec) for rec in _shared_records(res.edge_labels)}
    assert shared
    for order in (range(m), range(m - 1, -1, -1), random.Random(m).sample(range(m), m)):
        one = dataclasses.replace(lf)
        labs = {eid: LF.decode_edge(one, eid) for eid in order}
        assert [repr(labs[eid]) for eid in range(m)] == fresh
        got = {}
        for eid, built in enumerate(res.edge_labels):
            for rec, dec in zip(_records(built), _records(labs[eid]), strict=True):
                got.setdefault(id(rec), set()).add(id(dec))
        assert all(len(got[i]) == 1 for i in shared)
        objs = {id(dec): dec for lab in labs.values() for dec in _records(lab)}
        assert len({(type(dec), repr(dec)) for dec in objs.values()}) == len(objs)
        assert len(one.widths.entries) + len(one.widths.blocks) == len(objs)


@pytest.mark.parametrize("kind", ["shares", "edges"])
def test_sqrt_label_cut_in_rows_leaves_no_record_behind(sqrt_case, kind):
    # A label cut inside a run of `kind` rows, after a record with rows
    # that other labels hold, raises; the records it read before the cut
    # do not enter the file's tables half built, so the labels that share
    # them still decode as from a fresh file, and the cut label raises
    # again once its records are in the tables.
    res, lf, fresh = sqrt_case("s2-sparse80-withheld")
    wd = lf.widths
    holders = {}  # id of a record's rows -> the labels holding the record
    for eid, lab in enumerate(res.edge_labels):
        for _, _, rows, _ in sqrt_row_spans(lab, wd):
            if rows:
                holders.setdefault(id(rows), set()).add(eid)

    def cut_points():
        for eid, lab in enumerate(res.edge_labels):
            sharers = set()
            for k, at, rows, row_bits in sqrt_row_spans(lab, wd):
                cut = at // 8 + 1
                if k == kind and sharers and cut * 8 < at + len(rows) * row_bits:
                    yield eid, cut, sharers
                if rows:
                    sharers |= holders[id(rows)] - {eid}

    eid, cut, sharers = next(cut_points())
    payloads = list(lf.edge_payloads)
    payloads[eid] = payloads[eid][:cut]
    bad = dataclasses.replace(lf, edge_payloads=payloads)
    with pytest.raises(ValueError):
        LF.decode_edge(bad, eid)
    for other in sorted(sharers):
        assert repr(LF.decode_edge(bad, other)) == fresh[other], other
    with pytest.raises(ValueError):
        LF.decode_edge(bad, eid)


def _segments(lab):
    """The segment lists of a scheme-1 label, in order."""
    for sec in lab.sections.values():
        yield from sec.segments


def _shared_segments(labels):
    """The segment lists that more than one scheme-1 label holds."""
    holders = {}
    for i, lab in enumerate(labels):
        for seg in _segments(lab):
            holders.setdefault(id(seg), (seg, set()))[1].add(i)
    return [seg for seg, held in holders.values() if len(held) > 1]


def _simple_case(name):
    """(graph, build, label file, repr of every edge label each decoded
    from a fresh copy of the file) of a golden scheme-1 case, or of
    "s1-cubic400-f1024": a seeded 400-vertex cubic graph at f = 1024, the
    benchmark's scheme-1 graph family and budget."""
    if name == "s1-cubic400-f1024":
        g = random_regular3(400, 1)
        res = build_scheme(g, 1, 1024)
    else:
        g = CASES[name][0]()
        res = build_case(name)
    lf = to_label_file(res)
    fresh = [repr(LF.decode_edge(dataclasses.replace(lf), eid)) for eid in range(lf.meta.m)]
    return g, res, lf, fresh


@pytest.fixture(scope="module")
def simple_case():
    """`_simple_case`, built once per case in this module; read-only."""
    return functools.cache(_simple_case)


@pytest.mark.parametrize("case", ["s1-cubic60", "s1-cubic200-auto", "s1-multi30",
                                  "s1-exact-n14", "s1-cubic400-f1024"])
def test_simple_decoded_lists_shared_per_file(simple_case, case):
    # every edge of one file decoded forward, in reverse and shuffled gives
    # the labels that a fresh file per label gives; the segment lists the
    # build shares come back shared, and each distinct list is one object,
    # held once in the file's table
    g, res, lf, fresh = simple_case(case)
    m = lf.meta.m
    shared = {id(seg) for seg in _shared_segments(res.edge_labels)}
    assert shared
    for order in (range(m), range(m - 1, -1, -1), random.Random(m).sample(range(m), m)):
        one = dataclasses.replace(lf)
        labs = {eid: LF.decode_edge(one, eid) for eid in order}
        assert [repr(labs[eid]) for eid in range(m)] == fresh
        got = {}
        for eid, built in enumerate(res.edge_labels):
            for seg, dec in zip(_segments(built), _segments(labs[eid]), strict=True):
                got.setdefault(id(seg), set()).add(id(dec))
        assert all(len(got[i]) == 1 for i in shared)
        objs = {id(dec): dec for lab in labs.values() for dec in _segments(lab)}
        assert len({repr(dec) for dec in objs.values()}) == len(objs)
        assert len(one.widths.segments) == len(objs)
    if case == "s1-multi30":
        # the warm file answers as the oracle does, with no fault and with f
        rng = random.Random(3)
        f = lf.meta.f
        verts = [LF.decode_vertex_label(one, v) for v in range(g.n)]
        for faults in [[]] + [rng.sample(range(m), f) for _ in range(40)]:
            cid, cnt = oracle_classes(g, faults)
            res_q = _run_query(one, faults)
            assert res_q.component_count() == cnt, faults
            for s in range(g.n):
                for t in range(s + 1, g.n):
                    assert res_q.connected(verts[s], verts[t]) == (cid[s] == cid[t])


def test_simple_label_cut_in_names_leaves_no_list_behind(simple_case):
    # A label cut inside a name run, after segment lists with names that
    # other labels hold, raises; the lists it read before the cut do not
    # enter the file's table half built, so the labels that share them
    # still decode as from a fresh file, and the cut label raises again
    # once its lists are in the table.
    _, res, lf, fresh = simple_case("s1-cubic60")
    wd = lf.widths
    holders = {}  # id of a list -> the labels holding it
    for eid, lab in enumerate(res.edge_labels):
        for seg in _segments(lab):
            holders.setdefault(id(seg), set()).add(eid)

    def cut_points():
        for eid, lab in enumerate(res.edge_labels):
            sharers = set()
            for at, seg in simple_segment_spans(lab, wd):
                start = at + 1 + wd.cap
                cut = start // 8 + 1
                if sharers and cut * 8 < start + len(seg.entries) * wd.names.width:
                    yield eid, cut, sharers
                if seg.entries:
                    sharers |= holders[id(seg)] - {eid}

    eid, cut, sharers = next(cut_points())
    payloads = list(lf.edge_payloads)
    payloads[eid] = payloads[eid][:cut]
    bad = dataclasses.replace(lf, edge_payloads=payloads)
    with pytest.raises(ValueError, match="runs past"):
        LF.decode_edge(bad, eid)
    for other in sorted(sharers):
        assert repr(LF.decode_edge(bad, other)) == fresh[other], other
    assert all(seg.entries is not None for seg in bad.widths.segments.values())
    with pytest.raises(ValueError, match="runs past"):
        LF.decode_edge(bad, eid)


# -- the one-pass decoders against the two-pass references ------------------
#
# `support.reference_decode_simple_edge` and `reference_decode_sqrt_edge`
# read a label with one reader call per head and per key, and run
# `near_blocks` for every tree-edge section.  The decoders read the same
# bits from a local cursor.  Both must give the same labels, share the
# same records, fill the same tables and fail on the same cut payloads.

REFERENCE = {1: reference_decode_simple_edge, 2: reference_decode_sqrt_edge}
DIFF_CASES = sorted(name for name in CASES if name[:2] in ("s1", "s2")) + [
    "s1-chords150", "s2-chords150"]


def _diff_file(name):
    """The label file of a golden scheme-1/2 case, or of "s<k>-chords150":
    a seeded 150-vertex tree plus 4n chords at f = 16 under scheme k."""
    if name.endswith("-chords150"):
        g = tree_plus_chords(random.Random(1), 150, 600)
        return to_label_file(build_scheme(g, int(name[1]), 16))
    return to_label_file(build_case(name))


@pytest.fixture(scope="module")
def diff_file():
    """`_diff_file`, built once per case in this module; read-only."""
    return functools.cache(_diff_file)


def _reference_labels(lf):
    """Every edge label of a fresh copy of `lf` decoded in order by the
    reference, which reads each to its stored length, and that copy."""
    ref = dataclasses.replace(lf)
    out = []
    for payload, bits in zip(lf.edge_payloads, lf.edge_bits):
        r = PeekReader(payload)
        out.append(REFERENCE[lf.scheme](r, ref.widths, lf.meta))
        assert r.pos == bits + 1
    return out, ref


def _label_records(lab):
    """The shared records of a scheme-1 or scheme-2 label, in file order."""
    for sec in lab.sections.values():
        yield from getattr(sec, "segments", ())
        yield from getattr(sec, "reveal", ())
        for per in getattr(sec, "near", {}).values():
            yield from per.values()


def _sharing(labels):
    """Per record of the labels, in order, the place of the first record
    that is the same object."""
    first = {}
    return [first.setdefault(id(rec), (eid, k)) for eid, lab in enumerate(labels)
            for k, rec in enumerate(_label_records(lab))]


def _tables(wd):
    return {name: getattr(wd, name) for name in ("segments", "entries", "blocks")}


def _sizes(wd):
    """The number of records in each table; a table only gains records."""
    return [len(table) for table in _tables(wd).values()]


@pytest.mark.parametrize("case", DIFF_CASES)
def test_decoder_equals_two_pass_reference(diff_file, case):
    # every edge of one file decoded forward, in reverse and shuffled gives
    # the reference's labels, with the same records shared and the same
    # keys in the file's tables
    lf = diff_file(case)
    m = lf.meta.m
    want, ref = _reference_labels(lf)
    want_repr, want_sharing = [repr(lab) for lab in want], _sharing(want)
    assert len(set(want_sharing)) < len(want_sharing)
    for order in (range(m), range(m - 1, -1, -1), random.Random(m).sample(range(m), m)):
        one = dataclasses.replace(lf)
        labs = {eid: LF.decode_edge(one, eid) for eid in order}
        got = [labs[eid] for eid in range(m)]
        assert [repr(lab) for lab in got] == want_repr
        assert _sharing(got) == want_sharing
        for name, table in _tables(one.widths).items():
            assert table.keys() == getattr(ref.widths, name).keys(), name
        if lf.scheme == 2:
            assert len(one.widths.near) == len({
                (sec.w_real, sec.unit_down, sec.unit_up)
                for lab in got if lab.is_tree for sec in lab.sections.values()})


def _kinds(sec):
    """The kinds of record a section holds: scheme-1 lists empty, with
    names and truncated; scheme-2 reveal entries with and without share
    rows, block records with and without a list."""
    out = {"empty list" if not seg.entries else "truncated" if seg.truncated else "names"
           for seg in getattr(sec, "segments", ())}
    out |= {"shares" if ent.shares else "entry" for ent in getattr(sec, "reveal", ())}
    out |= {"no list" if rec.edges is None else "block list"
            for per in getattr(sec, "near", {}).values() for rec in per.values()}
    return out


def _cut(payload, bits):
    """The first `bits` bits of a payload, the rest of its last byte 0."""
    data = bytearray(payload[:(bits + 7) >> 3])
    if bits & 7:
        data[-1] &= (1 << (bits & 7)) - 1
    return bytes(data)


@pytest.mark.parametrize("case", DIFF_CASES)
def test_decoder_cut_fails_like_two_pass_reference(diff_file, case):
    # A label cut at every bit of its head and of its last section fails
    # with the reference's "runs past" error and adds nothing to a fresh
    # file's tables, and to a warm file's; per kind of label (tree and
    # non-tree edge), of those whose last section holds the most kinds of
    # record, the one whose last section is shortest.
    lf = diff_file(case)
    want, _ = _reference_labels(lf)
    warm = dataclasses.replace(lf)
    for eid in range(lf.meta.m):
        LF.decode_edge(warm, eid)
    before = {name: dict(table) for name, table in _tables(warm.widths).items()}
    sizes = _sizes(warm.widths)
    picked = {}
    for eid, lab in enumerate(want):
        starts = list(section_starts(lab, lf.widths))
        if starts:
            size = lf.edge_bits[eid] + 1 - starts[-1]
            kinds = len(_kinds(lab.sections[max(lab.sections)]))
            last = (kinds, -size, eid, starts[0], starts[-1])
            picked[lab.is_tree] = max(picked.get(lab.is_tree, last), last)
    assert picked
    decoders = ((LF.decode_simple_edge, LF.decode_sqrt_edge)[lf.scheme - 1],
                REFERENCE[lf.scheme])
    fresh = dataclasses.replace(lf)   # its tables stay empty
    for *_, eid, first, last in picked.values():
        end = lf.edge_bits[eid] + 1
        for bits in [*range(first), *range(last, end)]:
            data = _cut(lf.edge_payloads[eid], bits)
            for decode in decoders:
                for one in (fresh, warm):
                    r = PeekReader(data)
                    r.nbits = bits
                    with pytest.raises(ValueError, match="runs past"):
                        decode(r, one.widths, lf.meta)
            assert _sizes(warm.widths) == sizes and not any(_sizes(fresh.widths))
        # uncut, the label decodes as the reference's
        assert repr(LF.decode_edge(dataclasses.replace(lf), eid)) == repr(want[eid])
    for name, table in _tables(warm.widths).items():
        assert all(table[key] is rec for key, rec in before[name].items())


def test_peek_reads_without_moving():
    r = PeekReader(b"\xa5\x1f")
    r.skip(3)
    assert r.peek(9) == 0b111110100 == r.read(9)
    # bits past the payload read as 0; only skip and read check the bounds
    assert r.peek(12) == 0b0001
    with pytest.raises(ValueError):
        r.skip(5)
    assert r.pos == 12


# -- edge names read as one packed field --------------------------------------
#
# The decoders read each edge name as the one field of width 2·pos + par
# that the encoder writes, and map it through the per-file table
# `Widths.names`.  The oracle below is the three-field split they used
# before: each name read as (pos, pos, par) fields, and the optional
# positions of a section read one flag and one value at a time.


def _split_names(vals):
    return list(zip(vals[0::3], vals[1::3], vals[2::3]))


def _split_opts(r, bits):
    av0, bv0, av1, bv1 = (r.read(bits) if r.read(1) else None for _ in range(4))
    return (av0, av1), (bv0, bv1)


def _oracle_simple(data, wd, meta):
    r = BitReader(data)
    is_tree, pos_u, pos_v, par = r.read_fields((1, wd.pos, wd.pos, wd.par))
    lab = SimpleEdgeLabel(pos_u=pos_u, pos_v=pos_v, par=par, is_tree=bool(is_tree))
    if not is_tree:
        return lab
    lab.level, lab.pos_down, lab.pos_up = r.read_fields((wd.h, wd.pos, wd.pos))
    name_w = (wd.pos, wd.pos, wd.par)
    for ell in range(lab.level, meta.h + 1):
        root, end, last = r.read_fields((wd.pos,) * 3)
        after_v, before_v = _split_opts(r, wd.pos)
        segs = []
        for _ in range(3):
            truncated, cnt = r.read_fields((1, wd.cap))
            segs.append(SegmentList(_split_names(r.read_fields(name_w * cnt)),
                                    bool(truncated)))
        lab.sections[ell] = LevelSection(root, end, last, after_v, before_v, tuple(segs))
    return lab


def _oracle_sqrt(data, wd, meta):
    r = BitReader(data)
    is_tree, pos_u, pos_v, par, level = r.read_fields((1, wd.pos, wd.pos, wd.par, wd.h))
    lab = SqrtEdgeLabel(pos_u=pos_u, pos_v=pos_v, par=par, is_tree=bool(is_tree),
                        level=level)
    if is_tree:
        lab.pos_down, lab.pos_up = r.read_fields((wd.pos, wd.pos))
    name_w = (wd.pos, wd.pos, wd.par)
    for ell in range(level, meta.h + 1):
        root, end, last, w_real, nrev = r.read_fields((wd.pos,) * 3 + (wd.unit, wd.m))
        reveal = []
        for _ in range(nrev):
            a, b, k, ua, ub, present = r.read_fields(name_w + (wd.unit, wd.unit, wd.present))
            keys = [(bit >> 1, bit & 1) for bit in range(wd.present) if present >> bit & 1]
            rows = iter(r.read_fields((wd.idx, wd.share, wd.share) * len(keys)))
            shares = {key: codeshares.CodeShare(i, sa, sb)
                      for key, i, sa, sb in zip(keys, rows, rows, rows)}
            reveal.append(RevealEntry((a, b, k), ua, ub, shares))
        sec = SqrtLevelSection(root, end, last, w_real, reveal)
        if is_tree:
            sec.after_v, sec.before_v = _split_opts(r, wd.pos)
            sec.unit_down, sec.unit_up = r.read_fields((wd.unit, wd.unit))
            for j, blocks in near_blocks(sec, wd.j_max):
                per = sec.near[j] = {}
                for blk in blocks:
                    lge, has_edges = r.read_fields((wd.m, 1))
                    edges = None
                    if has_edges:
                        edges = _split_names(r.read_fields(name_w * r.read(wd.m)))
                    per[blk] = BlockRecord(lge, edges)
        lab.sections[ell] = sec
    return lab


def _below(width):
    return st.integers(0, (1 << width) - 1)


@st.composite
def _metas(draw):
    aux_n = draw(st.integers(1, 40))
    return SchemeMeta(n=aux_n, aux_n=aux_n, m=draw(st.integers(1, 60)),
                      f=draw(st.integers(1, 8)),
                      phi=draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1)])),
                      h=draw(st.integers(1, 3)), comp_roots=[0],
                      par_bits=draw(st.integers(0, 3)),
                      share_index_bits=draw(st.integers(1, 8)))


def _opts(draw, wd, pattern):
    """(after_v, before_v) with position i present when bit i of pattern is set."""
    av0, bv0, av1, bv1 = (draw(_below(wd.pos)) if pattern >> i & 1 else None
                          for i in range(4))
    return (av0, av1), (bv0, bv1)


def _name_lists(draw, wd, max_size, min_size=0):
    # names drawn at random match no edge of any graph, and repeat often
    # enough that most lists mix table misses and hits
    pool = draw(st.lists(st.tuples(_below(wd.pos), _below(wd.pos), _below(wd.par)),
                         min_size=1, max_size=6))
    return st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size)


@st.composite
def _simple_labels(draw, meta, wd, pattern, tree):
    lab = SimpleEdgeLabel(pos_u=draw(_below(wd.pos)), pos_v=draw(_below(wd.pos)),
                          par=draw(_below(wd.par)), is_tree=tree)
    if not tree:
        return lab
    lab.level = draw(st.integers(0, meta.h))
    lab.pos_down, lab.pos_up = draw(_below(wd.pos)), draw(_below(wd.pos))
    # lists a build can write: a truncated one holds exactly cap names, any
    # other at most cap (the decoder rejects every other head)
    names = _name_lists(draw, wd, min(wd.list_cap, 5))
    full = _name_lists(draw, wd, wd.list_cap, wd.list_cap)
    for ell in range(lab.level, meta.h + 1):
        after_v, before_v = _opts(draw, wd, pattern)
        segs = tuple(SegmentList(draw(full), True) if draw(st.booleans())
                     else SegmentList(draw(names), False) for _ in range(3))
        lab.sections[ell] = LevelSection(draw(_below(wd.pos)), draw(_below(wd.pos)),
                                         draw(_below(wd.pos)), after_v, before_v, segs)
    return lab


def _share_dicts(meta, wd, max_size=None):
    """(scale, side) -> share dicts: scales up to j_max, indices of 1 up to
    the header's width and components in the file's field, 0 and p - 1
    included."""
    p = meta.field.p
    value = st.integers(0, p - 1) | st.sampled_from([0, p - 1])
    index = st.integers(1, (1 << wd.idx) - 1) | st.sampled_from([1, (1 << wd.idx) - 1])
    share = st.builds(codeshares.CodeShare, index, value, value)
    keys = st.tuples(st.integers(0, wd.j_max), st.integers(0, 1))
    return st.dictionaries(keys, share, max_size=max_size)


@st.composite
def _sqrt_labels(draw, meta, wd, pattern, tree):
    lab = SqrtEdgeLabel(pos_u=draw(_below(wd.pos)), pos_v=draw(_below(wd.pos)),
                        par=draw(_below(wd.par)), is_tree=tree,
                        level=draw(st.integers(0, meta.h)))
    if tree:
        lab.pos_down, lab.pos_up = draw(_below(wd.pos)), draw(_below(wd.pos))
    names = _name_lists(draw, wd, min((1 << wd.m) - 1, 4))
    for ell in range(lab.level, meta.h + 1):
        reveal = [RevealEntry(nm, draw(_below(wd.unit)), draw(_below(wd.unit)),
                              draw(_share_dicts(meta, wd, 3)))
                  for nm in draw(names)]
        sec = SqrtLevelSection(draw(_below(wd.pos)), draw(_below(wd.pos)),
                               draw(_below(wd.pos)), draw(_below(wd.unit)), reveal)
        if tree:
            sec.after_v, sec.before_v = _opts(draw, wd, pattern)
            sec.unit_down, sec.unit_up = draw(_below(wd.unit)), draw(_below(wd.unit))
            for j, blocks in near_blocks(sec, wd.j_max):
                sec.near[j] = {blk: BlockRecord(draw(_below(wd.m)),
                                                draw(st.none() | names))
                               for blk in blocks}
        lab.sections[ell] = sec
    return lab


def _label_names(lab):
    """Every edge name a scheme-1 or scheme-2 label lists."""
    for sec in lab.sections.values():
        for seg in getattr(sec, "segments", ()):
            yield from seg.entries
        for ent in getattr(sec, "reveal", ()):
            yield ent.name
        for per in getattr(sec, "near", {}).values():
            for rec in per.values():
                yield from rec.edges or ()


@pytest.mark.parametrize("pattern", range(16))
@pytest.mark.parametrize("scheme", [1, 2])
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_packed_names_decode_like_three_field_split(scheme, pattern, data):
    # each of the 16 present/absent patterns of the optional positions, on
    # random labels: names with par up to 3 bits that match no edge of the
    # file, empty lists, and names shared within and across labels
    meta = data.draw(_metas())
    draw_label, decode, oracle = {
        1: (_simple_labels, LF.decode_simple_edge, _oracle_simple),
        2: (_sqrt_labels, LF.decode_sqrt_edge, _oracle_sqrt)}[scheme]
    wd = LF.Widths.of(meta)
    tree = data.draw(st.lists(st.booleans(), max_size=3))
    labels = [data.draw(draw_label(meta, wd, pattern, t)) for t in [True, *tree]]
    lf = LF.make_label_file(scheme, meta, [], labels)
    names = set()
    for lab, payload in zip(labels, lf.edge_payloads):
        want = oracle(payload, LF.Widths.of(meta), meta)
        got = decode(BitReader(payload), wd, meta)
        assert got == want == lab
        assert repr(got) == repr(want)
        names.update(_label_names(lab))
        # the table holds each name read so far, once
        assert sorted(wd.names.values()) == sorted(names)
        # a second read is all table hits and gives the same record
        assert decode(BitReader(payload), wd, meta) == want


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_sqrt_reveal_entries_round_trip(data):
    # every presence pattern of the 2(j_max + 1)-bit bitmap, empty and full
    # among them, written to a file and read back through its header; the
    # entries are shared within and across labels, so each is packed once
    # and its field written into every label that holds it
    meta = data.draw(_metas())
    wd = LF.Widths.of(meta)
    full = (1 << wd.present) - 1
    patterns = st.integers(0, full) | st.sampled_from([0, full])
    value = st.integers(0, meta.field.p - 1) | st.sampled_from([0, meta.field.p - 1])
    index = st.integers(1, (1 << wd.idx) - 1) | st.sampled_from([1, (1 << wd.idx) - 1])
    pool = []
    for _ in range(data.draw(st.integers(1, 4))):
        present = data.draw(patterns)
        shares = {(bit >> 1, bit & 1): codeshares.CodeShare(
            data.draw(index), data.draw(value), data.draw(value))
            for bit in range(wd.present) if present >> bit & 1}
        nm = (data.draw(_below(wd.pos)), data.draw(_below(wd.pos)), data.draw(_below(wd.par)))
        pool.append(RevealEntry(nm, data.draw(_below(wd.unit)), data.draw(_below(wd.unit)),
                                shares))
    labels = []
    for _ in range(data.draw(st.integers(1, 3))):
        lab = SqrtEdgeLabel(pos_u=0, pos_v=1, par=0, is_tree=False, level=meta.h)
        reveal = data.draw(st.lists(st.sampled_from(pool), max_size=min(5, (1 << wd.m) - 1)))
        lab.sections[meta.h] = SqrtLevelSection(0, 0, 0, 0, reveal)
        labels.append(lab)
    meta = dataclasses.replace(meta, m=len(labels), aux_m=meta.width_m)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/entries.flbl"
        LF.write_label_file(path, LF.make_label_file(2, meta, [0] * meta.n, labels))
        lf = LF.read_label_file(path)
    assert lf.meta.share_index_bits == meta.share_index_bits
    assert lf.widths.share == meta.field.p.bit_length()
    for eid, lab in enumerate(labels):
        got = LF.decode_edge(lf, eid)
        assert got == lab == _oracle_sqrt(lf.edge_payloads[eid], lf.widths, lf.meta)


# -- payloads cut inside names and optional positions ----------------------


def _simple_spans(lab, wd, where):
    """([start, end), fields there) of the optional positions or of each
    non-empty segment name list of a decoded scheme-1 tree label."""
    at = 1 + 2 * wd.pos + wd.par + wd.h + 2 * wd.pos
    for sec in lab.sections.values():
        at += 3 * wd.pos
        opts = sum(1 + (wd.pos if v is not None else 0)
                   for v in (*sec.after_v, *sec.before_v))
        if where == "opts":
            yield at, at + opts, (sec.after_v, sec.before_v)
        at += opts
        for seg in sec.segments:
            at += 1 + wd.cap
            end = at + len(seg.entries) * wd.names.width
            if where == "segment-names" and seg.entries:
                yield at, end, seg.entries
            at = end


def _spans(lab, wd, where):
    """([start, end), fields there) of the `where` spans of a decoded label."""
    if where == "reveal-name":
        sec = lab.sections[lab.level]
        if sec.reveal:
            head = 1 + 2 * wd.pos + wd.par + wd.h + (2 * wd.pos if lab.is_tree else 0)
            start = head + 3 * wd.pos + wd.unit + wd.m
            yield start, start + wd.names.width, [sec.reveal[0].name]
    elif lab.is_tree:
        yield from _simple_spans(lab, wd, where)


def _cut_inside(start, end):
    """A byte count whose bit length falls strictly inside [start, end),
    or None."""
    cut = start // 8 + 1
    return cut if cut * 8 < end else None


@pytest.fixture(scope="module")
def simple_file():
    res = build_scheme(random_connected(random.Random(5), 14, 0.4), 1, 3)
    return res, to_label_file(res)


@pytest.mark.parametrize("where", ["opts", "segment-names", "reveal-name"])
def test_payload_cut_in_names_or_opts_fails_at_decode(tmp_path, capsys, where,
                                                      simple_file, sqrt_withheld):
    _, lf = sqrt_withheld if where == "reveal-name" else simple_file
    wd = lf.widths
    path = tmp_path / "cut.flbl"
    tried = 0
    for eid, payload in enumerate(lf.edge_payloads):
        for start, end, want in _spans(LF.decode_edge(lf, eid), wd, where):
            cut = _cut_inside(start, end)
            if cut is None:
                continue
            # the span is located right: the old split reads its fields there
            r = PeekReader(payload)
            r.skip(start)
            if where == "opts":
                assert _split_opts(r, wd.pos) == want
            else:
                name_w = (wd.pos, wd.pos, wd.par)
                assert _split_names(r.read_fields(name_w * len(want))) == want
            assert r.pos == end
            with pytest.raises(ValueError, match="runs past"):
                _decode_payload(lf, eid, payload[:cut])
            payloads = list(lf.edge_payloads)
            payloads[eid] = payload[:cut]
            # the bit length must fit the cut payload, or the read rejects it
            edge_bits = list(lf.edge_bits)
            edge_bits[eid] = min(edge_bits[eid], 8 * cut)
            LF.write_label_file(str(path), dataclasses.replace(
                lf, edge_payloads=payloads, edge_bits=edge_bits))
            with pytest.raises(SystemExit) as exc:
                main(["query", str(path), "--fail", str(eid), "--count"])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "runs past" in err and err.count("\n") == 1
            tried += 1
            break
        if tried == 3:
            break
    assert tried == 3


# The 18 fixed header fields after the magic, in file order, as struct codes.
HEADER_FIELDS = (("version", "H"), ("scheme", "B"), ("n", "I"), ("aux_n", "I"),
                 ("m", "I"), ("aux_m", "I"), ("f", "I"), ("h", "H"), ("phi_num", "I"),
                 ("phi_den", "I"), ("certified", "B"), ("par_bits", "B"),
                 ("idx_bits", "B"), ("c", "B"), ("B", "B"), ("jcols", "B"),
                 ("seed", "Q"), ("nroots", "I"))


def _file_answers(path, fault_sets):
    """Per fault set, the component count and the class index of every
    vertex; "rejected" where reading, decoding or querying the file raises
    ValueError or makes the query exit 1."""
    try:
        lf = LF.read_label_file(str(path))
        verts = [LF.decode_vertex_label(lf, v) for v in range(lf.meta.n)]
        out = []
        for faults in fault_sets:
            res = _run_query(lf, faults)
            cls: dict = {}
            out.append((res.component_count(),
                        [cls.setdefault(res.class_of(x), len(cls)) for x in verts]))
        return out
    except ValueError:
        return "rejected"
    except SystemExit as exc:
        assert exc.code == 1
        return "rejected"


@pytest.mark.parametrize("case", ["s1-cubic60", "s2-sparse40", "s2-sparse80-withheld",
                                  "s3-n10", "s4-n24"])
def test_header_field_edits_rejected_or_harmless(tmp_path, capsys, case):
    # every fixed header field set to v - 1, v + 1 and 0 under a recomputed
    # CRC: the file is rejected (exit 1), or it answers 10 seeded fault sets
    # as the unedited file does; a silently wrong answer is the third outcome
    res = build_case(case)
    path = tmp_path / "a.flbl"
    LF.write_label_file(str(path), LF.make_label_file(
        res.scheme, res.meta, res.vertex_labels, res.edge_labels))
    data = path.read_bytes()
    rng = random.Random(9)
    m, f = res.meta.m, res.meta.f
    fault_sets = [rng.sample(range(m), rng.randint(1, min(f, m))) for _ in range(10)]
    base = _file_answers(path, fault_sets)
    assert base != "rejected"
    outcome = {}
    at = len(LF.MAGIC)
    for name, code in HEADER_FIELDS:
        fmt = "<" + code
        (v,) = struct.unpack_from(fmt, data, at)
        for w in sorted({v - 1, v + 1, 0} - {v}):
            if w < 0:
                continue
            edited = bytearray(data)
            struct.pack_into(fmt, edited, at, w)
            edited[-4:] = struct.pack("<I", zlib.crc32(edited[:-4]))
            path.write_bytes(bytes(edited))
            got = _file_answers(path, fault_sets)
            assert got == "rejected" or got == base, (name, v, w)
            outcome[name, w - v] = got == "rejected"
        at += struct.calcsize(fmt)
    capsys.readouterr()
    if case == "s1-cubic60":
        # f 4 -> 5 and phi_den 2 -> 3 set R4's volume threshold and no width,
        # but they raise the list cap 9 to 11 and 13, so a truncated list of
        # 9 names no longer fits its head and the file is rejected
        assert outcome["f", 1] and outcome["phi_den", 1]
