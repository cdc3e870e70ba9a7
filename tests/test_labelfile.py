import copy
import dataclasses
import math
import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbl import codeshares
from flbl import labelfile as LF
from flbl.bits import BitReader, BitWriter, pack_fields
from flbl.build import build_scheme, to_label_file
from flbl.graph import Graph, UnionFind
from flbl.labels_rand import _bits
from flbl.labels_sqrt import BlockRecord, RevealEntry
from test_golden import _none_blocks, _sparse40


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


# widths around the 61-bit shares, the 64-bit word and long sketch fields
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
    whole = BitReader(raw)
    whole.skip(lead)
    values = whole.read_fields(widths)
    k = data.draw(st.integers(0, len(group)))
    r = BitReader(raw)
    assert r.skip(lead) == 0
    assert r.skip(sum(widths[:k])) == lead
    assert r.read_fields(widths[k:]) == values[k:]
    # a skip past the payload raises and moves nothing
    spare = len(raw) * 8 - r.pos
    with pytest.raises(ValueError):
        r.skip(spare + 1)
    assert r.pos == lead + sum(widths)
    assert r.skip(spare) == lead + sum(widths)


def test_payload_vs_framing_accounting():
    w = BitWriter()
    w.write(5, 3)
    w.write_framing(1, 1)
    assert w.payload_bits == 3
    assert w.framing_bits == 1
    assert w.total_bits == 4


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


def test_share_bit_size_invariant():
    # in-label shares use 2 * ceil(log2 q) + ceil(log2 k)-equivalent bits
    q_bits = math.ceil(math.log2(codeshares.Q))
    assert q_bits == 61
    for k in (1, 2, 7, 64):
        minimal = 2 * q_bits + max(1, math.ceil(math.log2(k)) if k > 1 else 1)
        assert minimal <= 2 * 61 + math.ceil(math.log2(max(k, 2)))
    # the standalone wire format is the fixed 160-bit triple
    sh = codeshares.CodeShare(1, 2, 3)
    assert len(sh.to_bytes()) * 8 == 160


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
    last = len(lf.edge_payloads[-1])
    if cut == "length":
        # the last payload claims 4 GiB: rejected without reading it
        at = len(raw) - last - 4
        raw = raw[:at] + b"\xff\xff\xff\xff" + raw[at + 4:]
    keep = {"header": 20, "payload": len(raw) - 1,
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
def sqrt_noneblocks():
    """A scheme-2 build with both stored and count-only block records."""
    res = _none_blocks(build_scheme(_sparse40(), 2, 4, phi_mode="heuristic"))
    return res, to_label_file(res)


def _row_spans(lab):
    """(rows, bit width of their count field) of every lazily read share
    or edge list of a decoded scheme-2 label."""
    for sec in lab.sections.values():
        for ent in sec.reveal:
            yield ent.shares, "shares"
        for per in sec.near.values():
            for rec in per.values():
                if rec.edges is not None:
                    yield rec.edges, "edges"


def test_sqrt_decoded_records_equal_built(sqrt_noneblocks):
    res, lf = sqrt_noneblocks
    for eid, built in enumerate(res.edge_labels):
        lab = LF.decode_edge(lf, eid)
        assert lab == built and built == lab
        assert repr(lab) == repr(built)
    lab = LF.decode_edge(lf, 0)
    spans = [rows for rows, _ in _row_spans(lab)]
    assert spans and all(isinstance(rows, LF._Rows) for rows in spans)
    for rows in spans:
        assert len(rows) == rows.cnt
        assert list(rows) == list(rows.value)


def _set_field(payload: bytes, at: int, width: int, value: int) -> bytes:
    word = int.from_bytes(payload, "little")
    word &= ~(((1 << width) - 1) << at)
    return (word | value << at).to_bytes(len(payload), "little")


def _claim(payload: bytes, rows) -> int:
    """The smallest row count that runs past the payload."""
    return (len(payload) * 8 - rows.at) // sum(rows.widths) + 1


def _payload_spans(lf, keep, count=20):
    """(edge id, payload, rows, count-field width) for the first `count`
    share spans and `count` edge spans that `keep` accepts."""
    wd = lf.widths
    seen = {"shares": 0, "edges": 0}
    for eid, payload in enumerate(lf.edge_payloads):
        for rows, kind in _row_spans(LF.decode_edge(lf, eid)):
            width = wd.j + 2 if kind == "shares" else wd.m
            if seen[kind] < count and keep(payload, rows, width):
                seen[kind] += 1
                yield eid, payload, rows, width
    assert all(seen.values())


def _decode_payload(lf, eid, payload):
    payloads = list(lf.edge_payloads)
    payloads[eid] = payload
    return LF.decode_edge(dataclasses.replace(lf, edge_payloads=payloads), eid)


def test_sqrt_payload_cut_in_rows_fails_at_decode(sqrt_noneblocks):
    _, lf = sqrt_noneblocks
    # rows that end the payload, so no later field can catch the cut
    def last_rows(payload, rows, width):
        end = rows.at + rows.cnt * sum(rows.widths)
        return end - rows.at > 8 and end > len(payload) * 8 - 8

    for eid, payload, rows, _ in _payload_spans(lf, last_rows):
        end = rows.at + rows.cnt * sum(rows.widths)
        cut = (end - 1) // 8
        assert rows.at < cut * 8 < end
        with pytest.raises(ValueError):
            _decode_payload(lf, eid, payload[:cut])


def test_sqrt_row_count_past_payload_fails_at_decode(sqrt_noneblocks):
    _, lf = sqrt_noneblocks
    # the (scale+2)-bit share count reaches past the payload only for
    # entries near its end
    fits = lambda payload, rows, width: _claim(payload, rows) < 1 << width
    for eid, payload, rows, width in _payload_spans(lf, fits):
        claim = _claim(payload, rows)
        bad = _set_field(payload, rows.at - width, width, claim)
        with pytest.raises(ValueError):
            _decode_payload(lf, eid, bad)
        # the field located is the count: rewriting the true one is a no-op
        assert _set_field(payload, rows.at - width, width, rows.cnt) == payload



def _shared_records(labels):
    """The reveal entries and block records that more than one scheme-2
    label holds."""
    holders = {}
    for i, lab in enumerate(labels):
        for sec in lab.sections.values():
            for rec in chain(sec.reveal, *(per.values() for per in sec.near.values())):
                holders.setdefault(id(rec), (rec, set()))[1].add(i)
    return [rec for rec, held in holders.values() if len(held) > 1]


@pytest.mark.parametrize("post", [None, _none_blocks])
def test_sqrt_shared_records_encode_like_copies(post):
    # each label deep-copied and encoded on its own shares no record with
    # any other label, so every record is packed afresh
    res = build_scheme(_sparse40(), 2, 4, phi_mode="heuristic")
    if post is not None:
        res = post(res)
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
    res = build_scheme(_sparse40(), 2, 4, phi_mode="heuristic")
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
