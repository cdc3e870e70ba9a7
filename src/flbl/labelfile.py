"""Binary label-file container and per-scheme payload codecs.

Layout (little-endian), version 2: magic "FLBL", version u16, scheme u8,
n u32, aux_n u32, m u32, f u32, h u16, phi num/den u32, certified u8,
par_bits u8, share index width u8 (scheme 2, else 0), c u8, B u8,
jcols u8, seed u64, component-root array (u32 count + u32 each), vertex
map (u8 flag, then n u32 if set), then n vertex payloads and m edge
payloads, each a u32 bit length and a u32 byte length followed by
byte-padded data, and last a u32 CRC32 of every byte before it.  A file
that ends early, claims more bits than a payload's bytes hold, or fails
its CRC is rejected with ValueError, and so is a scheme-3/4 header whose
B and jcols differ from what n, f and m give (0 and 0 for scheme 3).
Reported label sizes are payload bits; length prefixes, byte padding,
union-type discriminator flags and the CRC count as framing.  A label
must decode to exactly its stored bit length (plus the one is-tree flag
of an edge label), so a header field edited to another width under a
recomputed CRC fails at decode, never as a misread answer.

A scheme-2 reveal entry is its name, two units, a presence bitmap of
2(j_max + 1) bits (bit 2j + side per share) and one (index, a, b) row
per set bit: the index in the header's width, a and b in the bit length
of the share field's prime p, the first prime above 2^(2·pos + par).

Each edge encoder writes its label as one `BitWriter.write_fields`
group.  The stream is LSB-first, so a record written as the one (value,
width) field `bits.pack_fields` makes of it gives the same bits as its
fields.  Labels share records: scheme-1 labels their segment lists (the
build makes one per event slice of a tree) and scheme-2 labels their
reveal entries and block records (one per tree), and an edge name recurs
in many lists.  `make_label_file` packs each shared record, head and
names together, and each edge name once per file (`_packed`,
`_name_fields`), and writes that field into every label that holds it.
The decoders mirror both memos.  They read each edge name back as the
one field of width 2·pos + par it was written as, and map it through the
per-file table `Widths.names`, which splits a name into its (a, b, k)
tuple on first sight.  The per-file tables `Widths.segments` (scheme 1)
and `Widths.entries` and `Widths.blocks` (scheme 2) map a record's exact
bits (value | 1 << bit count) to one decoded record, so decoded labels
share their records as built labels do.  Shared records, built or
decoded, are read-only.  A table holds at most one record per distinct
record of the file.

The scheme-1 and scheme-2 decoders read a label in one loop over a
local bit cursor on the payload: each step takes one slice of the
payload bytes as an int, holding its own bits and the head of the next
step.  One window gives a section's fixed fields and optional positions
(and in scheme 1 its first segment list's head), and each segment list,
reveal entry and block record is read whole as its key in one slice,
whose bits also give the next record's head.  Every step checks that it
ends inside the payload and fails with the "runs past" ValueError of
`BitReader.read`, so a payload cut short, or a count or presence bitmap
that claims more rows than remain, fails here, and so does a new
segment list whose head no build writes (truncated with a count other
than the cap f/phi + 1, or a count above it).  The record found in the
tables is taken as it is; a record they miss is split from its key
(`bits.split_fields`): the names of a segment list or block record,
mapped through `Widths.names`, or the share rows of a reveal entry,
each one field of idx + 2·share bits split into (index, a, b).  A tree
section's `near_blocks` depend only on its (w_real, unit_down,
unit_up), so the file keeps them per triple (`Widths.near`).  New
records enter the tables once the whole label has decoded, so a label
that raises adds no record to them.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain

from .bits import BitReader, BitWriter, pack_fields, runs_past, split_fields
from .codeshares import CodeShare, field_for
from .euler import radius_scale
from .labels_rand import RandEdgeLabel, RandMeta, _bits, _boruvka_params, _jcols
from .labels_simple import (LevelSection, NameTable, SchemeMeta, SegmentList, SimpleEdgeLabel,
                            cap_edges)
from .labels_sqrt import BlockRecord, RevealEntry, SqrtEdgeLabel, SqrtLevelSection, near_blocks

MAGIC = b"FLBL"
VERSION = 2

SCHEME_SIMPLE = 1
SCHEME_SQRT = 2
SCHEME_RAND_LONG = 3
SCHEME_RAND_SHORT = 4


@dataclass
class Widths:
    """Field widths of one label file, derived once from its header."""

    pos: int
    unit: int
    h: int
    par: int
    m: int
    pre: int
    cap: int                   # scheme 1: width of a segment list's count
    list_cap: int              # scheme 1: the cap f/phi + 1 on that count
    j_max: int                 # scheme 2: largest scale of a share
    idx: int                   # scheme 2: share index
    rand: tuple[int, ...]      # scheme-3/4 edge fields after the flag
    names: NameTable = field(repr=False, compare=False)
    # scheme 1: a decoded segment list's bits | 1 << their count -> the list
    segments: dict[int, SegmentList] = field(default_factory=dict, repr=False, compare=False)
    # scheme 2: a decoded record's bits | 1 << their count -> the record
    entries: dict[int, RevealEntry] = field(default_factory=dict, repr=False, compare=False)
    blocks: dict[int, BlockRecord] = field(default_factory=dict, repr=False, compare=False)
    # scheme 2: a tree section's (w_real, unit_down, unit_up) -> its
    # `near_blocks`, as a tuple of (scale, block ids)
    near: dict[tuple[int, int, int], tuple] = field(default_factory=dict, repr=False,
                                                     compare=False)

    @staticmethod
    def of(meta: SchemeMeta) -> "Widths":
        pos = meta.pos_bits
        pre = _bits(meta.aux_n)
        _, j_max = radius_scale(meta.f, meta.phi)
        cap = cap_edges(meta.f, meta.phi)
        rand = ()
        if isinstance(meta, RandMeta):
            rand = (pre, pre, meta.sk0_bits)
            if meta.short:
                rand += (meta.B * meta.jcols * meta.sig_seed().uid_bits,)
        return Widths(
            pos=pos,
            unit=pos + 2,
            h=max(1, meta.h.bit_length()),
            par=meta.par_bits,
            m=max(1, meta.width_m.bit_length()),
            pre=pre,
            cap=max(1, cap.bit_length()),
            list_cap=cap,
            j_max=j_max,
            idx=meta.share_index_bits,
            rand=rand,
            names=meta.name_table(),
        )

    @property
    def present(self) -> int:
        """Scheme-2 presence bitmap: bit 2j + side per (scale, side)."""
        return 2 * (self.j_max + 1)

    @cached_property
    def share(self) -> int:
        """Scheme-2 share component: the bit length of the field prime."""
        return field_for(self.names.width).p.bit_length()


def _opt_fields(after_v, before_v, bits: int) -> list[tuple[int, int]]:
    """The four optional positions of a section: a presence flag each,
    followed by the position when present."""
    out = []
    for o in (0, 1):
        for val in (after_v[o], before_v[o]):
            out += ((0, 1),) if val is None else ((1, 1), (val, bits))
    return out


def _opts_at(window: int, at: int, bits: int):
    """Mirror of `_opt_fields`: the (after_v, before_v) pair split from a
    window at bit `at`, and the bit just past them."""
    mask = (1 << bits) - 1
    vals = []
    for _ in range(4):
        if window >> at & 1:
            vals.append(window >> at + 1 & mask)
            at += 1 + bits
        else:
            vals.append(None)
            at += 1
    av0, bv0, av1, bv1 = vals
    return (av0, av1), (bv0, bv1), at


def _name_fields(names, wd: Widths, memo: dict) -> list[tuple[int, int]]:
    """One field of width 2·pos + par per edge name: its (pos, pos, par)
    fields, packed on the name's first use in the file."""
    out = []
    for nm in names:
        field = memo.get(nm)
        if field is None:
            field = memo[nm] = (wd.names.pack(nm), wd.names.width)
        out.append(field)
    return out


def _packed(memo: dict, rec, fields_of, wd: Widths) -> tuple[int, int]:
    """`rec` as one field, packed from `fields_of(rec, wd, memo)` on its
    first use in the file.  The memo is keyed by id(rec) and keeps rec,
    so no id is reused while the memo lives."""
    hit = memo.get(id(rec))
    if hit is None:
        hit = memo[id(rec)] = (rec, pack_fields(fields_of(rec, wd, memo)))
    return hit[1]


# -- scheme 1 ---------------------------------------------------------------


def _segment_fields(seg: SegmentList, wd: Widths, memo: dict) -> list[tuple[int, int]]:
    return [(1 if seg.truncated else 0, 1), (len(seg.entries), wd.cap)] + _name_fields(
        seg.entries, wd, memo)


def encode_simple_edge(lab: SimpleEdgeLabel, wd: Widths, meta: SchemeMeta,
                       memo: dict) -> BitWriter:
    w = BitWriter()
    w.write_framing(1 if lab.is_tree else 0, 1)
    fields = [(lab.pos_u, wd.pos), (lab.pos_v, wd.pos), (lab.par, wd.par)]
    if lab.is_tree:
        fields += [(lab.level, wd.h), (lab.pos_down, wd.pos), (lab.pos_up, wd.pos)]
        for ell in range(lab.level, meta.h + 1):
            sec = lab.sections[ell]
            fields += [(sec.tree_root, wd.pos), (sec.span_end, wd.pos),
                       (sec.last_vertex, wd.pos)]
            fields += _opt_fields(sec.after_v, sec.before_v, wd.pos)
            fields += [_packed(memo, seg, _segment_fields, wd) for seg in sec.segments]
    w.write_fields(fields)
    return w


def decode_simple_edge(r: BitReader, wd: Widths, meta: SchemeMeta) -> SimpleEdgeLabel:
    data, pos, nbits = r.data, r.pos, r.nbits
    from_bytes = int.from_bytes
    bits = wd.pos
    mask = (1 << bits) - 1
    names = wd.names
    width = names.width
    seg_head = 1 + wd.cap
    cnt_mask = (1 << wd.cap) - 1
    cap = wd.list_cap
    lead = 1 + 2 * bits + wd.par           # is-tree flag, pos_u, pos_v, par
    head = lead + wd.h + 2 * bits          # then level, pos_down, pos_up
    # Every read takes, past its own bits, the `ahead` bits that hold a
    # section's three positions, its optional positions and its first
    # segment head, or the next segment head: `win` holds the bits from
    # `pos` on.
    ahead = 3 * bits + 4 * (1 + bits) + seg_head
    win = from_bytes(data[pos >> 3:(pos + head + ahead + 7) >> 3], "little") >> (pos & 7)
    pos_u, pos_v = win >> 1 & mask, win >> 1 + bits & mask
    par = win >> 1 + 2 * bits & (1 << wd.par) - 1
    if not win & 1:
        if pos + lead > nbits:
            raise runs_past(lead, pos, nbits)
        r.pos = pos + lead
        return SimpleEdgeLabel(pos_u=pos_u, pos_v=pos_v, par=par, is_tree=False)
    if pos + head > nbits:
        raise runs_past(head, pos, nbits)
    level = win >> lead & (1 << wd.h) - 1
    lab = SimpleEdgeLabel(
        pos_u=pos_u, pos_v=pos_v, par=par, is_tree=True, level=level,
        pos_down=win >> lead + wd.h & mask, pos_up=win >> lead + wd.h + bits & mask,
    )
    pos += head
    win >>= head
    # A segment list is read whole, bounds-checked, as its key: its bits |
    # 1 << their count.  A key in the file's table `Widths.segments` gives
    # the shared list; a new one has its head checked against the cap, its
    # names split from the key, and enters the table once the label has
    # decoded, so a label that raises adds no list.
    table = wd.segments
    new = {}
    for ell in range(level, meta.h + 1):
        tree_root, span_end = win & mask, win >> bits & mask
        last_vertex = win >> 2 * bits & mask
        after_v, before_v, at = _opts_at(win, 3 * bits, bits)
        start = pos      # a cut in the section's head fails at its first key
        pos += at
        win >>= at
        segs = []
        for _ in range(3):
            cnt = win >> 1 & cnt_mask
            nb = seg_head + cnt * width
            end = pos + nb
            if end > nbits:
                raise runs_past(end - start, start, nbits)
            val = from_bytes(data[pos >> 3:(end + ahead + 7) >> 3], "little") >> (pos & 7)
            top = 1 << nb
            key = val & top - 1 | top
            win = val >> nb
            seg = table.get(key) or new.get(key)
            if seg is None:
                truncated = key & 1
                if cnt > cap or truncated and cnt < cap:
                    marked = "marked truncated " if truncated else ""
                    raise ValueError(f"bad label file: a segment list {marked}holds {cnt} "
                                     f"names, where the list cap is {cap}")
                seg = new[key] = SegmentList(
                    entries=names.of(split_fields(key >> seg_head, width, cnt)),
                    truncated=bool(truncated))
            segs.append(seg)
            start = pos = end
        lab.sections[ell] = LevelSection(
            tree_root=tree_root, span_end=span_end, last_vertex=last_vertex,
            after_v=after_v, before_v=before_v, segments=tuple(segs),
        )
    r.pos = pos
    table.update(new)
    return lab


# -- scheme 2 ---------------------------------------------------------------


def _entry_fields(ent: RevealEntry, wd: Widths, memo: dict) -> list[tuple[int, int]]:
    present = 0
    for j, side in ent.shares:
        present |= 1 << (2 * j + side)
    fields = _name_fields((ent.name,), wd, memo)
    fields += [(ent.unit_a, wd.unit), (ent.unit_b, wd.unit), (present, wd.present)]
    for _, sh in sorted(ent.shares.items()):
        fields += ((sh.index, wd.idx), (sh.a, wd.share), (sh.b, wd.share))
    return fields


def _block_fields(rec: BlockRecord, wd: Widths, memo: dict) -> list[tuple[int, int]]:
    if rec.edges is None:
        return [(rec.lge, wd.m), (0, 1)]
    return [(rec.lge, wd.m), (1, 1), (len(rec.edges), wd.m)] + _name_fields(rec.edges, wd, memo)


def encode_sqrt_edge(lab: SqrtEdgeLabel, wd: Widths, meta: SchemeMeta,
                     memo: dict) -> BitWriter:
    w = BitWriter()
    w.write_framing(1 if lab.is_tree else 0, 1)
    fields = [(lab.pos_u, wd.pos), (lab.pos_v, wd.pos), (lab.par, wd.par),
              (lab.level, wd.h)]
    if lab.is_tree:
        fields += [(lab.pos_down, wd.pos), (lab.pos_up, wd.pos)]
    for ell in range(lab.level, meta.h + 1):
        sec = lab.sections[ell]
        fields += [(sec.tree_root, wd.pos), (sec.span_end, wd.pos),
                   (sec.last_vertex, wd.pos), (sec.w_real, wd.unit),
                   (len(sec.reveal), wd.m)]
        fields += [_packed(memo, ent, _entry_fields, wd) for ent in sec.reveal]
        if not lab.is_tree:
            continue
        fields += _opt_fields(sec.after_v, sec.before_v, wd.pos)
        fields += [(sec.unit_down, wd.unit), (sec.unit_up, wd.unit)]
        for j, blocks in near_blocks(sec, wd.j_max):
            per = sec.near.get(j, {})
            fields += [_packed(memo, per[blk], _block_fields, wd) for blk in blocks]
    w.write_fields(fields)
    return w


def decode_sqrt_edge(r: BitReader, wd: Widths, meta: SchemeMeta) -> SqrtEdgeLabel:
    data, pos, nbits = r.data, r.pos, r.nbits
    from_bytes = int.from_bytes
    bits, unit, m = wd.pos, wd.unit, wd.m
    mask, unit_mask, m_mask = (1 << bits) - 1, (1 << unit) - 1, (1 << m) - 1
    names = wd.names
    width = names.width
    lead = 1 + 2 * bits + wd.par + wd.h    # is-tree flag, pos_u, pos_v, par, level
    win = from_bytes(data[pos >> 3:(pos + lead + 2 * bits + 7) >> 3], "little") >> (pos & 7)
    is_tree = win & 1
    head = lead + 2 * bits if is_tree else lead    # a tree edge's pos_down, pos_up
    if pos + head > nbits:
        raise runs_past(head, pos, nbits)
    level = win >> lead - wd.h & (1 << wd.h) - 1
    lab = SqrtEdgeLabel(
        pos_u=win >> 1 & mask, pos_v=win >> 1 + bits & mask,
        par=win >> 1 + 2 * bits & (1 << wd.par) - 1, is_tree=bool(is_tree), level=level,
    )
    if is_tree:
        lab.pos_down, lab.pos_up = win >> lead & mask, win >> lead + bits & mask
    pos += head
    # a section's head: three positions, w_real and the reveal count
    sec_bits = 3 * bits + unit + m
    # a tree section's optional positions, unit_down and unit_up, at most
    opt_bits = 4 * (1 + bits) + 2 * unit
    # a reveal entry's head (name, unit_a, unit_b, presence bitmap) and its
    # share rows, each one field of idx + 2·share bits: (index, a, b)
    ub_at = width + unit
    present_at = ub_at + unit
    head_bits = present_at + wd.present
    present_mask = (1 << wd.present) - 1
    row_bits = wd.idx + 2 * wd.share
    idx_mask = (1 << wd.idx) - 1
    share_mask = (1 << wd.share) - 1
    b_at = wd.idx + wd.share
    # a block record's head: lge, has-list flag and, with a list, its length
    blk_bits = 2 * m + 1
    # Every read takes, past its own bits, the `ahead` bits that hold the
    # next reveal entry's or block record's head: `win` holds the bits
    # from `pos` on.
    ahead = max(head_bits, blk_bits)
    near_memo, j_max = wd.near, wd.j_max

    # A record is read whole, bounds-checked, as its key: its bits | 1 <<
    # their count.  A key in the file's table (`Widths.entries`,
    # `Widths.blocks`) gives the shared record; a new one is split from
    # the key and enters the table once the label has decoded, so a label
    # that raises adds no record.
    entry_table, block_table = wd.entries, wd.blocks
    new_entries, new_blocks = {}, {}
    for ell in range(level, meta.h + 1):
        end = pos + sec_bits
        if end > nbits:
            raise runs_past(sec_bits, pos, nbits)
        win = from_bytes(data[pos >> 3:(end + ahead + 7) >> 3], "little") >> (pos & 7)
        sec = SqrtLevelSection(
            tree_root=win & mask, span_end=win >> bits & mask,
            last_vertex=win >> 2 * bits & mask, w_real=win >> 3 * bits & unit_mask,
            reveal=[],
        )
        nrev = win >> 3 * bits + unit & m_mask
        win >>= sec_bits
        pos = end
        reveal = sec.reveal
        for _ in range(nrev):
            present = win >> present_at & present_mask
            cnt = present.bit_count()
            nb = head_bits + cnt * row_bits
            end = pos + nb
            if end > nbits:
                raise runs_past(nb, pos, nbits)
            val = from_bytes(data[pos >> 3:(end + ahead + 7) >> 3], "little") >> (pos & 7)
            top = 1 << nb
            key = val & top - 1 | top
            win = val >> nb
            ent = entry_table.get(key) or new_entries.get(key)
            if ent is None:
                # a row's (scale, side) key is a set bit of the bitmap, in
                # ascending order
                scales = [(bit >> 1, bit & 1) for bit in range(present.bit_length())
                          if present >> bit & 1]
                rows = split_fields(key >> head_bits, row_bits, cnt)
                ent = new_entries[key] = RevealEntry(
                    name=names[key & (1 << width) - 1], unit_a=key >> width & unit_mask,
                    unit_b=key >> ub_at & unit_mask,
                    shares={sc: CodeShare(v & idx_mask, v >> wd.idx & share_mask, v >> b_at)
                            for sc, v in zip(scales, rows)})
            reveal.append(ent)
            pos = end
        lab.sections[ell] = sec
        if not is_tree:
            continue
        win = from_bytes(data[pos >> 3:(pos + opt_bits + ahead + 7) >> 3], "little") >> (pos & 7)
        sec.after_v, sec.before_v, at = _opts_at(win, 0, bits)
        sec.unit_down, sec.unit_up = win >> at & unit_mask, win >> at + unit & unit_mask
        at += 2 * unit
        if pos + at > nbits:
            raise runs_past(at, pos, nbits)
        pos += at
        win >>= at
        near_key = (sec.w_real, sec.unit_down, sec.unit_up)
        near = near_memo.get(near_key)
        if near is None:
            near = near_memo[near_key] = tuple(
                (j, tuple(blocks)) for j, blocks in near_blocks(sec, j_max))
        for j, blocks in near:
            per = sec.near[j] = {}
            for blk in blocks:
                has_list = win >> m & 1
                if has_list:
                    cnt = win >> m + 1 & m_mask
                    nb = blk_bits + cnt * width
                else:
                    nb = m + 1
                end = pos + nb
                if end > nbits:
                    raise runs_past(nb, pos, nbits)
                val = from_bytes(data[pos >> 3:(end + ahead + 7) >> 3], "little") >> (pos & 7)
                top = 1 << nb
                key = val & top - 1 | top
                win = val >> nb
                rec = block_table.get(key) or new_blocks.get(key)
                if rec is None:
                    rec = new_blocks[key] = BlockRecord(
                        lge=key & m_mask,
                        edges=names.of(split_fields(key >> blk_bits, width, cnt))
                        if has_list else None)
                per[blk] = rec
                pos = end
    r.pos = pos
    entry_table.update(new_entries)
    block_table.update(new_blocks)
    return lab


# -- schemes 3/4 -------------------------------------------------------------


def encode_rand_edge(lab: RandEdgeLabel, wd: Widths, meta: RandMeta) -> BitWriter:
    w = BitWriter()
    w.write_framing(1 if lab.is_tree else 0, 1)
    w.write_fields(tuple(zip((lab.lo, lab.hi, lab.sk0, lab.skmat), wd.rand)))
    return w


def decode_rand_edge(r: BitReader, wd: Widths, meta: RandMeta) -> RandEdgeLabel:
    is_tree, lo, hi, sk0, *skmat = r.read_fields((1,) + wd.rand)
    return RandEdgeLabel(is_tree=bool(is_tree), lo=lo, hi=hi, sk0=sk0,
                         skmat=skmat[0] if skmat else 0)


# -- container ---------------------------------------------------------------


@dataclass
class LabelFile:
    scheme: int
    meta: SchemeMeta
    vertex_payloads: list[bytes]
    vertex_bits: list[int]
    edge_payloads: list[bytes]
    edge_bits: list[int]

    @cached_property
    def widths(self) -> Widths:
        return Widths.of(self.meta)


def _vertex_widths(scheme: int, wd: Widths) -> tuple[int, ...]:
    """A tour position (schemes 1-2) or a (pre, pre) pair (schemes 3-4)."""
    if scheme in (SCHEME_SIMPLE, SCHEME_SQRT):
        return (wd.pos,)
    return (wd.pre, wd.pre)


def make_label_file(scheme: int, meta: SchemeMeta, vertex_labels, edge_labels) -> LabelFile:
    wd = Widths.of(meta)
    vwidths = _vertex_widths(scheme, wd)
    vp, vb, ep, eb = [], [], [], []
    for vlab in vertex_labels:
        w = BitWriter()
        w.write_fields(tuple(zip((vlab,) if len(vwidths) == 1 else vlab, vwidths)))
        vp.append(w.getvalue())
        vb.append(w.payload_bits)
    # The packed fields of the records and edge names the labels share:
    # id(record) -> (record, field) and edge name -> field.
    memo: dict = {}
    encode = {SCHEME_SIMPLE: partial(encode_simple_edge, memo=memo),
              SCHEME_SQRT: partial(encode_sqrt_edge, memo=memo)}.get(scheme, encode_rand_edge)
    for lab in edge_labels:
        w = encode(lab, wd, meta)
        ep.append(w.getvalue())
        eb.append(w.payload_bits)
    return LabelFile(
        scheme=scheme, meta=meta, vertex_payloads=vp, vertex_bits=vb,
        edge_payloads=ep, edge_bits=eb,
    )


def write_label_file(path: str, lf: LabelFile):
    meta = lf.meta
    vm = meta.vertex_map
    head = (
        MAGIC
        + struct.pack("<HBIIIIIH", VERSION, lf.scheme, meta.n, meta.aux_n,
                      meta.m, meta.width_m, meta.f, meta.h)
        + struct.pack("<IIBBBBBBQI", meta.phi.numerator, meta.phi.denominator,
                      1 if meta.certified else 0, meta.par_bits, meta.share_index_bits,
                      getattr(meta, "c", 0) or 0, getattr(meta, "B", 0) or 0,
                      getattr(meta, "jcols", 0) or 0, meta.seed or 0,
                      len(meta.comp_roots))
        + struct.pack(f"<{len(meta.comp_roots)}I", *meta.comp_roots)
        + (struct.pack(f"<B{len(vm)}I", 1, *vm) if vm is not None else b"\0")
    )
    with open(path, "wb") as fh:
        fh.write(head)
        crc = zlib.crc32(head)
        for bits, payload in zip(chain(lf.vertex_bits, lf.edge_bits),
                                 chain(lf.vertex_payloads, lf.edge_payloads)):
            lengths = struct.pack("<II", bits, len(payload))
            fh.write(lengths)
            fh.write(payload)
            crc = zlib.crc32(payload, zlib.crc32(lengths, crc))
        fh.write(struct.pack("<I", crc))


class _Cursor:
    """Reads a label file front to back without holding all of it, and
    keeps the CRC32 of the bytes read; a read past the end of the file is
    a truncation."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size
        self.crc = 0

    def take(self, size: int, what: str) -> bytes:
        if size > self.left:
            raise ValueError(f"truncated label file: {what} is cut short")
        self.left -= size
        data = self.fh.read(size)
        self.crc = zlib.crc32(data, self.crc)
        return data

    def unpack(self, fmt: str, what: str = "the header") -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def payloads(self, count: int, kind: str) -> tuple[list[bytes], list[int]]:
        """`count` payloads, each a u32 bit length, a u32 byte length and
        its bytes."""
        payloads, bits = [], []
        for i in range(count):
            what = f"{kind} {i} of {count}"
            nbits, ln = self.unpack("<II", what)
            if nbits > 8 * ln:
                raise ValueError(f"bad label file: {what} claims {nbits} bits "
                                 f"in {ln} bytes")
            payloads.append(self.take(ln, what))
            bits.append(nbits)
        return payloads, bits

    def check_crc(self):
        """Read the CRC32 trailer, which must end the file and match the
        CRC of everything before it."""
        crc = self.crc
        (stored,) = self.unpack("<I", "the CRC trailer")
        if stored != crc:
            raise ValueError(f"corrupt label file: CRC32 {crc:08x} does not match "
                             f"the trailer's {stored:08x}")
        if self.left:
            raise ValueError(f"bad label file: {self.left} bytes follow the CRC trailer")


def read_label_file(path: str) -> LabelFile:
    with open(path, "rb") as fh:
        cur = _Cursor(fh)
        if cur.take(4, "the header") != MAGIC:
            raise ValueError("not a label file (bad magic)")
        version, scheme, n, aux_n, m, aux_m, f, h = cur.unpack("<HBIIIIIH")
        if version != VERSION:
            raise ValueError(f"unsupported label file version {version}")
        if not SCHEME_SIMPLE <= scheme <= SCHEME_RAND_SHORT:
            raise ValueError(f"bad label file header: unknown scheme {scheme}")
        num, den, cert, par_bits, idx_bits, c, B, jcols, seed, nroots = cur.unpack(
            "<IIBBBBBBQI")
        if not (num and den):
            raise ValueError(f"bad label file header: phi = {num}/{den}")
        if scheme in (SCHEME_RAND_LONG, SCHEME_RAND_SHORT):
            # B and jcols follow from n, f and m: 0 without Boruvka rounds
            want = (_boruvka_params(n, f), _jcols(m)) if scheme == SCHEME_RAND_SHORT else (0, 0)
            if (B, jcols) != want:
                raise ValueError(f"bad label file header: scheme {scheme} with B = {B}, "
                                 f"jcols = {jcols}, where n, f and m give {want[0]}, {want[1]}")
        roots = cur.unpack(f"<{nroots}I")
        (has_vm,) = cur.unpack("<B")
        vm = list(cur.unpack(f"<{n}I")) if has_vm else None
        common = dict(n=n, aux_n=aux_n, m=m, f=f, phi=Fraction(num, den), h=h,
                      comp_roots=list(roots), par_bits=par_bits, seed=seed,
                      vertex_map=vm, certified=bool(cert), aux_m=aux_m,
                      share_index_bits=idx_bits)
        if scheme in (SCHEME_RAND_LONG, SCHEME_RAND_SHORT):
            meta = RandMeta(**common, c=c, short=(scheme == SCHEME_RAND_SHORT),
                            B=B, jcols=jcols)
        else:
            meta = SchemeMeta(**common)
        vp, vb = cur.payloads(n, "vertex label")
        ep, eb = cur.payloads(m, "edge label")
        cur.check_crc()
    if scheme == SCHEME_SQRT:
        meta.field  # find and cache the share field; a width with none raises
    return LabelFile(scheme=scheme, meta=meta, vertex_payloads=vp,
                     vertex_bits=vb, edge_payloads=ep, edge_bits=eb)


def _check_end(r: BitReader, bits: int, what: str):
    """A label decodes to exactly its stored bit length, so a header field
    edited to another width (under a recomputed CRC) cannot go unseen."""
    if r.pos != bits:
        raise ValueError(f"bad label file: {what} decodes to {r.pos} bits, "
                         f"but its stored length is {bits}")


_DECODERS = {SCHEME_SIMPLE: decode_simple_edge, SCHEME_SQRT: decode_sqrt_edge}


def decode_edge(lf: LabelFile, eid: int):
    m = len(lf.edge_payloads)
    if not 0 <= eid < m:
        raise ValueError(f"edge id {eid} is out of range (the file has {m} edges)")
    r = BitReader(lf.edge_payloads[eid])
    lab = _DECODERS.get(lf.scheme, decode_rand_edge)(r, lf.widths, lf.meta)
    _check_end(r, lf.edge_bits[eid] + 1, f"edge label {eid}")  # + the is-tree flag
    return lab


def decode_vertex_label(lf: LabelFile, v: int):
    n = len(lf.vertex_payloads)
    if not 0 <= v < n:
        raise ValueError(f"vertex id {v} is out of range (the file has {n} vertices)")
    r = BitReader(lf.vertex_payloads[v])
    vals = r.read_fields(_vertex_widths(lf.scheme, lf.widths))
    _check_end(r, lf.vertex_bits[v], f"vertex label {v}")
    return vals[0] if len(vals) == 1 else tuple(vals)
