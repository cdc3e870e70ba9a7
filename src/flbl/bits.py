"""LSB-first bit stream helpers with separate payload/framing accounting.

`BitWriter.write_fields` packs a group of (value, width) fields in one
call and `BitReader.read_fields` is its mirror: it reads the same group
of widths back in one call.  Both work on bounded chunks of the stream,
so a group of any length costs time linear in its bits.  A read that
runs past the payload raises the ValueError `runs_past` makes.

The stream is LSB-first, so the pair `pack_fields(fields)` written as one
field gives the same bits as writing `fields`: a group that recurs can be
packed once and written many times.

`split_fields` splits a run of equal-width fields out of an int that
already holds their bits, such as a record a decoder has read whole:
the edge names or share rows of a record new to its tables.
"""

from __future__ import annotations

# A writer flushes whole bytes once this many bits are pending.
_CHUNK = 1024
# Both sides pack or split at most this many fields in one int.
_SPLIT = 64


def pack_fields(fields) -> tuple[int, int]:
    """The (value, width) pair of a group of (value, width) fields, packed
    LSB-first.  A value that does not fit its width, or is negative,
    raises ValueError."""
    acc = 0
    off = 0
    for value, width in fields:
        if value >> width:  # also true for every negative value
            raise ValueError(f"value {value} does not fit {width} bits")
        acc |= value << off
        off += width
    return acc, off


class BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.cur = 0
        self.curbits = 0
        self.payload_bits = 0
        self.framing_bits = 0

    def _push(self, fields) -> int:
        """Append a sequence of (value, width) fields; return their total
        width.  On an oversized value nothing is written."""
        buf = self.buf
        start = len(buf)
        cur = self.cur
        bits = self.curbits
        for i in range(0, len(fields), _SPLIT):
            try:
                acc, off = pack_fields(fields[i:i + _SPLIT])
            except ValueError:
                del buf[start:]
                raise
            cur |= acc << bits
            bits += off
            if bits >= _CHUNK:
                nbytes = bits >> 3
                buf += (cur & ((1 << (nbytes << 3)) - 1)).to_bytes(nbytes, "little")
                cur >>= nbytes << 3
                bits &= 7
        total = (len(buf) - start) * 8 + bits - self.curbits
        self.cur = cur
        self.curbits = bits
        return total

    def write(self, value: int, width: int):
        self.payload_bits += self._push(((value, width),))

    def write_fields(self, fields):
        """Write a sequence of (value, width) payload fields in one call."""
        self.payload_bits += self._push(fields)

    def write_framing(self, value: int, width: int):
        self.framing_bits += self._push(((value, width),))

    def getvalue(self) -> bytes:
        return bytes(self.buf) + self.cur.to_bytes((self.curbits + 7) >> 3, "little")


def runs_past(width: int, pos: int, nbits: int) -> ValueError:
    """The error of a read of `width` bits at bit `pos` that ends past an
    `nbits`-bit payload."""
    return ValueError(f"read of {width} bits at bit {pos} runs past "
                      f"the {nbits}-bit payload")


class BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.nbits = len(data) * 8

    def read(self, width: int) -> int:
        """The next `width` bits as one int: `read_fields((width,))[0]`
        without its loop, bounds-checked the same way."""
        pos = self.pos
        end = pos + width
        if end > self.nbits:
            raise runs_past(width, pos, self.nbits)
        self.pos = end
        return int.from_bytes(self.data[pos >> 3:(end + 7) >> 3],
                              "little") >> (pos & 7) & ((1 << width) - 1)

    def read_fields(self, widths) -> list[int]:
        """Read back, in one call, the group of fields one `write_fields`
        call wrote, given the sequence of their widths."""
        pos = self.pos
        end = pos + sum(widths)
        if end > self.nbits:
            raise runs_past(end - pos, pos, self.nbits)
        data = self.data
        out = []
        append = out.append
        for i in range(0, len(widths), _SPLIT):
            part = widths[i:i + _SPLIT]
            hi = pos + sum(part)
            window = int.from_bytes(data[pos >> 3:(hi + 7) >> 3], "little") >> (pos & 7)
            for width in part:
                append(window & ((1 << width) - 1))
                window >>= width
            pos = hi
        self.pos = end
        return out


def split_fields(value: int, width: int, count: int) -> list[int]:
    """The `count` fields of `width` bits that `value` holds LSB-first
    from bit 0 on; bits above them are ignored.  Split in chunks of at
    most _SPLIT fields, like `BitReader.read_fields`."""
    mask = (1 << width) - 1
    step = _SPLIT * width
    out = []
    for i in range(0, count, _SPLIT):
        window = value & (1 << step) - 1
        out += [window >> at & mask for at in range(0, min(_SPLIT, count - i) * width, width)]
        value >>= step
    return out
