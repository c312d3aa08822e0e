"""graph6 and sparse6 text encodings.

graph6 packs the upper triangle of the adjacency matrix in column-major
order (bit (i,j), i < j, ordered by j then i) into big-endian 6-bit groups,
each printed as ``chr(group + 63)``.  sparse6 is an edge-list bit stream of
(b, x) pairs behind a ``:`` prefix.  Both tolerate the optional
``>>graph6<<`` / ``>>sparse6<<`` headers on input; output never carries a
header.  Padding bits must be zero for graph6 and one for sparse6.

This module owns the graph6 payload layout.  `pack_payload` is its one
encoder: it packs the upper triangle of a relabelled graph into one int,
which `write_graph6` takes under the identity order and
`canon.canonical_graph6` takes as the canonical certificate, and
`graph6_line` pads either into a line.  `parse_graph6` is its one decoder.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .core import Graph, GraphBuilder, bit_list, bits, max_vertices
from .errors import Graph6Error

GRAPH6_HEADER = ">>graph6<<"
SPARSE6_HEADER = ">>sparse6<<"


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + _pack_bits(n, 18)
    if n <= 68719476735:
        return chr(126) + chr(126) + _pack_bits(n, 36)
    raise Graph6Error(f"graph order {n} exceeds the 36-bit format limit")


def _pack_bits(value: int, width: int) -> str:
    return "".join(chr(((value >> s) & 63) + 63) for s in range(width - 6, -6, -6))


def _unpack_bits(chars: str, offset: int, what: str) -> int:
    """Inverse of `_pack_bits`; `chars` starts at `offset` in the line."""
    value = 0
    for pos, ch in enumerate(chars):
        if not "?" <= ch <= "~":
            raise Graph6Error(f"invalid {what} byte {ch!r}", offset=offset + pos)
        value = value << 6 | (ord(ch) - 63)
    return value


def _decode_order(line: str, at: int = 0) -> tuple[int, int]:
    """Return (n, data_start_offset) for the order prefix that starts at
    `at`; offsets are into `line`."""
    if len(line) <= at:
        raise Graph6Error("empty input", offset=at)
    c = ord(line[at])
    if c != 126:
        if not 63 <= c <= 125:
            raise Graph6Error(f"invalid order byte {line[at]!r}", offset=at)
        return c - 63, at + 1
    if len(line) >= at + 2 and ord(line[at + 1]) == 126:
        chars, start = line[at + 2:at + 8], at + 2
    else:
        chars, start = line[at + 1:at + 4], at + 1
    if len(chars) < 3 * (start - at):
        raise Graph6Error("truncated order prefix", offset=len(line))
    return _unpack_bits(chars, start, "order"), start + len(chars)


def pack_payload(nbrs: Sequence[Iterable[int]], order: Sequence[int]) -> int:
    """graph6 payload bits, unpadded, of the graph with vertex ``order[i]``
    renamed to i, packed into one int: column j holds bit (i, j) for i < j,
    with i = 0 most significant.  ``nbrs[v]`` lists the neighbours of v."""
    n = len(order)
    # vertex order[i] sits at bit n-1-i, so the top j bits of a relabelled
    # row are column j with i = 0 first
    flipped = [0] * n
    for i, v in enumerate(order):
        flipped[v] = 1 << (n - 1 - i)
    acc = 0
    for j in range(1, n):
        col = 0
        for w in nbrs[order[j]]:
            col |= flipped[w]
        acc = acc << j | col >> (n - j)
    return acc


def graph6_line(n: int, payload: int) -> str:
    """graph6 line of an order-n graph from its `pack_payload` bits: the
    order prefix, then the payload zero-padded to a multiple of six bits."""
    width = n * (n - 1) // 2
    pad = -width % 6
    return _encode_order(n) + _pack_bits(payload << pad, width + pad)


def write_graph6(g: Graph) -> str:
    """Canonical graph6 line for `g` (no header, zero padding bits)."""
    return graph6_line(g.n, pack_payload([bit_list(r) for r in g.rows], range(g.n)))


def parse_graph6(line: str, cap: int | None = None) -> Graph:
    """Decode one graph6 line; the ``>>graph6<<`` header is tolerated."""
    line = line.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    if line.startswith(":"):
        raise Graph6Error("sparse6 input passed to the graph6 parser; use parse_sparse6", offset=0)
    n, start = _decode_order(line)
    cap = max_vertices() if cap is None else cap
    if n > cap:
        raise Graph6Error(f"graph order {n} exceeds the configured maximum {cap}", offset=0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = line[start:]
    if len(body) < need:
        raise Graph6Error(
            f"truncated payload: expected {need} bytes, got {len(body)}",
            offset=len(line),
        )
    if len(body) > need:
        raise Graph6Error("trailing data after payload", offset=start + need)
    payload = _unpack_bits(body, start, "payload")
    pad = 6 * need - nbits
    if payload & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", offset=start + need - 1)
    payload >>= pad
    # the last column holds the lowest bits; bit b of column j is i = j-1-b
    rows = [0] * n
    for j in range(n - 1, 0, -1):
        for b in bits(payload & ((1 << j) - 1)):
            i = j - 1 - b
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        payload >>= j
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# sparse6


def _edge_bit_width(n: int) -> int:
    k = 1
    while 1 << k < n:
        k += 1
    return k


def write_sparse6(g: Graph) -> str:
    """sparse6 line for `g` (with the leading ``:``, no header)."""
    n = g.n
    k = _edge_bit_width(n)

    acc = width = 0

    def put(value: int, w: int) -> None:
        nonlocal acc, width
        acc = acc << w | value
        width += w

    cur = 0
    for v, u in sorted((j, i) for i, j in g.edges()):
        if v == cur:
            put(0, 1)
            put(u, k)
        elif v == cur + 1:
            cur += 1
            put(1, 1)
            put(u, k)
        else:
            cur = v
            put(1, 1)
            put(v, k)
            put(0, 1)
            put(u, k)
    pad = -width % 6
    # A pure all-ones pad can decode as a loop on n-1 when n is a power of
    # two and the pad is at least k bits long; a single 0 bit prevents it.
    if k < 6 and n == (1 << k) and pad >= k and cur < n - 1:
        put(0, 1)
        pad = -width % 6
    put((1 << pad) - 1, pad)
    return ":" + _encode_order(n) + _pack_bits(acc, width)


def parse_sparse6(line: str, cap: int | None = None) -> Graph:
    """Decode one sparse6 line; loops and repeated edges are rejected since
    the in-memory representation is a simple graph."""
    line = line.strip()
    if line.startswith(SPARSE6_HEADER):
        line = line[len(SPARSE6_HEADER):]
    if not line.startswith(":"):
        raise Graph6Error("sparse6 input must start with ':'", offset=0)
    n, start = _decode_order(line, 1)
    cap = max_vertices() if cap is None else cap
    if n > cap:
        raise Graph6Error(f"graph order {n} exceeds the configured maximum {cap}", offset=0)
    chars = line[start:]
    # a string of bits: slicing it stays linear, shifting an int would not
    bit_stream = format(_unpack_bits(chars, start, "payload"), f"0{6 * len(chars)}b")
    k = _edge_bit_width(n)
    builder = GraphBuilder(n, cap=cap)
    seen: set[tuple[int, int]] = set()
    cur = 0
    pos = 0
    while pos + 1 + k <= len(bit_stream):
        b = bit_stream[pos] == "1"
        x = int(bit_stream[pos + 1:pos + 1 + k], 2)
        pos += 1 + k
        if b:
            cur += 1
        if cur >= n or x >= n:
            break
        if x > cur:
            cur = x
        else:
            if x == cur:
                raise Graph6Error(f"loop at vertex {x}: not a simple graph", offset=None)
            edge = (x, cur)
            if edge in seen:
                raise Graph6Error(f"repeated edge {edge}: not a simple graph", offset=None)
            seen.add(edge)
            builder.add_edge(x, cur)
    return builder.freeze()


def parse_any(line: str, cap: int | None = None) -> Graph:
    """Dispatch on the format: sparse6 when the payload starts with ':'
    (after an optional header), graph6 otherwise."""
    stripped = line.strip()
    if stripped.startswith(SPARSE6_HEADER) or stripped.startswith(":"):
        return parse_sparse6(stripped, cap=cap)
    return parse_graph6(stripped, cap=cap)
