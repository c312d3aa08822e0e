import random

import networkx as nx
import pytest

from girthlab import (
    Graph,
    Graph6Error,
    GraphBuilder,
    complete_graph,
    cycle_graph,
    parse_any,
    parse_graph6,
    parse_sparse6,
    petersen_graph,
    write_graph6,
    write_sparse6,
)


def _random_graph(rng, n, p):
    b = GraphBuilder(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                b.add_edge(i, j)
    return b.freeze()


def _nx_copy(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_graph6_round_trip_random():
    rng = random.Random(20240601)
    for _ in range(250):
        g = _random_graph(rng, rng.randrange(0, 20), rng.random())
        line = write_graph6(g)
        assert parse_graph6(line) == g
        assert write_graph6(parse_graph6(line)) == line


def test_graph6_matches_reference_encoder():
    # one fixture cross-checked against an independent encoder
    g = petersen_graph()
    ref = nx.to_graph6_bytes(_nx_copy(g), header=False).decode().strip()
    assert write_graph6(g) == ref
    got = parse_graph6(ref)
    assert got.n == 10 and got.m == 15
    assert all(got.degree(v) == 3 for v in range(10))

    rng = random.Random(7)
    orders = [rng.randrange(0, 18) for _ in range(150)]
    # 63 is the first order that takes the long order prefix
    for n in orders + [62, 63, 64]:
        g = _random_graph(rng, n, rng.random())
        ref = nx.to_graph6_bytes(_nx_copy(g), header=False).decode().strip()
        assert write_graph6(g) == ref
        assert parse_graph6(ref) == g
    assert ref.startswith("~")


def test_complete4_payload_all_ones():
    # 6 upper-triangle bits, all set: one payload byte of value 63
    line = write_graph6(complete_graph(4))
    assert line == "C~"


def test_cycle5_structure():
    g = parse_graph6(write_graph6(cycle_graph(5)))
    assert g.n == 5 and g.m == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_empty_graph_encoding():
    line = write_graph6(Graph(0, ()))
    assert line == "?"
    assert parse_graph6("?") == Graph(0, ())


def test_header_tolerated():
    g = petersen_graph()
    assert parse_graph6(">>graph6<<" + write_graph6(g)) == g
    assert parse_any(">>sparse6<<" + write_sparse6(g)) == g


def test_graph6_error_offsets(monkeypatch):
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B" + chr(30))  # invalid payload byte
    assert err.value.offset == 1
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("I???")  # n=10 needs 8 payload bytes
    with pytest.raises(Graph6Error, match="trailing data"):
        parse_graph6(write_graph6(complete_graph(4)) + "??")
    with pytest.raises(Graph6Error, match="padding"):
        # n=3 uses 3 bits; set a padding bit: group 000001 -> chr(64) = '@'...
        parse_graph6("B" + chr(63 + 1))
    line = write_graph6(complete_graph(4))
    monkeypatch.setenv("GIRTHLAB_MAX_N", "3")
    with pytest.raises(Graph6Error, match="maximum"):
        parse_graph6(line)


def test_sparse6_order_prefix_error_offsets():
    # offsets count the leading ':' like every other sparse6 offset
    for line, message, offset in [
        (":", "empty input", 1),
        (":!", "invalid order byte", 1),
        (":~?\u00c8?", "invalid order byte", 3),
        (":~?@", "truncated order prefix", 4),
        (":~~??", "truncated order prefix", 5),
        (":A!", "invalid payload byte", 2),
    ]:
        with pytest.raises(Graph6Error, match=message) as err:
            parse_sparse6(line)
        assert err.value.offset == offset, line


def test_graph6_rejects_each_nonzero_padding_bit():
    # n(n-1)/2 is never 2 or 5 mod 6, so graph6 pads with 0, 2, 3 or 5 bits;
    # set each padding bit of the last byte in turn
    widths = set()
    for n in range(2, 20):
        pad = -(n * (n - 1) // 2) % 6
        widths.add(pad)
        line = write_graph6(complete_graph(n))
        for b in range(pad):
            with pytest.raises(Graph6Error, match="nonzero padding") as err:
                parse_graph6(line[:-1] + chr(63 + (ord(line[-1]) - 63 | 1 << b)))
            assert err.value.offset == len(line) - 1
    assert widths == {0, 2, 3, 5}


def test_large_order_prefix_round_trip(monkeypatch):
    # 3-byte order form (n > 62) survives a round trip under a raised cap
    monkeypatch.setenv("GIRTHLAB_MAX_N", "256")
    b = GraphBuilder(70)
    for i in range(69):
        b.add_edge(i, i + 1)
    g = b.freeze()
    assert parse_graph6(write_graph6(g)) == g


def test_sparse6_round_trip_and_reference():
    rng = random.Random(99)
    for _ in range(250):
        n = rng.randrange(1, 20)
        g = _random_graph(rng, n, rng.random())
        line = write_sparse6(g)
        assert parse_sparse6(line) == g
        ref = nx.to_sparse6_bytes(_nx_copy(g), header=False).decode().strip()
        assert line == ref


def test_sparse6_padding_corner_powers_of_two():
    rng = random.Random(5)
    for n in (2, 4, 8, 16):
        for _ in range(60):
            g = _random_graph(rng, n, rng.random())
            assert parse_sparse6(write_sparse6(g)) == g


def test_sparse6_rejects_non_simple():
    # loop on vertex 0 of a 2-vertex graph: pair (b=0, x=0) at v=0
    with pytest.raises(Graph6Error, match="loop|simple"):
        parse_sparse6(":A" + chr(63 + 0b000111))
    with pytest.raises(Graph6Error, match="sparse6"):
        parse_sparse6(write_graph6(complete_graph(4)))
    with pytest.raises(Graph6Error, match="graph6"):
        parse_graph6(write_sparse6(complete_graph(4)))
