from collections import Counter

import pytest
from hypothesis import given, strategies as st

from treegibbs import Ball, build_ball
from treegibbs.topology import _family, _meet, ball_size, vertex_from_word


def bfs_distances(ball, source):
    """Independent BFS oracle over the undirected edge list."""
    adj = {v: [] for v in range(ball.num_vertices)}
    for u, v in ball.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_root_only_ball():
    b = build_ball(2, 0)
    assert b.num_vertices == 1
    assert b.edges == ()


def test_ball_2_2_counts():
    b = build_ball(2, 2)
    assert b.num_vertices == 10  # 1 + 3 + 6
    assert len(b.edges) == 9
    assert [len(s) for s in b.shells] == [1, 3, 6]


def test_k1_is_two_ray_line():
    b = build_ball(1, 3)
    assert b.num_vertices == 7  # 1 + 2 + 2 + 2
    assert [len(s) for s in b.shells] == [1, 2, 2, 2]
    # every interior vertex lies on exactly 2 edges
    deg = [0] * b.num_vertices
    for u, v in b.edges:
        deg[u] += 1
        deg[v] += 1
    for x in range(b.num_vertices):
        assert deg[x] == (1 if b.shell_of(x) == b.n else 2)


@given(st.integers(1, 3), st.integers(0, 4))
def test_shell_sizes_and_edge_count(k, n):
    b = build_ball(k, n)
    assert len(b.shells[0]) == 1
    for m in range(1, n + 1):
        assert len(b.shells[m]) == (k + 1) * k ** (m - 1)
    assert sum(len(s) for s in b.shells) == b.num_vertices
    assert len(b.edges) == b.num_vertices - 1
    for u, v in b.edges:
        assert b.shell_of(v) == b.shell_of(u) + 1


@pytest.mark.parametrize("k,n", [(2, 2), (3, 1), (1, 3)])
def test_successor_counts(k, n):
    # _family's children of an interior vertex are exactly the vertices whose parent it is
    b = build_ball(k, n)
    for m in range(n):
        for x in b.shells[m]:
            kids = _family(k, x)[1]
            assert list(kids) == [y for y in range(b.num_vertices) if b.parent[y] == x]
            assert len(kids) == (k + 1 if x == 0 else k)


def test_build_ball_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_ball(0, 2)
    with pytest.raises(ValueError):
        build_ball(2, -1)


@pytest.mark.parametrize("k,n", [(0, 2), (-1, 1), (2, -1)])
def test_ball_rejects_bad_arguments(k, n):
    with pytest.raises(ValueError):
        Ball(k, n)


def meet_distance(ball, x, y):
    """Graph distance down from the nearest common ancestor ``_meet``."""
    return ball.shell_of(x) + ball.shell_of(y) - 2 * ball.shell_of(_meet(ball, x, y))


def test_distance_matches_bfs_oracle():
    # every vertex pair of every ball with k <= 3 and n <= 3: the meet is an ancestor of
    # both vertices, and the distance through it is the BFS distance
    for k in (1, 2, 3):
        for n in range(4):
            b = build_ball(k, n)
            ancestors = [set() for _ in range(b.num_vertices)]
            for x in range(b.num_vertices):
                y = x
                while y >= 0:
                    ancestors[x].add(y)
                    y = b.parent[y]
            for src in range(b.num_vertices):
                oracle = bfs_distances(b, src)
                for x in range(b.num_vertices):
                    w = _meet(b, src, x)
                    assert w in ancestors[src] and w in ancestors[x], (k, n, src, x)
                    assert meet_distance(b, src, x) == oracle[x], (k, n, src, x)


def test_distance_reads_no_vertex_table():
    b = build_ball.__wrapped__(2, 12)  # a fresh ball, with no table read yet
    # vertex 1 lies under the root's first child, the last vertex under its last one
    last = b.num_vertices - 1
    assert _meet(b, 1, last) == 0 and meet_distance(b, 1, last) == 13
    assert _meet(b, last, last - 1) == _family(2, last)[0] and meet_distance(b, last, last - 1) == 2
    assert not {"shells", "parent", "edges", "words", "word_index"} & set(vars(b))


def test_two_w1_leaves_are_distance_two():
    b = build_ball(2, 1)
    x, y = b.shells[1][0], b.shells[1][1]
    assert _meet(b, x, y) == 0 and meet_distance(b, x, y) == 2


def test_vertex_words_are_reduced_and_bijective():
    b = build_ball(2, 3)
    words = [b.words[x] for x in range(b.num_vertices)]
    assert words[0] == ()
    assert len(set(words)) == b.num_vertices
    for x, w in enumerate(words):
        assert len(w) == b.shell_of(x)
        assert all(1 <= g <= b.k + 1 for g in w)
        assert all(a != c for a, c in zip(w, w[1:]))
        assert vertex_from_word(b, w) == x
    # shell 1 words are exactly the length-1 generator words
    assert {words[x] for x in b.shells[1]} == {(g,) for g in range(1, b.k + 2)}


def test_vertex_from_word_rejects_words_outside_the_ball():
    b = build_ball(2, 2)
    assert b.word_index == {w: x for x, w in enumerate(b.words)}
    assert b.word_index is b.word_index  # built once per ball
    assert vertex_from_word(b, [1, 2]) == b.word_index[(1, 2)]
    for w in [(1, 1), (4,), (0,), (1, 2, 3)]:
        with pytest.raises(ValueError, match="does not address"):
            vertex_from_word(b, w)


def test_build_is_deterministic():
    assert build_ball(3, 2) is build_ball(3, 2)  # cached
    a = build_ball.__wrapped__(3, 2)
    b = build_ball.__wrapped__(3, 2)
    assert a == b


def walked_tables(k, n):
    """Oracle: the four vertex tables and the children lists from a breadth-first walk over reduced words."""
    parent, words, shells, children, edges = [-1], [()], [[0]], [[]], []
    for m in range(1, n + 1):
        shell = []
        for x in shells[m - 1]:
            last = words[x][-1] if words[x] else 0
            for g in range(1, k + 2):
                if g == last:
                    continue  # reduced words: generators have order 2
                y = len(parent)
                parent.append(x)
                words.append(words[x] + (g,))
                children.append([])
                children[x].append(y)
                edges.append((x, y))
                shell.append(y)
        shells.append(shell)
    return {
        "parent": tuple(parent),
        "shells": tuple(tuple(s) for s in shells),
        "edges": tuple(edges),
        "words": tuple(words),
        "children": tuple(tuple(c) for c in children),
    }


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3, 4) for n in range(6 if k < 4 else 4)])
def test_derived_tables_match_breadth_first_walk(k, n):
    b = build_ball.__wrapped__(k, n)  # a fresh ball, with no table read yet
    walked = walked_tables(k, n)
    for name in ("parent", "shells", "edges", "words"):
        assert getattr(b, name) == walked[name], name
    nv = b.num_vertices
    # _family's closed form gives the walk's children inside the ball
    interior = nv - len(b.shells[n])
    assert [tuple(_family(k, x)[1]) if x < interior else () for x in range(nv)] == list(walked["children"])
    assert nv == ball_size(k, n) == len(b.parent)
    assert [b.shell_slice(m) for m in range(n + 1)] == [slice(s[0], s[-1] + 1) for s in b.shells]
    assert [b.shell_of(x) for x in range(nv)] == [len(w) for w in b.words]
    # sweep_up's reshape: each shell is grouped by parent, the root has k+1
    # children and every other interior vertex k
    for m in range(1, n + 1):
        on_shell = b.parent[b.shell_slice(m)]
        assert list(on_shell) == sorted(on_shell)
    counts = Counter(b.parent[1:])
    assert set(counts) == set(range(interior))
    assert all(counts[x] == (k + 1 if x == 0 else k) for x in range(interior))
