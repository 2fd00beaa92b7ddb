from hypothesis import given, settings
from hypothesis import strategies as st
import pytest
from walk_oracle import mirror_image

from surfcut.construct import complete_edges, cycle_edges, find_embedding, random_tree
from surfcut.embedding import (
    EmbeddedGraph,
    EmbeddingError,
    FaceStructure,
    format_embedding,
    genus,
    parse_embedding,
    trace_faces,
)

K4_PLANAR_TEXT = """\
# K4 drawn in the plane
vertices 4
edge 0 1
edge 0 2
edge 0 3
edge 1 2
edge 1 3
edge 2 3
rot 0: 0 2 4
rot 1: 1 8 6
rot 2: 3 7 10
rot 3: 5 11 9
"""


def test_parse_basic():
    g = parse_embedding(K4_PLANAR_TEXT)
    assert g.n == 4 and g.m == 6 and g.num_darts == 12
    assert g.tails[0] == 0 and g.heads[0] == 1
    assert g.tails[1] == 1 and g.heads[1] == 0


def test_dart_view():
    # dart 5 is the odd dart of edge 2 (0 -> 3), so it runs 3 -> 0
    g = parse_embedding(K4_PLANAR_TEXT)
    assert g.tails[5] == 3 and g.heads[5] == 0
    assert (g.tails[5 ^ 1], g.heads[5 ^ 1]) == (g.heads[5], g.tails[5])
    assert 5 in g.out_darts[3]


def test_k4_planar_faces_and_genus():
    g = parse_embedding(K4_PLANAR_TEXT)
    faces = trace_faces(g)
    assert faces.face_count == 4
    assert genus(g, faces) == 0
    # every dart on exactly one face, walks closed under the face permutation
    assert sorted(d for walk in faces.facial_walks for d in walk) == list(range(12))
    for walk in faces.facial_walks:
        for a, b in zip(walk, walk[1:] + walk[:1]):
            assert g.rotation[a ^ 1] == b


def test_k5_torus_has_five_faces():
    g = find_embedding(5, complete_edges(5), 1)
    faces = trace_faces(g)
    assert faces.face_count == 5
    assert genus(g) == 1
    assert g.n - g.m + faces.face_count == 0


def test_mirror_preserves_genus():
    g = find_embedding(5, complete_edges(5), 1)
    assert genus(mirror_image(g)) == 1
    g0 = parse_embedding(K4_PLANAR_TEXT)
    assert genus(mirror_image(g0)) == 0


def test_format_round_trip():
    g = parse_embedding(K4_PLANAR_TEXT)
    h = parse_embedding(format_embedding(g, comment="round trip"))
    assert (g.n, g.tails, g.heads, g.rotation) == (h.n, h.tails, h.heads, h.rotation)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_trees_have_one_face(n, seed):
    g = random_tree(n, seed)
    assert trace_faces(g).face_count == 1
    assert genus(g) == 0


def test_parse_rejects_loop():
    text = "vertices 2\nedge 0 0\nedge 0 1\nrot 0: 0 1 2\nrot 1: 3\n"
    with pytest.raises(EmbeddingError, match="loop"):
        parse_embedding(text)


def test_parse_rejects_duplicate_dart():
    text = "vertices 2\nedge 0 1\nedge 0 1\nrot 0: 0 0 2\nrot 1: 1 3\n"
    with pytest.raises(EmbeddingError, match="twice"):
        parse_embedding(text)


def test_parse_rejects_missing_rot():
    text = "vertices 3\nedge 0 1\nedge 1 2\nrot 0: 0\nrot 1: 1 2\n"
    with pytest.raises(EmbeddingError, match="missing rot"):
        parse_embedding(text)


def test_parse_rejects_more_vertices_than_edges_can_connect():
    text = "vertices 3\nedge 0 1\nrot 0: 0\nrot 1: 1\n"
    with pytest.raises(EmbeddingError, match="3 vertices cannot be connected by 1 edges"):
        parse_embedding(text)
    # the header is checked against the edge count before anything is sized by it
    with pytest.raises(EmbeddingError, match="1000000000 vertices"):
        parse_embedding("vertices 1000000000\nedge 0 1\nrot 0: 0\nrot 1: 1\n")


@pytest.mark.parametrize("word", ["edges", "edgeX"])
def test_parse_rejects_words_that_only_start_with_edge(word):
    with pytest.raises(EmbeddingError, match="no edges"):
        parse_embedding(f"vertices 2\n{word} 0 1\nrot 0: 0\nrot 1: 1\n")


def test_parse_rejects_rot_line_without_vertex():
    with pytest.raises(EmbeddingError, match="rot line 'rot' names no vertex"):
        parse_embedding("vertices 2\nedge 0 1\nrot\n")


def test_parse_rejects_wrong_tail():
    text = "vertices 2\nedge 0 1\nrot 0: 1\nrot 1: 0\n"
    with pytest.raises(EmbeddingError, match="tail"):
        parse_embedding(text)


def test_parse_rejects_bad_header():
    with pytest.raises(EmbeddingError, match="vertices"):
        parse_embedding("edges 3\n")
    with pytest.raises(EmbeddingError, match="empty"):
        parse_embedding("# nothing here\n")


def test_parse_rejects_disconnected():
    # two disjoint triangles: six edges pass the header bound of 6 vertices
    text = (
        "vertices 6\nedge 0 1\nedge 1 2\nedge 2 0\nedge 3 4\nedge 4 5\nedge 5 3\n"
        "rot 0: 0 5\nrot 1: 1 2\nrot 2: 3 4\nrot 3: 6 11\nrot 4: 7 8\nrot 5: 9 10\n"
    )
    with pytest.raises(EmbeddingError, match="^graph is not connected$"):
        parse_embedding(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertices 2\nedge\n", "bad edge line 'edge'"),
        ("vertices 2\nedge 0\n", "bad edge line 'edge 0'"),
        ("vertices 2\nedge 0 1 2\n", "bad edge line 'edge 0 1 2'"),
        ("vertices 2\nedge 0 x\n", "bad edge line 'edge 0 x'"),
        ("vertices 2\nedge 0 1\nrot 0: x\n", "bad rot line 'rot 0: x'"),
        ("vertices 2\nedge 0 1\nrot 0:\n", "vertex 0 has an empty rotation"),
    ],
)
def test_parse_rejects_malformed_lines(text, message):
    with pytest.raises(EmbeddingError) as err:
        parse_embedding(text)
    assert str(err.value) == message


def test_validation_rejects_split_orbit():
    # (n, tails, heads, rotation, message): each field check of the constructor
    table = [
        # vertex 0 has four darts but the rotation pairs them into two 2-cycles
        (
            2,
            (0, 1, 0, 1, 0, 1, 0, 1),
            (1, 0, 1, 0, 1, 0, 1, 0),
            (2, 3, 0, 1, 6, 7, 4, 5),
            "rotation at vertex 0 splits into several cycles",
        ),
        (0, (0, 1), (1, 0), (0, 1), "graph needs at least one vertex"),
        (1, (), (), (), "dart count must be positive and even"),
        (2, (0,), (1,), (0,), "dart count must be positive and even"),
        (2, (0, 1), (1, 0), (0,), "tails, heads and rotation must have equal length"),
        (2, (0, 2), (2, 0), (0, 1), "dart 0 has an endpoint out of range"),
        (3, (0, 1), (2, 0), (0, 1), "darts 0 and 1 disagree on their shared edge"),
        (2, (0, 1), (1, 0), (0, 0), "rotation is not a permutation of the darts"),
        (2, (0, 1), (1, 0), (1, 0), "rotation moves dart 0 to a different tail vertex"),
    ]
    for n, tails, heads, rotation, message in table:
        with pytest.raises(EmbeddingError) as err:
            EmbeddedGraph(n=n, tails=tails, heads=heads, rotation=rotation)
        assert str(err.value) == message


def test_genus_rejects_odd_characteristic():
    g = find_embedding(3, cycle_edges(3), 0)
    assert genus(g) == 0
    # a triangle with a single face would have odd Euler characteristic
    fake = FaceStructure(face_of=(0,) * 6, facial_walks=((0, 1, 2, 3, 4, 5),))
    with pytest.raises(EmbeddingError):
        genus(g, faces=fake)
