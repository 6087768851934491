import pytest

from matchlat import (
    build_z_digraph,
    matching_lattice,
    matching_poset,
    oriented_dual,
)
from matchlat.errors import NotALattice
from matchlat.export import (
    dual_to_dot,
    graph_to_dot,
    lattice_to_dot,
    poset_to_dot,
    zdigraph_to_dot,
)


def test_graph_dot_lists_all_edges(c6):
    dot = graph_to_dot(c6)
    assert dot.startswith("graph")
    assert dot.count("--") == c6.n_edges


def test_dual_dot_marks_outer(c6):
    D = oriented_dual(c6, include_outer=True)
    dot = dual_to_dot(D, outer_face=c6.outer_face)
    assert "doublecircle" in dot
    assert dot.count("->") == len(D.arcs)


def test_zdigraph_dot_labels_faces(t2):
    Z = build_z_digraph(t2.graph)
    dot = zdigraph_to_dot(Z)
    assert dot.count("->") == len(Z.arcs)


def test_lattice_dot_ranks(pyrene):
    L = matching_lattice(pyrene.graph)
    dot = lattice_to_dot(L)
    # one rank group per rank value 0..4
    assert dot.count("rank=same") == 5


def test_poset_dot(t2):
    P = matching_poset(t2.graph)
    dot = poset_to_dot(P)
    assert dot.count("->") == len(P.covers)


def test_poset_json_round_trip(t2):
    data = matching_poset(t2.graph).to_json()
    assert len(data["elements"]) == 5
    assert all(len(pair) == 2 for pair in data["covers"])


def test_pendant_lattice_rejected(pendant):
    with pytest.raises(NotALattice):
        matching_lattice(pendant)
