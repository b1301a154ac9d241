import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disqo.errors import DimensionMismatch, DisconnectedGraph, InvalidEdge
from disqo.graphs import (
    _is_connected,
    build_graph,
    metropolis_weights,
    random_connected_graph,
    validate_weights,
)


def test_build_graph_k2():
    g = build_graph(2, [(0, 1)])
    assert list(g.degrees) == [1, 1]
    assert np.flatnonzero(g.adjacency()[0]).tolist() == [1]


def test_build_graph_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert list(g.degrees) == [1, 2, 1]


def test_build_graph_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph(3, [(0, 1)])


def test_build_graph_self_loop():
    with pytest.raises(InvalidEdge):
        build_graph(3, [(0, 0), (0, 1), (1, 2)])


def test_build_graph_out_of_range():
    with pytest.raises(InvalidEdge):
        build_graph(2, [(0, 2)])


@pytest.mark.parametrize("edge", [(0.9, 1), (0, 1.0), (True, 2), (np.float64(1.0), 2)])
def test_build_graph_rejects_an_endpoint_that_is_not_an_integer(edge):
    # 0.9 used to be truncated to node 0; every endpoint is in range here.
    with pytest.raises(DimensionMismatch, match="edge endpoint must be an integer"):
        build_graph(4, [edge, (1, 2), (2, 3), (0, 3)])
    assert build_graph(4, [(np.int64(0), 1), (1, 2), (2, 3)]).edges == {(0, 1), (1, 2), (2, 3)}


@pytest.mark.parametrize("edge", [(0, 1, 3), (0,), (), [1, 2, 0]])
def test_build_graph_rejects_an_edge_that_is_not_a_pair(edge):
    # (0, 1, 3) used to be read as the edge (0, 1), and (0,) raised IndexError.
    with pytest.raises(InvalidEdge, match="is not a pair of nodes"):
        build_graph(4, [edge, (1, 2), (2, 3), (0, 3)])
    assert build_graph(4, [[0, 1], [1, 2], [2, 3]]).edges == {(0, 1), (1, 2), (2, 3)}


def test_build_graph_duplicate_edge():
    with pytest.raises(InvalidEdge):
        build_graph(2, [(0, 1), (1, 0)])


def test_weights_k2():
    w = metropolis_weights(build_graph(2, [(0, 1)]))
    assert np.allclose(w, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_weights_path3():
    w = metropolis_weights(build_graph(3, [(0, 1), (1, 2)]))
    expected = np.array([[0.75, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.75]])
    assert np.allclose(w, expected, atol=1e-15)


def test_weights_k3_spectrum():
    w = metropolis_weights(build_graph(3, [(0, 1), (0, 2), (1, 2)]))
    assert np.allclose(np.diag(w), 0.5, atol=1e-15)
    off = w[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.25, atol=1e-15)
    eig = np.sort(np.linalg.eigvalsh(w))
    assert np.allclose(eig, [0.25, 0.25, 1.0], atol=1e-12)


def test_mixing_path3_matches_hand_row():
    w = metropolis_weights(build_graph(3, [(0, 1), (1, 2)]))
    mixed = w @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(mixed, [0.75, 0.25, 0.0], atol=1e-15)


def test_validate_weights_passes_for_metropolis():
    g = build_graph(3, [(0, 1), (1, 2)])
    report = validate_weights(metropolis_weights(g), g)
    assert report.ok, str(report)


def test_validate_weights_rejects_identity():
    g = build_graph(3, [(0, 1), (1, 2)])
    report = validate_weights(np.eye(3), g)
    assert not report.ok
    assert "off-diagonal support equals edge set" in report.failures()


def test_validate_weights_rejects_bad_row_sum():
    g = build_graph(2, [(0, 1)])
    w = np.array([[0.6, 0.5], [0.5, 0.5]])
    report = validate_weights(w, g)
    assert not report.ok
    assert "rows sum to 1" in report.failures()


def test_validate_weights_dimension_mismatch():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(DimensionMismatch):
        validate_weights(np.eye(3), g)


def test_agent_counts_are_integers():
    # A float count reached range() as a TypeError, and build_graph(True, [])
    # returned a graph with n_agents=True.
    for n in (3.5, True, 2.0):
        with pytest.raises(DimensionMismatch, match="n_agents must be an integer"):
            random_connected_graph(n, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch, match="n_agents must be an integer"):
            build_graph(n, [])
    for n in (0, -1):  # an integer below 1 is a graph without agents
        with pytest.raises(InvalidEdge, match="need at least one agent"):
            build_graph(n, [])
        with pytest.raises(InvalidEdge, match="need at least one agent"):
            random_connected_graph(n, np.random.default_rng(0))
    assert build_graph(np.int64(1), []).n_agents == 1


def test_random_connected_graph_deterministic():
    a = random_connected_graph(8, np.random.default_rng(3))
    b = random_connected_graph(8, np.random.default_rng(3))
    assert a.edges == b.edges


@pytest.mark.parametrize("n", [0, -1])
def test_random_connected_graph_needs_an_agent(n):
    with pytest.raises(InvalidEdge):
        random_connected_graph(n, np.random.default_rng(0))


def test_random_connected_graph_single_agent_uses_no_draw():
    rng = np.random.default_rng(3)
    assert random_connected_graph(1, rng) == build_graph(1, [])
    assert rng.random() == np.random.default_rng(3).random()


def _spectral_gap(w: np.ndarray) -> float:
    eig = np.sort(np.abs(np.linalg.eigvalsh(w)))
    return 1.0 - eig[-2]


def test_random_graph_suite_invariants():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        g = random_connected_graph(n, rng)
        w = metropolis_weights(g)
        report = validate_weights(w, g)
        assert report.ok, f"n={n}: {report}"
        assert _spectral_gap(w) > 0.0


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    # A random spanning tree guarantees connectivity; extra edges are optional.
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    for i, j in extra:
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_metropolis_invariants_property(graph_data):
    n, edges = graph_data
    g = build_graph(n, edges)
    w = metropolis_weights(g)
    report = validate_weights(w, g)
    assert report.ok, f"n={n}: {report}"
    assert np.max(np.abs(w.sum(axis=1) - 1)) <= 1e-12
    assert np.max(np.abs(w.sum(axis=0) - 1)) <= 1e-12
    assert _spectral_gap(w) > 0.0


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_metropolis_weights_are_the_per_edge_formula_bit_for_bit(graph_data):
    # The reference counts degrees and weighs each edge in a loop over the
    # edge list: w_ij = 1 / (2 max(deg_i, deg_j)), then w_ii = 1 - row sum.
    n, edges = graph_data
    deg = np.zeros(n, dtype=int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    ref = np.zeros((n, n))
    for i, j in edges:
        ref[i, j] = ref[j, i] = 1.0 / (2.0 * max(deg[i], deg[j]))
    ref[np.diag_indices(n)] = 1.0 - ref.sum(axis=1)
    g = build_graph(n, edges)
    assert g.degrees.tolist() == deg.tolist()
    assert metropolis_weights(g).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_connectivity_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    verdicts = set()
    for p in (0.05, 0.15, 0.3, 0.6):
        for _ in range(10):
            edges = frozenset(pair for pair, keep in zip(pairs, rng.random(len(pairs)) < p) if keep)
            g = nx.Graph(edges)
            g.add_nodes_from(range(n))
            connected = _is_connected(n, edges)
            assert connected == nx.is_connected(g), edges
            verdicts.add(connected)
    assert verdicts == ({True} if n == 1 else {True, False})
