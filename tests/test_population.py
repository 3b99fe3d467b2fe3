"""The n = inf protocol engine: multi-parent DAGs, the loss formula, hard inputs."""

import math

import numpy as np
import pytest

from nia import (
    DimensionMismatch,
    HardInstanceSpec,
    InvalidDimension,
    NiaError,
    NonFinite,
    bce_loss,
    build_agent_graph,
    cyclic_path_assignment,
    generate_hard_instance,
    population_loss,
    population_protocol,
    run_protocol,
)


def _differencing(k):
    # The hard instance's x = B Z: x_1 = Z_1, x_l = Z_l - Z_{l-1}.
    return np.eye(k) - np.eye(k, k=-1)


def _layered(layers, offsets, width=16):
    # Agent j (0-based) of each layer reads feature j + 1 and, past the first
    # layer, agents j + o (mod width) of the layer before for o in offsets;
    # a featureless sink reads the whole last layer.
    def agent(layer, j):
        return layer * width + j % width + 1

    edges = [
        (agent(layer - 1, j + o), agent(layer, j))
        for layer in range(1, layers)
        for j in range(width)
        for o in offsets
    ]
    sink = layers * width + 1
    edges += [(agent(layers - 1, j), sink) for j in range(width)]
    features = [{j + 1} for _ in range(layers) for j in range(width)] + [set()]
    return build_agent_graph(edges, features, d=width), sink


class TestMultiParent:
    """Width-16 layers over the differencing map with beta = e_16. Information
    about Z_16 enters at agent 15 (feature 16) and moves one agent down per
    layer when agent j reads agent j + 1, so the sink's span after L layers
    is that of the features 16 - L .. 16: KRR excess 1/(L + 1)."""

    @pytest.mark.parametrize("offsets", [(1,), (0, 1), (0, 1, 2)], ids=["j+1", "j,j+1", "j..j+2"])
    @pytest.mark.parametrize("layers", [1, 2, 3, 6, 12])
    def test_sink_krr_excess_is_one_over_layers_plus_one(self, offsets, layers):
        graph, sink = _layered(layers, offsets)
        agents = population_protocol(graph, _differencing(16), np.eye(16)[-1])
        assert agents[sink].krr_excess == pytest.approx(1.0 / (layers + 1), rel=1e-10, abs=0)

    @pytest.mark.parametrize("offsets", [(0,), (-1, 0)], ids=["j", "j-1,j"])
    @pytest.mark.parametrize("layers", [2, 6])
    def test_information_moving_the_wrong_way_stays_at_one_half(self, offsets, layers):
        graph, sink = _layered(layers, offsets)
        agents = population_protocol(graph, _differencing(16), np.eye(16)[-1])
        assert agents[sink].krr_excess == pytest.approx(0.5, rel=1e-12, abs=0)


class TestPopulationLoss:
    def test_matches_a_large_sample(self):
        rng = np.random.default_rng(5)
        beta = np.array([0.6, 0.0, 0.8])
        u = np.array([0.3, -0.4, 0.5])
        z = rng.standard_normal((200_000, 3))
        labels = (rng.random(z.shape[0]) < 1.0 / (1.0 + np.exp(-z @ beta))).astype(float)
        assert population_loss(u, beta) == pytest.approx(bce_loss(z @ u, labels), abs=0.005)

    def test_zero_predictor_costs_log_two(self):
        loss = population_loss(np.zeros(3), np.eye(3)[0])
        assert loss == pytest.approx(math.log(2.0), rel=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            population_loss(np.zeros(2), np.eye(3)[0])


class TestEngine:
    def test_single_all_features_agent_publishes_beta(self):
        beta = np.array([0.36, 0.48, 0.8])
        published = {}
        graph = build_agent_graph([], [{1, 2, 3}], d=3)
        agents = population_protocol(graph, _differencing(3), beta, published.__setitem__)
        assert agents[1].r == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(published[1], beta, rtol=0, atol=1e-15)
        assert agents[1].excess == pytest.approx(0.0, abs=1e-15)
        assert agents[1].krr_excess == pytest.approx(0.0, abs=1e-15)

    def test_agent_with_no_features_and_no_parents(self):
        beta = np.eye(3)[-1]
        published = {}
        graph = build_agent_graph([], [set()], d=3)
        agents = population_protocol(graph, _differencing(3), beta, published.__setitem__)
        assert agents[1].r == 0.0
        assert not published[1].any()
        expected = math.log(2.0) - population_loss(beta, beta)
        assert agents[1].excess == pytest.approx(expected, rel=1e-14)
        assert agents[1].krr_excess == 1.0

    def test_excesses_never_negative_where_the_norm_rounds_above_one(self):
        # On the k = 4 path the projection's norm rounds above 1 from about
        # depth 76, where 1 - r^2 would read -8.9e-16.
        graph = cyclic_path_assignment(4, 128)
        agents = population_protocol(graph, _differencing(4), np.eye(4)[-1])
        assert any(a.r > 1.0 for a in agents.values())
        assert all(a.krr_excess >= 0.0 and a.excess >= 0.0 for a in agents.values())
        assert all(a.krr_excess == 0.0 for a in agents.values() if a.r >= 1.0)

    def test_publish_sees_every_agent_in_topological_order(self):
        published = []
        graph = build_agent_graph([(2, 1), (3, 1)], [{1}, {2}, {3}], d=3)
        agents = population_protocol(
            graph, _differencing(3), np.eye(3)[-1], lambda a, u: published.append(a)
        )
        assert published == list(agents) == list(graph.topo_order) == [2, 3, 1]

    @pytest.mark.parametrize(
        "beta, error, match",
        [
            (np.eye(3)[-1], DimensionMismatch, "length k"),
            (np.array([0.0, 0.0, 0.0, 2.0]), InvalidDimension, "unit norm"),
            (np.array([0.0, 0.0, 0.0, 0.0]), InvalidDimension, "unit norm"),
            (np.array([0.0, 0.0, np.nan, 1.0]), NonFinite, "finite"),
            (np.array([0.0, 0.0, np.inf, 1.0]), NonFinite, "finite"),
        ],
        ids=["wrong_length", "not_unit", "zero", "nan", "inf"],
    )
    def test_bad_beta_rejected(self, beta, error, match):
        with pytest.raises(error, match=match):
            population_protocol(cyclic_path_assignment(4, 4), _differencing(4), beta)

    def test_feature_beyond_b_rejected_like_a_dataset(self):
        graph = build_agent_graph([], [{5}], d=5)
        with pytest.raises(DimensionMismatch, match="graph references feature 5 but B has d=4"):
            population_protocol(graph, _differencing(4), np.eye(4)[-1])
        dataset = generate_hard_instance(HardInstanceSpec(k=4, n=100, seed=0))
        with pytest.raises(
            DimensionMismatch, match="graph references feature 5 but dataset has d=4"
        ):
            run_protocol(dataset, graph)

    def test_one_dimensional_b_rejected(self):
        with pytest.raises(NiaError):
            population_protocol(cyclic_path_assignment(4, 4), np.zeros(4), np.eye(4)[-1])
