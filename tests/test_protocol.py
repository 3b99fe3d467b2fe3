"""Protocol engine: designs, sequential runs, excess loss."""

import math
import tracemalloc

import numpy as np
import pytest

from nia import (
    Dataset,
    Design,
    DimensionMismatch,
    FitOptions,
    HardInstanceSpec,
    MissingParent,
    NotConvergedWarning,
    agent_design,
    bce_loss,
    build_agent_graph,
    convergence_bound_rhs,
    cyclic_path_assignment,
    feature_second_moment_bound,
    fit_logistic,
    generate_hard_instance,
    residual_moments,
    run_protocol,
    sink_excess_loss,
    walk,
)
import nia.data
import nia.logistic
import nia.protocol
from nia.logistic import FitCarry

LOG2 = math.log(2.0)


def _fit_block_rows(width):
    # A fit's rows per block: the budget's rows for the design row and four
    # more values, rounded down to a power of two and at least one chunk.
    return max(nia.logistic._CHUNK, 1 << (nia.data.block_rows(width + 4).bit_length() - 1))


def _run_with_columns(ds, graph, opts=None):
    # The run streams; the columns it publishes, collected as they appear,
    # let agent_design rebuild any agent's design after the run.
    columns = {}
    trace = run_protocol(ds, graph, opts, publish=columns.__setitem__)
    return trace, columns


def _diamond_dag():
    # 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4: agent 4 fits on its own feature plus
    # two parent columns.
    return build_agent_graph([(1, 2), (1, 3), (2, 4), (3, 4)], [{1}, {2}, {3}, {4}], d=4)


def _layered_dag(layers=6, width=4):
    # Layers of agents, agent j of a layer on features {2j-1, 2j}, every
    # agent of a layer a parent of every agent of the next, and a
    # featureless sink over the last layer. A parent column is then an
    # exact linear combination of a child's own features plus other
    # parent columns, so the designs are rank-deficient.
    features = [{2 * j - 1, 2 * j} for _ in range(layers) for j in range(1, width + 1)]
    edges = [
        ((layer - 1) * width + i, layer * width + j)
        for layer in range(1, layers)
        for i in range(1, width + 1)
        for j in range(1, width + 1)
    ]
    sink = layers * width + 1
    edges += [(sink - width - 1 + i, sink) for i in range(1, width + 1)]
    return build_agent_graph(edges, features + [set()], d=2 * width)


def _windowed_path(agents=24, sizes=(1, 3, 5), d=8):
    # A path of agents observing the next 1, 3 and 5 features in turn
    # (cyclic), then a featureless sink: designs of widths 1, 2, 4 and 6.
    features, first = [], 0
    for i in range(agents):
        features.append({(first + j) % d + 1 for j in range(sizes[i % len(sizes)])})
        first += sizes[i % len(sizes)]
    edges = [(a, a + 1) for a in range(1, agents + 1)]
    return build_agent_graph(edges, features + [set()], d=d)


def _skip_edge_dag():
    # A path 1 -> 2 -> 3 -> 4 plus 1 -> 4: column 1 is read by agent 2 and
    # again by agent 4, two positions later.
    return build_agent_graph([(1, 2), (2, 3), (3, 4), (1, 4)], [{1}, {2}, {3}, {4}], d=4)


@pytest.fixture(scope="module")
def dataset():
    return generate_hard_instance(HardInstanceSpec(k=3, n=200, seed=1))


class TestAgentDesign:
    def test_source_agent_single_column(self, dataset):
        g = build_agent_graph([], [{2}], d=3)
        design = np.asarray(agent_design(dataset, g, 1, {}))
        assert np.array_equal(design[:, 0], dataset.features[:, 1])

    def test_local_features_then_parent_logits(self, dataset):
        g = build_agent_graph([(1, 2)], [{3}, {1}], d=3)
        columns = {1: np.arange(float(dataset.n))}
        design = np.asarray(agent_design(dataset, g, 2, columns))
        assert design.shape == (dataset.n, 2)
        assert np.array_equal(design[:, 0], dataset.features[:, 0])
        assert np.array_equal(design[:, 1], columns[1])

    def test_feature_columns_in_ascending_index_order(self, dataset):
        g = build_agent_graph([], [{3, 1}], d=3)
        design = np.asarray(agent_design(dataset, g, 1, {}))
        assert np.array_equal(design[:, 0], dataset.features[:, 0])
        assert np.array_equal(design[:, 1], dataset.features[:, 2])

    @pytest.mark.parametrize("features", [{2}, {1, 3}, {1, 2, 3}])
    def test_matches_stacked_columns_across_row_blocks(self, features):
        # n is not a multiple of the row block.
        ds = generate_hard_instance(
            HardInstanceSpec(k=3, n=2 * _fit_block_rows(4) + 77, seed=2)
        )
        g = build_agent_graph([(1, 2)], [{1}, features], d=3)
        columns = {1: np.arange(float(ds.n))}
        design = np.asarray(agent_design(ds, g, 2, columns))
        cols = [ds.features[:, l - 1] for l in sorted(features)] + [columns[1]]
        assert np.array_equal(design, np.stack(cols).T)
        assert design.flags.f_contiguous

    def test_missing_parent(self, dataset):
        g = build_agent_graph([(1, 2)], [{1}, {2}], d=3)
        with pytest.raises(MissingParent):
            agent_design(dataset, g, 2, {})

    def test_cyclic_second_pass_columns(self, dataset):
        # First agent of pass 2 sees feature 1 plus the pass-1 sink logit.
        g = cyclic_path_assignment(3, 4)
        _, columns = _run_with_columns(dataset, g)
        design = np.asarray(agent_design(dataset, g, 4, columns))
        assert np.array_equal(design[:, 0], dataset.features[:, 0])
        assert np.array_equal(design[:, 1], columns[3])


class TestRunProtocol:
    def test_single_all_features_agent_matches_global_fit(self):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=5000, seed=4))
        g = build_agent_graph([], [{1, 2, 3}], d=3)
        opts = FitOptions()
        trace = run_protocol(ds, g, opts)
        gfit = fit_logistic(ds.features, ds.labels, opts)
        assert trace.models[1].loss == pytest.approx(gfit.loss, abs=1e-12)

    def test_uninformative_prefix_stays_near_prior(self):
        # Agents seeing only label-independent feature columns fit nothing
        # but sampling noise: tiny logit columns, losses at the prior.
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=100_000, seed=1))
        trace, columns = _run_with_columns(ds, cyclic_path_assignment(3, 3))
        for agent in (1, 2):
            z = columns[agent]
            assert float(np.linalg.norm(z)) / math.sqrt(ds.n) <= 0.01
            assert abs(trace.models[agent].loss - LOG2) <= 1e-4
        assert trace.models[3].loss < LOG2 - 1e-3

    def test_duplicated_agent_changes_sink_loss_negligibly(self):
        ds = generate_hard_instance(HardInstanceSpec(k=2, n=20_000, seed=6))
        opts = FitOptions()
        base = build_agent_graph(
            [(1, 2), (2, 3)], [{1}, {2}, {1}], d=2
        )
        doubled = build_agent_graph(
            [(1, 2), (2, 3), (3, 4)], [{1}, {2}, {2}, {1}], d=2
        )
        loss_base = run_protocol(ds, base, opts).models[3].loss
        loss_doubled = run_protocol(ds, doubled, opts).models[4].loss
        assert abs(loss_doubled - loss_base) <= 10 * opts.grad_tol

    def test_losses_monotone_along_path(self):
        ds = generate_hard_instance(HardInstanceSpec(k=4, n=20_000, seed=9))
        opts = FitOptions()
        trace = run_protocol(ds, cyclic_path_assignment(4, 12), opts)
        losses = trace.loss_path()
        assert np.all(np.diff(losses) <= 10 * opts.grad_tol)

    def test_per_agent_residual_moments_vanish(self):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=20_000, seed=10))
        g = cyclic_path_assignment(3, 6)
        opts = FitOptions()
        trace, columns = _run_with_columns(ds, g, opts)
        assert trace.all_converged
        for agent in g.topo_order:
            design = agent_design(ds, g, agent, columns)
            moments = residual_moments(design, columns[agent], ds.labels)
            assert np.max(np.abs(moments)) <= 10 * opts.grad_tol

    def test_published_columns_match_weights_exactly(self):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=5000, seed=12))
        g = cyclic_path_assignment(3, 5)
        trace, columns = _run_with_columns(ds, g)
        for agent in g.topo_order:
            model = trace.models[agent]
            design = agent_design(ds, g, agent, columns)
            assert np.array_equal(columns[agent], design @ model.weights)
            assert model.loss == bce_loss(columns[agent], ds.labels)

    def test_prefix_stability(self):
        # A shorter cyclic run is bitwise the prefix of a longer one; the
        # scan driver relies on this to share one run across a depth grid.
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=10_000, seed=3))
        opts = FitOptions()
        short, short_columns = _run_with_columns(ds, cyclic_path_assignment(3, 6), opts)
        long, long_columns = _run_with_columns(ds, cyclic_path_assignment(3, 12), opts)
        for agent in range(1, 7):
            assert np.array_equal(short_columns[agent], long_columns[agent])
            assert short.models[agent].loss == long.models[agent].loss

    def test_deterministic_trace(self):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=5000, seed=8))
        g = cyclic_path_assignment(3, 6)
        a, a_columns = _run_with_columns(ds, g)
        b, b_columns = _run_with_columns(ds, g)
        assert a.loss_path().tolist() == b.loss_path().tolist()
        for agent in g.topo_order:
            assert np.array_equal(a_columns[agent], b_columns[agent])

    def test_feature_index_beyond_dataset_rejected(self):
        ds = generate_hard_instance(HardInstanceSpec(k=2, n=100, seed=0))
        g = build_agent_graph([], [{3}], d=3)
        with pytest.raises(DimensionMismatch):
            run_protocol(ds, g)

    def test_multi_sink_dag_runs(self):
        ds = generate_hard_instance(HardInstanceSpec(k=2, n=2000, seed=14))
        g = build_agent_graph([(1, 2), (1, 3)], [{1}, {2}, {2}], d=2)
        trace = run_protocol(ds, g)
        assert trace.sink_id == 3
        assert set(trace.models) == {1, 2, 3}

    def test_diamond_dag_multi_parent_agent(self):
        ds = generate_hard_instance(HardInstanceSpec(k=4, n=20_000, seed=17))
        g = _diamond_dag()
        trace, columns = _run_with_columns(ds, g)
        assert trace.all_converged
        for agent in g.topo_order:
            model = trace.models[agent]
            design = agent_design(ds, g, agent, columns)
            moments = residual_moments(design, columns[agent], ds.labels)
            assert np.max(np.abs(moments)) <= 1e-9
            assert np.array_equal(columns[agent], design @ model.weights)
        # One local weight, then one per parent.
        assert trace.models[4].weights[1:].shape == (2,)
        assert trace.models[4].loss <= min(trace.models[2].loss, trace.models[3].loss) + 1e-12

    def test_layered_dag_converges(self):
        g = _layered_dag()
        for seed in range(1, 21):
            ds = generate_hard_instance(HardInstanceSpec(k=8, n=20_000, seed=seed))
            trace, columns = _run_with_columns(ds, g)
            for agent in g.topo_order:
                model = trace.models[agent]
                assert model.converged, (seed, agent)
                design = agent_design(ds, g, agent, columns)
                moments = residual_moments(design, columns[agent], ds.labels)
                assert np.max(np.abs(moments)) <= 1e-9, (seed, agent)
                assert np.array_equal(columns[agent], design @ model.weights), (seed, agent)
                assert model.loss == bce_loss(columns[agent], ds.labels), (seed, agent)
                parents = g.parents_of(agent)
                if parents:
                    best = min(trace.models[p].loss for p in parents)
                    assert model.loss <= best + 1e-12, (seed, agent)


class TestWalk:
    """The walk hands each step the states of exactly the earlier agents that
    this agent or a later one reads, each as that agent's step returned it."""

    @pytest.mark.parametrize(
        "graph",
        [
            cyclic_path_assignment(4, 12),
            _diamond_dag(),
            _layered_dag(),
            _skip_edge_dag(),
            # Agent 2 is a sink that agent 3 follows, so its state is never kept.
            build_agent_graph([(1, 2), (1, 3)], [{1}, {2}, {2}], d=2),
        ],
        ids=["cyclic_path", "diamond", "layered_6x4", "skip_edge", "early_sink"],
    )
    def test_states_are_the_frontier(self, graph):
        order = graph.topo_order
        visited = []

        def step(agent_id, states):
            i = len(visited)
            read_later = {p for c in order[i:] for p in graph.parents_of(c)}
            assert set(states) == set(order[:i]) & read_later, agent_id
            assert all(states[p] == ("state", p) for p in states), agent_id
            visited.append(agent_id)
            return ("state", agent_id)

        walk(graph, step)
        assert visited == list(order)

    def test_path_holds_one_state(self):
        sizes = []
        walk(cyclic_path_assignment(3, 9), lambda a, states: sizes.append(len(states)))
        assert sizes == [0] + [1] * 8


class TestMomentNorm:
    """Each fit's ``grad_norm`` is the residual moments of its published
    column, which the orthogonality suite reads in place of recomputing them."""

    @pytest.mark.parametrize(
        "k, graph",
        [(4, cyclic_path_assignment(4, 12)), (6, _layered_dag(3, 3))],
        ids=["cyclic_path", "layered_3x3"],
    )
    def test_matches_published_column_moments_bitwise(self, k, graph):
        ds = generate_hard_instance(HardInstanceSpec(k=k, n=20_000, seed=7))
        trace, columns = _run_with_columns(ds, graph)
        assert trace.all_converged
        for agent in graph.topo_order:
            fit = trace.models[agent]
            design = agent_design(ds, graph, agent, columns)
            moments = residual_moments(design, columns[agent], ds.labels)
            assert fit.grad_norm == float(np.max(np.abs(moments))), agent


class TestStreaming:
    """Every run keeps a column only until its last reader has built its
    design; ``publish`` is how a caller sees every column."""

    @pytest.mark.parametrize(
        "k, graph",
        [
            (4, cyclic_path_assignment(4, 12)),
            (4, _diamond_dag()),
            (8, _layered_dag()),
            (4, _skip_edge_dag()),
        ],
        ids=["cyclic_path", "diamond", "layered_6x4", "skip_edge"],
    )
    def test_streaming_run_matches_kept_columns_bitwise(self, k, graph):
        # The kept columns are the ones the caller collects from publish.
        ds = generate_hard_instance(HardInstanceSpec(k=k, n=20_000, seed=3))
        published = []
        trace = run_protocol(ds, graph, publish=lambda a, col: published.append((a, col)))
        assert trace.logits == {}
        assert [a for a, _ in published] == list(graph.topo_order)
        # Checked after the run, so later fits left the published arrays alone.
        columns = dict(published)
        for agent, column in published:
            model = trace.models[agent]
            design = agent_design(ds, graph, agent, columns)
            assert column.tobytes() == (design @ model.weights).tobytes(), agent
            assert model.loss == bce_loss(column, ds.labels), agent

    def test_streaming_peak_memory_does_not_grow_with_depth(self):
        # A path holds at most two columns at a time, so quadrupling the depth
        # may not add more than two columns to the peak.
        n = 20_000
        ds = generate_hard_instance(HardInstanceSpec(k=4, n=n, seed=1))
        peaks = {}
        for depth in (16, 64):
            graph = cyclic_path_assignment(4, depth)
            tracemalloc.start()
            try:
                run_protocol(ds, graph)
                peaks[depth] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] - peaks[16] <= 2 * 8 * n, peaks


    def test_peak_memory_holds_no_agent_design(self):
        # Fits read each agent's columns in row blocks, so the peak is the
        # fit's two row arrays, the frontier and the block buffers, under 5
        # columns and the blocks; an n x 6 copy of the widest design would
        # pass that, and so would a fit holding four row arrays.
        n = 100_000
        ds = generate_hard_instance(HardInstanceSpec(k=8, n=n, seed=1))
        graph = _windowed_path()
        width = max(
            len(graph.feature_set(a)) + len(graph.parents_of(a)) for a in graph.topo_order
        )
        assert width == 6
        # The gathered block and its weighted copy, then two scratch rows.
        blocks = 8 * (2 * width + 2) * _fit_block_rows(width)
        tracemalloc.start()
        try:
            run_protocol(ds, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * n + blocks, peak


class TestGatheredDesign:
    """A fit gathers its design from the dataset's columns one row block at a
    time; the published column is bitwise the product with the whole design."""

    @staticmethod
    def _widths_path():
        # Agent w has width w: w - 1 features and its predecessor's column.
        features = [{1}] + [set(range(1, w)) for w in range(2, 10)]
        return build_agent_graph([(a, a + 1) for a in range(1, 9)], features, d=8)

    def test_every_width_publishes_the_product_in_either_order(self):
        # n is not a multiple of any block's rows.
        n = 2 * _fit_block_rows(1) + 77
        f_ds = generate_hard_instance(HardInstanceSpec(k=8, n=n, seed=4))
        assert f_ds.features.flags.f_contiguous
        c_ds = Dataset(features=np.ascontiguousarray(f_ds.features), labels=f_ds.labels)
        assert c_ds.features.flags.c_contiguous
        graph = self._widths_path()
        published = {}
        for ds in (f_ds, c_ds):
            trace, columns = _run_with_columns(ds, graph)
            for agent in graph.topo_order:
                model = trace.models[agent]
                design = np.asarray(agent_design(ds, graph, agent, columns))
                assert design.shape == (n, agent)
                assert columns[agent].tobytes() == (design @ model.weights).tobytes(), agent
                assert model.loss == bce_loss(columns[agent], ds.labels), agent
            published[ds.features.flags.c_contiguous] = columns
        for agent in graph.topo_order:
            assert published[True][agent].tobytes() == published[False][agent].tobytes()


class TestCarriedState:
    """Carrying each fit's final state to the next fit changes no result."""

    @pytest.mark.parametrize(
        "k, graph, carried_fits",
        [
            (4, cyclic_path_assignment(4, 12), 11),
            (8, _windowed_path(), 24),
            (6, _layered_dag(3, 3), None),
        ],
        ids=["cyclic_path", "windowed_path", "layered_3x3"],
    )
    def test_run_matches_cleared_state_bitwise(self, monkeypatch, k, graph, carried_fits):
        ds = generate_hard_instance(HardInstanceSpec(k=k, n=20_000, seed=5))
        softplus_passes = []
        softplus = nia.logistic._softplus_exp

        def counting(*args):
            softplus_passes.append(None)
            return softplus(*args)

        def counted_fits(clear):
            counts = []

            def fit(design, labels, opts, start, carry):
                if clear:
                    carry.sigmoid = None
                before = len(softplus_passes)
                result = fit_logistic(design, labels, opts, start, carry)
                counts.append(len(softplus_passes) - before)
                return result

            return fit, counts

        monkeypatch.setattr(nia.logistic, "_softplus_exp", counting)
        carried, with_counts = counted_fits(clear=False)
        cleared, without_counts = counted_fits(clear=True)
        monkeypatch.setattr(nia.protocol, "fit_logistic", carried)
        with_state, with_columns = _run_with_columns(ds, graph)
        monkeypatch.setattr(nia.protocol, "fit_logistic", cleared)
        without, without_columns = _run_with_columns(ds, graph)
        # A fit that takes the carried loss forms no loss rows on its start.
        reused = [a < b for a, b in zip(with_counts, without_counts)]
        if carried_fits is None:
            # Some agent's best parent is not the agent fitted just before it.
            assert 0 < sum(reused) < len(reused) - 1, reused
        else:
            assert sum(reused) == carried_fits
        for agent in graph.topo_order:
            a, b = with_state.models[agent], without.models[agent]
            assert a.weights.tobytes() == b.weights.tobytes(), agent
            assert (a.loss, a.iterations, a.grad_norm) == (b.loss, b.iterations, b.grad_norm)
            assert with_columns[agent].tobytes() == without_columns[agent].tobytes()

    def test_carry_never_adds_a_pass(self, monkeypatch):
        # Reuse is decided before any pass, so no fit given the run's carry
        # gathers more row blocks than the same fit without it.
        ds = generate_hard_instance(HardInstanceSpec(k=6, n=20_000, seed=5))
        gathers, counts = [], []
        gather = Design.gather

        def counting(self, start, stop, out):
            gathers.append(start)
            return gather(self, start, stop, out)

        def with_and_without(design, labels, opts, start, carry):
            before = len(gathers)
            fit_logistic(design, labels, opts, start)
            without = len(gathers) - before
            result = fit_logistic(design, labels, opts, start, carry)
            counts.append((len(gathers) - before - without, without))
            return result

        monkeypatch.setattr(Design, "gather", counting)
        monkeypatch.setattr(nia.protocol, "fit_logistic", with_and_without)
        run_protocol(ds, _layered_dag(3, 3))
        assert len(counts) == 10
        assert all(with_carry <= without for with_carry, without in counts), counts

    def test_width_one_column_is_the_product(self):
        # The first agent of a path (one feature, no parent) iterates from
        # zero; a featureless single-parent sink starts at its optimum, so
        # its column is the product at pass-through.
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=20_000, seed=9))
        graph = build_agent_graph([(1, 2), (2, 3)], [{1}, {2, 3}, set()], d=3)
        trace, columns = _run_with_columns(ds, graph)
        for agent, start in ((1, None), (3, [1.0])):
            f_design = np.asarray(agent_design(ds, graph, agent, columns))
            c_design = np.ascontiguousarray(f_design[:, 0]).reshape(-1, 1)
            assert f_design.strides != c_design.strides
            for design in (f_design, c_design):
                carry = FitCarry()
                fit = fit_logistic(design, ds.labels, start=start, carry=carry)
                assert fit.iterations == trace.models[agent].iterations
                assert fit.weights.tobytes() == trace.models[agent].weights.tobytes()
                assert carry.logits.tobytes() == (design @ fit.weights).tobytes()
                assert carry.logits.tobytes() == columns[agent].tobytes()
                assert fit.loss == bce_loss(carry.logits, ds.labels)


class TestSinkExcessLoss:
    def test_single_all_features_agent_has_zero_excess(self):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=5000, seed=4))
        g = build_agent_graph([], [{1, 2, 3}], d=3)
        opts = FitOptions()
        trace = run_protocol(ds, g, opts)
        gfit = fit_logistic(ds.features, ds.labels, opts)
        excess = sink_excess_loss(trace, gfit)
        assert abs(excess) <= 10 * opts.grad_tol

    def test_excess_bounded_below_by_solver_slack(self):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=10_000, seed=15))
        opts = FitOptions()
        trace = run_protocol(ds, cyclic_path_assignment(3, 9), opts)
        gfit = fit_logistic(ds.features, ds.labels, opts)
        assert sink_excess_loss(trace, gfit) >= -10 * opts.grad_tol

    def test_covered_path_excess_below_depth_bound(self):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=20_000, seed=16))
        opts = FitOptions()
        depth = 24
        trace = run_protocol(ds, cyclic_path_assignment(3, depth), opts)
        gfit = fit_logistic(ds.features, ds.labels, opts)
        excess = sink_excess_loss(trace, gfit)
        bound = convergence_bound_rhs(
            gfit.l1_norm, feature_second_moment_bound(ds.features), 3, depth
        )
        assert excess <= bound

    def test_second_pass_strictly_improves(self):
        opts = FitOptions()
        one_pass, two_pass = [], []
        for seed in range(1, 6):
            ds = generate_hard_instance(HardInstanceSpec(k=4, n=50_000, seed=seed))
            gfit = fit_logistic(ds.features, ds.labels, opts)
            trace = run_protocol(ds, cyclic_path_assignment(4, 8), opts)
            losses = trace.loss_path()
            one_pass.append(float(losses[3]) - gfit.loss)
            two_pass.append(float(losses[7]) - gfit.loss)
        assert np.mean(two_pass) < np.mean(one_pass)

    def test_warns_when_global_fit_unconverged(self):
        # Either side missing its tolerance warns: the global fit, or the sink.
        ds = generate_hard_instance(HardInstanceSpec(k=2, n=2000, seed=2))
        g = cyclic_path_assignment(2, 2)
        capped = FitOptions(max_iters=1)
        trace = run_protocol(ds, g)
        bad_global = fit_logistic(ds.features, ds.labels, capped)
        assert not bad_global.converged
        with pytest.warns(NotConvergedWarning, match="global fit did not converge"):
            sink_excess_loss(trace, bad_global)
        bad_trace = run_protocol(ds, g, capped)
        assert not bad_trace.models[bad_trace.sink_id].converged
        with pytest.warns(NotConvergedWarning, match="sink agent 2 did not converge"):
            sink_excess_loss(bad_trace, fit_logistic(ds.features, ds.labels))
