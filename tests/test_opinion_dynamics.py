import math
import warnings

import numpy as np
import pytest

from influencegame import (
    CampaignSchedule,
    Network,
    OpinionState,
    build_network,
    check_stochastic,
    propagator,
)
from influencegame.opinion_dynamics import _flow
from conftest import PATH_ADJACENCY, PATH_LAPLACIAN, star_adjacency

# exp(-L * 1) for the path Laplacian, computed ahead of time by
# eigendecomposition (eigenvalues 0, 1/3, 1 of the symmetric L).
PATH_PROPAGATOR_DT1 = np.array([
    [0.752912228815468, 0.210706852942852, 0.036380918241679],
    [0.210706852942852, 0.578586294114295, 0.210706852942852],
    [0.036380918241679, 0.210706852942852, 0.752912228815468],
])


def random_network(rng, n):
    weights = rng.random((n, n)) + 0.05 + np.eye(n)
    return build_network(weights)


def reference_flow(adjacency, dt):
    """The plain builder that ``_flow`` must match bit for bit: the same
    series, squaring counts and renormalizations, written with a sort, a
    bincount and a fresh array at every step rather than in place."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[-1]
    shape = np.broadcast(adjacency[..., 0, 0], dt).shape
    times = np.broadcast_to(np.asarray(dt, dtype=float), shape).ravel().tolist()
    squarings = [max(0, math.ceil(math.log2(t)) + 2) if t > 0 else 0 for t in times]
    scales = np.array([math.ldexp(t, -s) for t, s in zip(times, squarings)])
    scaled = adjacency * scales.reshape(shape + (1, 1))
    result = eye = np.eye(n)
    for k in range(13, 0, -1):
        result = eye + (scaled @ result) / k
    result /= result.sum(axis=-1, keepdims=True)
    order = sorted(range(len(times)), key=squarings.__getitem__, reverse=True)
    counts = [squarings[i] for i in order]
    result = result.reshape(-1, n, n)[order]
    # at_least[c]: how many items take c squarings or more; they lead the stack
    at_least = np.cumsum(np.bincount(counts, minlength=1)[::-1])[::-1].tolist() + [0]
    for count in range(1, len(at_least) - 1):
        active, staying = at_least[count], at_least[count + 1]
        head = result[:active] @ result[:active]
        done = head if count % 32 == 0 else head[staying:]
        done /= done.sum(axis=-1, keepdims=True)
        result[:active] = head
    out = np.empty(shape + (n, n))
    out.reshape(-1, n, n)[order] = result
    return out


class TestBuildNetwork:
    def test_identity_adjacency_gives_zero_laplacian(self):
        net = build_network(np.eye(3))
        assert np.array_equal(net.laplacian, np.zeros((3, 3)))

    def test_path_adjacency_recovers_laplacian(self):
        net = build_network(PATH_ADJACENCY)
        np.testing.assert_allclose(net.laplacian, PATH_LAPLACIAN, atol=1e-14)

    def test_two_cycle(self):
        net = build_network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(net.laplacian, [[1, -1], [-1, 1]], atol=1e-15)

    def test_laplacian_is_derived_from_the_adjacency(self):
        # the adjacency is the only field, so a network cannot carry a
        # Laplacian of some other graph
        a = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]])
        net = Network(adjacency=a)
        assert net.n == 3
        np.testing.assert_array_equal(net.laplacian, np.eye(3) - a)
        assert not net.laplacian.flags.writeable

    def test_rows_are_normalized(self):
        net = build_network(np.array([[2.0, 6.0], [1.0, 3.0]]))
        np.testing.assert_allclose(net.adjacency, [[0.25, 0.75], [0.25, 0.75]])
        np.testing.assert_allclose(net.adjacency.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_network(np.ones((2, 3)))
        with pytest.raises(ValueError):
            build_network(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            build_network(np.array([[1.0, -0.1], [0.2, 0.8]]))

    @pytest.mark.parametrize("adjacency, match", [
        pytest.param(np.full((2, 3), 1.0 / 3.0), "square", id="non-square"),
        pytest.param(np.array([[1.1, -0.1], [0.5, 0.5]]), "nonnegative", id="negative"),
        pytest.param(np.array([[0.5, 0.25], [0.5, 0.5]]), "sum to 1", id="non-stochastic"),
    ])
    def test_network_refuses_bad_adjacency_directly(self, adjacency, match):
        # build_network refuses the first two before a Network is made
        with pytest.raises(ValueError, match=match):
            Network(adjacency=adjacency)

    def test_row_sum_past_the_float_range_is_refused_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="adjacency rows must sum to 1"):
                Network(adjacency=[[1e308, 1e308], [0.5, 0.5]])

    @pytest.mark.parametrize("build", [Network, build_network])
    def test_empty_adjacency_is_a_named_error(self, build):
        with pytest.raises(ValueError, match="at least one individual"):
            build(np.zeros((0, 0)))


class TestPropagator:
    def test_zero_time_is_identity(self, path_network):
        np.testing.assert_allclose(propagator(path_network, 0.0), np.eye(3),
                                   atol=1e-15)

    def test_path_network_unit_time_matches_eigendecomposition(self, path_network):
        np.testing.assert_allclose(propagator(path_network, 1.0),
                                   PATH_PROPAGATOR_DT1, atol=1e-12)

    def test_long_time_reaches_stationary_rows(self, path_network):
        # doubly stochastic adjacency: the stationary distribution is uniform
        matrix = propagator(path_network, 1000.0)
        assert np.max(np.abs(matrix - 1.0 / 3.0)) < 1e-6

    def test_negative_time_rejected(self, path_network):
        with pytest.raises(ValueError):
            propagator(path_network, -0.1)

    @pytest.mark.parametrize("bad", [-0.1, np.inf, np.nan])
    def test_one_bad_gap_in_an_array_rejected(self, path_network, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            propagator(path_network, np.array([0.5, 2.0, bad, 1.0]))

    def test_array_of_gaps_gives_a_read_only_stack(self, path_network):
        gaps = np.array([[0.0, 1.0], [0.25, 1000.0]])
        stack = propagator(path_network, gaps)
        assert stack.shape == (2, 2, 3, 3) and not stack.flags.writeable
        for index in np.ndindex(gaps.shape):
            assert np.array_equal(stack[index], propagator(path_network, gaps[index]))

    def test_stochasticity_over_random_networks(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            net = random_network(rng, int(rng.integers(2, 7)))
            matrix = propagator(net, float(rng.random() * 100))
            assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-10
            assert matrix.min() >= -1e-12

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 6)))
            dt1, dt2 = rng.random(2) * 5.0
            combined = propagator(net, dt1) @ propagator(net, dt2)
            direct = propagator(net, dt1 + dt2)
            assert np.max(np.abs(combined - direct)) <= 1e-8

    def test_flow_against_series(self):
        # the builder against the plain series of exp(-L t), which converges
        # fast at these times (||L t|| <= 2)
        rng = np.random.default_rng(3)
        for t in (0.05, 0.3, 1.0):
            network = random_network(rng, 4)
            a = -network.laplacian * t
            series = np.eye(4)
            term = np.eye(4)
            for k in range(1, 30):
                term = term @ a / k
                series = series + term
            np.testing.assert_allclose(_flow(network.adjacency, t), series, rtol=0, atol=1e-13)

    def test_star_rows_reach_the_stationary_row_at_every_gap_length(self):
        # a builder whose row-sum round-off doubles with each squaring fails
        # the check on the n = 200 star from dt = 1e4 and overflows from 1e19
        for n, gaps in ((200, (1e2, 1e4, 1e6)), (50, (1e19, 1e300))):
            network = build_network(star_adjacency(n))
            stationary = np.full(n, 1.0 / (2 * (n - 1)))
            stationary[0] = 0.5
            for dt in gaps:
                with np.errstate(over="raise", invalid="raise"):
                    matrix = propagator(network, dt)
                assert check_stochastic(matrix).passed
                np.testing.assert_allclose(matrix, np.broadcast_to(stationary, (n, n)),
                                           rtol=0, atol=1e-12)


class TestCheckStochastic:
    def test_non_square_matrix_refused(self):
        with pytest.raises(ValueError, match="square"):
            check_stochastic(np.full((2, 3), 0.5))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0), (0, 0, 0)])
    def test_matrices_without_rows_refused(self, shape):
        # like a network without individuals, before any reduction over rows
        with pytest.raises(ValueError, match="matrices of at least one row"):
            check_stochastic(np.zeros(shape))

    def test_stack_of_no_matrices_passes_empty(self):
        report = check_stochastic(np.zeros((0, 3, 3)))
        assert report.passed
        assert report.row_sum_violation == report.negativity_violation == 0.0


class TestStackedFlow:
    GAPS = np.array([0.0, 1e-300, 0.25, 1.0, 1e4, 1e300])

    @pytest.mark.parametrize("n", [1, 2, 8, 50, 200])
    def test_stack_matches_one_item_builds_bit_for_bit(self, n):
        # every item keeps its own squaring count, scale and renormalizations
        rng = np.random.default_rng(n)
        adjacency = np.stack([random_network(rng, n).adjacency for _ in self.GAPS])
        with np.errstate(over="raise", invalid="raise"):
            stack = _flow(adjacency, self.GAPS)
            shared = _flow(adjacency[0], self.GAPS)  # one adjacency broadcast over dt
            for i, dt in enumerate(self.GAPS):
                assert np.array_equal(stack[i], _flow(adjacency[i], dt))
                assert np.array_equal(shared[i], _flow(adjacency[0], dt))
        assert stack.shape == shared.shape == (len(self.GAPS), n, n)

    def test_stack_shape_broadcasts(self):
        rng = np.random.default_rng(0)
        adjacency = np.stack([random_network(rng, 3).adjacency for _ in range(2)])
        gaps = np.array([[0.5], [2.0], [7.0]])
        stack = _flow(adjacency, gaps)
        assert stack.shape == (3, 2, 3, 3)
        for row, column in np.ndindex(3, 2):
            assert np.array_equal(stack[row, column], _flow(adjacency[column], gaps[row, 0]))
        assert _flow(adjacency[0], np.zeros(0)).shape == (0, 3, 3)


class TestFlowAgainstReference:
    GAPS = [*TestStackedFlow.GAPS, 0.3, 1.7, 3.7]

    @staticmethod
    def assert_bit_equal(adjacency, dt):
        with np.errstate(over="raise", invalid="raise"):
            built, reference = _flow(adjacency, dt), reference_flow(adjacency, dt)
        assert built.shape == reference.shape
        assert np.array_equal(built, reference)
        assert built.tobytes() == reference.tobytes()  # signed zeros too

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50, 200])
    def test_one_matrix_per_gap(self, n):
        adjacency = random_network(np.random.default_rng(n), n).adjacency
        for dt in self.GAPS:
            self.assert_bit_equal(adjacency, dt)

    def test_stack_with_squaring_counts_out_of_order(self):
        # counts 4, 0, 999, 0, 16, 3, 0, 1, 2: the builder squares the items
        # that share a nonzero count together, one count at a time, and
        # assigns them back in their places; then stacks whose items all
        # take 0 squarings, and all take 3
        rng = np.random.default_rng(4)
        for gaps in (np.array(self.GAPS)[[8, 0, 5, 1, 4, 7, 2, 6, 3]],
                     np.array([0.0, 1e-300, 0.1, 0.25]), np.array([1.1, 1.5, 1.7, 2.0])):
            adjacency = np.stack([random_network(rng, 8).adjacency for _ in gaps])
            self.assert_bit_equal(adjacency, gaps)

    def test_one_adjacency_broadcast_over_gaps(self):
        adjacency = random_network(np.random.default_rng(9), 8).adjacency
        self.assert_bit_equal(adjacency, np.reshape(self.GAPS, (3, 3)))


class TestNonRealInputRefused:
    """Bools, strings and complex numbers are refused, not coerced to floats."""

    @pytest.mark.parametrize("dt", [
        pytest.param("1", id="string"),
        pytest.param(True, id="bool"),
        pytest.param(np.array(["1", "2"]), id="string-array"),
        pytest.param(1.0 + 0j, id="complex"),
        pytest.param(np.array([0.5, 1.0 + 1j]), id="complex-array"),
    ])
    def test_propagator(self, path_network, dt):
        with pytest.raises(ValueError, match="propagation time must be real numbers"):
            propagator(path_network, dt)

    @pytest.mark.parametrize("times", [
        pytest.param(np.array(["0", "1.5"]), id="strings"),
        pytest.param(np.array([False, True]), id="bools"),
        pytest.param(np.array([0.0, 1.5 + 0j]), id="complex"),
    ])
    def test_schedule(self, times):
        with pytest.raises(ValueError, match="schedule times must be real numbers"):
            CampaignSchedule(times=times)

    @pytest.mark.parametrize("build", [Network, build_network])
    @pytest.mark.parametrize("adjacency", [
        pytest.param(np.eye(2, dtype=bool), id="bools"),
        pytest.param(np.array([["1", "0"], ["0", "1"]]), id="strings"),
        pytest.param(np.eye(2) + 0j, id="complex"),
    ])
    def test_network(self, build, adjacency):
        with pytest.raises(ValueError, match="network weights must be real numbers"):
            build(adjacency)

    @pytest.mark.parametrize("values", [
        pytest.param(np.array([True, False]), id="bools"),
        pytest.param(np.array(["0.5", "0.5"]), id="strings"),
        pytest.param(np.array([0.5, 0.5 + 0j]), id="complex"),
    ])
    def test_opinion_state(self, values):
        with pytest.raises(ValueError, match="opinions must be real numbers"):
            OpinionState(values)


class TestOpinionState:
    def test_range_validated(self):
        with pytest.raises(ValueError):
            OpinionState(np.array([[1.2]]))
        with pytest.raises(ValueError):
            OpinionState(np.array([[-0.2]]))

    def test_three_dimensional_array_refused(self):
        with pytest.raises(ValueError, match="n x m matrix"):
            OpinionState(np.full((2, 2, 2), 0.5))

    def test_vector_promoted_to_column(self):
        state = OpinionState(np.array([0.1, 0.9]))
        assert state.values.shape == (2, 1)
        assert state.n == 2 and state.m == 1
