import numpy as np
import pytest

from influencegame import (
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
