import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from flmarket.mechanism import (
    Contract,
    MarketParams,
    Regime,
    client_utility,
    cost,
    ic_diagnostic,
    information_rent,
    largest_term,
    realized_value,
    server_utility_per_client,
    solve,
    solve_complete,
    solve_incomplete,
)

PARAMS = MarketParams(lam=1.0, delta=2.0)
GRID = [i / 1000 for i in range(1001)]


def params_with(lam=1.0, delta=2.0):
    return MarketParams(lam, delta)


class TestCost:
    def test_unit_output_zero_theta(self):
        assert cost(1.0, 0.0, 2.0) == 1.0

    def test_top_type(self):
        assert cost(1.5, 1.0, 2.0) == pytest.approx(0.75, abs=1e-15)

    def test_zero_output(self):
        assert cost(0.0, 0.3, 2.0) == 0.0

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            cost(1.0, 1.5, 2.0)
        with pytest.raises(ValueError):
            cost(1.0, -0.1, 2.0)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            cost(1.0, 0.5, 0.0)

    @given(
        q=st.floats(0.0, 10.0),
        dq=st.floats(1e-6, 5.0),
        theta=st.floats(0.0, 1.0),
        delta=st.floats(0.1, 10.0),
    )
    def test_increasing_in_output(self, q, dq, theta, delta):
        assert cost(q + dq, theta, delta) > cost(q, theta, delta) or q + dq == q

    @given(q=st.floats(1e-3, 10.0), delta=st.floats(0.1, 10.0))
    def test_decreasing_in_theta(self, q, delta):
        assert cost(q, 1.0, delta) < cost(q, 0.0, delta)


class TestClientUtility:
    def test_breakeven(self):
        assert client_utility(Contract(1.0, 0.5), 0.5, 2.0) == 0.0

    def test_null_contract(self):
        assert client_utility(Contract(0.0, 0.0), 0.3, 2.0) == 0.0

    def test_full_extraction_contract(self):
        assert client_utility(Contract(1.5, 0.75), 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)


class TestParticipation:
    """Every type takes its contract: complete information pays exactly the
    cost, incomplete information the cost plus a nonnegative rent."""

    @given(
        theta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        log_lam=st.floats(-300.0, 300.0),
        log_delta=st.floats(-300.0, 300.0),
    )
    def test_utility_is_zero_or_a_nonnegative_rent(self, theta, log_lam, log_delta):
        lam, delta = 10.0**log_lam, 10.0**log_delta
        assume(math.isfinite(largest_term(lam, delta)))
        params = params_with(lam, delta)
        assert client_utility(solve(theta, params, Regime.COMPLETE), theta, delta) == 0.0
        assert client_utility(solve(theta, params, Regime.INCOMPLETE), theta, delta) >= 0.0


class TestServerSide:
    def test_per_client_utility(self):
        assert server_utility_per_client(Contract(1.5, 0.75), PARAMS) == 0.75
        assert server_utility_per_client(Contract(0.5, 0.25), PARAMS) == 0.25
        assert server_utility_per_client(Contract(0.0, 0.0), PARAMS) == 0.0


class TestSolveComplete:
    @pytest.mark.parametrize(
        "theta,lam,expected_q,expected_r",
        [(1.0, 1.0, 1.5, 0.75), (0.5, 1.0, 1.0, 0.5), (0.0, 2.0, 1.0, 1.0)],
    )
    def test_known_points(self, theta, lam, expected_q, expected_r):
        c = solve_complete(theta, params_with(lam=lam))
        assert c.q == pytest.approx(expected_q, abs=1e-15)
        assert c.r == pytest.approx(expected_r, abs=1e-15)

    def test_first_order_condition(self):
        for theta in GRID:
            c = solve_complete(theta, PARAMS)
            residual = PARAMS.lam - 2.0 * c.q / (1.0 + PARAMS.delta * theta)
            assert abs(residual) <= 1e-12

    def test_zero_rent_over_parameter_box(self):
        grid = [i / 1000 for i in range(1001)]
        for lam in (0.5, 1.0, 2.0):
            for delta in (1.0, 2.0, 4.0):
                p = params_with(lam=lam, delta=delta)
                for theta in grid:
                    c = solve_complete(theta, p)
                    assert abs(client_utility(c, theta, delta)) <= 1e-12


class TestSolveIncomplete:
    @pytest.mark.parametrize(
        "theta,expected_q,expected_r",
        [(1.0, 1.5, 0.75), (0.5, 2 / 3, 1 / 3), (0.0, 1 / 6, 1 / 12)],
    )
    def test_known_points(self, theta, expected_q, expected_r):
        c = solve_incomplete(theta, PARAMS)
        assert c.q == pytest.approx(expected_q, abs=1e-15)
        assert c.r == pytest.approx(expected_r, abs=1e-15)

    def test_reduces_to_paper_closed_form(self):
        # q* must coincide with (1+2*theta)^2 / 6 at lam=1, delta=2.
        for theta in GRID:
            c = solve_incomplete(theta, PARAMS)
            assert abs(c.q - (1 + 2 * theta) ** 2 / 6) <= 1e-12

    def test_first_order_condition_with_rent_term(self):
        for lam in (0.5, 1.0, 2.0):
            for delta in (1.0, 2.0, 4.0):
                p = params_with(lam=lam, delta=delta)
                for theta in GRID[::10]:
                    q = solve_incomplete(theta, p).q
                    a = 1.0 + delta * theta
                    residual = lam - (2 * q / a + (1 - theta) * 2 * delta * q / a**2)
                    assert abs(residual) <= 1e-9

    def test_client_keeps_exactly_the_rent(self):
        for theta in GRID:
            c = solve_incomplete(theta, PARAMS)
            rent = information_rent(theta, c.q, PARAMS.delta)
            assert client_utility(c, theta, PARAMS.delta) == pytest.approx(rent, abs=1e-12)
            assert rent >= 0.0

    def test_downward_distortion(self):
        for theta in GRID:
            q_ci = solve_complete(theta, PARAMS).q
            q_star = solve_incomplete(theta, PARAMS).q
            assert q_star <= q_ci + 1e-12
            if theta < 1.0:
                assert q_star < q_ci

    def test_no_distortion_at_the_top(self):
        ci = solve_complete(1.0, PARAMS)
        star = solve_incomplete(1.0, PARAMS)
        assert (star.q, star.r) == (ci.q, ci.r) == (1.5, 0.75)

    def test_server_prefers_information(self):
        prev_gap = None
        for theta in GRID:
            gap = server_utility_per_client(
                solve_complete(theta, PARAMS), PARAMS
            ) - server_utility_per_client(solve_incomplete(theta, PARAMS), PARAMS)
            assert gap >= -1e-12
        assert abs_gap_at_top() <= 1e-9

    def test_outputs_monotone_in_theta(self):
        prev_ci = prev_star = -math.inf
        for theta in GRID:
            q_ci = solve_complete(theta, PARAMS).q
            q_star = solve_incomplete(theta, PARAMS).q
            assert q_ci >= prev_ci and q_star >= prev_star
            prev_ci, prev_star = q_ci, q_star


def abs_gap_at_top():
    return abs(
        server_utility_per_client(solve_complete(1.0, PARAMS), PARAMS)
        - server_utility_per_client(solve_incomplete(1.0, PARAMS), PARAMS)
    )


class TestInformationRent:
    def test_zero_at_top(self):
        assert information_rent(1.0, 1.5, 2.0) == 0.0

    def test_mid_type(self):
        assert information_rent(0.5, 2 / 3, 2.0) == pytest.approx(1 / 9, abs=1e-15)

    def test_bottom_type(self):
        assert information_rent(0.0, 1 / 6, 2.0) == pytest.approx(1 / 18, abs=1e-15)

    @given(theta=st.floats(0.0, 1.0), q=st.floats(0.0, 10.0), delta=st.floats(0.1, 10.0))
    def test_nonnegative(self, theta, q, delta):
        assert information_rent(theta, q, delta) >= 0.0


class TestIcDiagnostic:
    def test_truthful_report_has_zero_violation(self):
        for theta in (1.0, 0.25):
            d = ic_diagnostic(theta, [theta], PARAMS)
            assert d.violation.tolist() == [0.0]
            assert d.misreport_utility.tolist() == [d.truthful_utility]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ic_diagnostic(0.5, [], PARAMS)

    def test_violation_definition(self):
        d = ic_diagnostic(0.5, [i / 10 for i in range(11)], PARAMS)
        assert d.reported_theta.tolist() == [i / 10 for i in range(11)]
        assert d.violation.tolist() == [
            max(0.0, misreport - d.truthful_utility) for misreport in d.misreport_utility.tolist()
        ]

    def test_max_violation_regression_fixture(self):
        # Frozen from exhaustive evaluation of the 101-point grid at
        # theta=0.5, lam=1, delta=2: the transfers are not globally IC and
        # the largest gain from misreporting on this grid is the value below.
        d = ic_diagnostic(0.5, [i / 100 for i in range(101)], PARAMS)
        assert max(d.violation.tolist()) == pytest.approx(0.01387830888888894, abs=1e-12)

    def test_grid_equals_each_report_solved_alone(self):
        grid = [i / 100 for i in range(101)]
        d = ic_diagnostic(0.5, grid, PARAMS)
        truthful = client_utility(solve_incomplete(0.5, PARAMS), 0.5, PARAMS.delta)
        misreports = [
            client_utility(solve_incomplete(reported, PARAMS), 0.5, PARAMS.delta)
            for reported in grid
        ]
        assert d.truthful_utility == truthful
        assert d.misreport_utility.tolist() == misreports
        assert d.violation.tolist() == [max(0.0, m - truthful) for m in misreports]
        assert max(d.violation.tolist()) == 0.01387830888888894

    def test_out_of_range_report_is_named(self):
        with pytest.raises(ValueError, match=r"got 1\.5 at index 2$"):
            ic_diagnostic(0.5, [0.0, 1.0, 1.5, -1.0], PARAMS)


class TestMarketParams:
    def test_rejects_bad_slopes(self):
        with pytest.raises(ValueError):
            MarketParams(0.0, 2.0)
        with pytest.raises(ValueError):
            MarketParams(1.0, -1.0)

    @given(log_lam=st.floats(-300.0, 300.0), log_delta=st.floats(-300.0, 300.0))
    def test_accepted_markets_form_only_finite_terms(self, log_lam, log_delta):
        lam, delta = 10.0**log_lam, 10.0**log_delta
        try:
            params = MarketParams(lam, delta)
        except ValueError:
            return
        q_top = solve_complete(1.0, params).q
        peak = [(4 * delta - 1) / (5 * delta)] if delta >= 0.25 else []  # the rent's peak
        for theta in [0.0, 0.5, 1.0, *peak]:
            for contract in (solve_complete(theta, params), solve_incomplete(theta, params)):
                assert math.isfinite(server_utility_per_client(contract, params))
                assert math.isfinite(client_utility(contract, theta, delta))
            assert math.isfinite(cost(q_top, theta, delta) * 1.3)  # the largest bid

    def test_contract_rejects_negative_terms(self):
        with pytest.raises(ValueError):
            Contract(-0.1, 0.0)
        with pytest.raises(ValueError):
            Contract(0.0, -0.1)


def bits(values):
    """The bytes of `values`, a float array or a list of floats, as float64."""
    return np.asarray(values, dtype=float).tobytes()


# Arrays of types in [0, 1] that hold both ends, in any order.
THETA_ARRAYS = st.lists(st.floats(0.0, 1.0), max_size=30).flatmap(
    lambda thetas: st.permutations([0.0, 1.0, *thetas])
).map(np.array)

MARKETS = st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)).map(
    lambda logs: (10.0 ** logs[0], 10.0 ** logs[1])
)


class TestArrayForms:
    """Each closed form of an array of types equals, element for element
    and bit for bit, the form of each type alone."""

    @given(thetas=THETA_ARRAYS, market=MARKETS)
    def test_every_form_equals_the_scalar_calls(self, thetas, market):
        lam, delta = market
        assume(math.isfinite(largest_term(lam, delta)))
        params = params_with(lam, delta)
        scalars = thetas.tolist()
        for regime, solver in ((Regime.COMPLETE, solve_complete),
                               (Regime.INCOMPLETE, solve_incomplete)):
            contracts = solve(thetas, params, regime)
            alone = [solve(theta, params, regime) for theta in scalars]
            assert alone == [solver(theta, params) for theta in scalars]
            assert bits(solver(thetas, params).q) == bits(contracts.q)
            assert bits(contracts.q) == bits([c.q for c in alone])
            assert bits(contracts.r) == bits([c.r for c in alone])
            assert bits(cost(contracts.q, thetas, delta)) == bits(
                [cost(c.q, theta, delta) for c, theta in zip(alone, scalars)]
            )
            assert bits(information_rent(thetas, contracts.q, delta)) == bits(
                [information_rent(theta, c.q, delta) for c, theta in zip(alone, scalars)]
            )
            assert bits(client_utility(contracts, thetas, delta)) == bits(
                [client_utility(c, theta, delta) for c, theta in zip(alone, scalars)]
            )
            assert bits(server_utility_per_client(contracts, params)) == bits(
                [server_utility_per_client(c, params) for c in alone]
            )

    @given(
        thetas=st.lists(st.floats(0.0, 1.0), max_size=10),
        bad=st.lists(
            st.tuples(
                st.integers(0, 10),
                st.floats(max_value=-1e-300) | st.floats(min_value=1.0, exclude_min=True)
                | st.just(math.nan),
            ),
            min_size=1, max_size=3,
        ),
    )
    def test_an_array_names_its_first_type_out_of_range(self, thetas, bad):
        for position, value in bad:
            thetas.insert(min(position, len(thetas)), value)
        first = next(i for i, t in enumerate(thetas) if not 0.0 <= t <= 1.0)
        array = np.array(thetas)
        message = re.escape(
            f"efficiency theta must lie in [0, 1], got {thetas[first]!r} at index {first}"
        )
        calls = [
            lambda: cost(1.0, array, 2.0),
            lambda: information_rent(array, 1.0, 2.0),
            lambda: solve_complete(array, PARAMS),
            lambda: solve_incomplete(array, PARAMS),
            lambda: solve(array, PARAMS, Regime.COMPLETE),
            lambda: solve(array, PARAMS, Regime.INCOMPLETE),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    def test_a_float_message_names_no_index(self):
        with pytest.raises(ValueError, match=r"^efficiency theta must lie in \[0, 1\], got 1\.5$"):
            solve(1.5, PARAMS, Regime.COMPLETE)
        with pytest.raises(ValueError, match=r"^output q must be nonnegative, got -1\.0$"):
            cost(-1.0, 0.5, 2.0)

    def test_an_array_names_its_first_negative_output(self):
        with pytest.raises(ValueError, match=r"^output q must be nonnegative, got -2\.0 at index 1$"):
            cost(np.array([1.0, -2.0, -3.0]), 0.5, 2.0)
        with pytest.raises(ValueError, match="contract terms must be nonnegative"):
            Contract(np.array([1.0, 2.0]), np.array([0.5, -0.5]))

    def test_array_contracts_compare_by_shape_and_elements(self):
        def contract(q, r):
            return Contract(np.array(q), np.array(r))

        assert contract([1.0, 2.0], [0.5, 0.5]) == contract([1.0, 2.0], [0.5, 0.5])
        assert contract([1.0, 2.0], [0.5, 0.5]) != contract([1.0, 2.0], [0.5, 0.25])
        assert contract([1.0, 2.0], [0.5, 0.5]) != contract([2.0, 1.0], [0.5, 0.5])
        assert contract([1.0, 1.0], [0.5, 0.5]) != contract([[1.0, 1.0]], [[0.5, 0.5]])
        assert contract([1.0], [0.5]) != Contract(1.0, 0.5)
        assert solve(np.array([0.2, 0.9]), PARAMS, Regime.INCOMPLETE) == solve(
            np.array([0.2, 0.9]), PARAMS, Regime.INCOMPLETE
        )
        # Float contracts compare as a tuple of their terms, as before.
        assert Contract(1.0, 0.5) == Contract(1.0, 0.5)
        assert Contract(1.0, 0.5) != Contract(1.0, 0.25)
        assert Contract(1.0, 0.5) != (1.0, 0.5)
        assert hash(Contract(1.0, 0.5)) == hash(Contract(1.0, 0.5))


def _with_fractions(thetas):
    """`thetas` and as many fractions in [0, 1], each of the top output."""
    n = len(thetas)
    return st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(
        lambda fractions: (thetas, np.array(fractions))
    )


class TestOneCostFormula:
    """The cost q^2 / (1 + delta*theta) is written once: the complete
    transfer and the realized value form it with `cost`'s bits, on floats
    and on arrays of types that hold 0 and 1."""

    @given(thetas=THETA_ARRAYS, market=MARKETS)
    def test_the_complete_transfer_is_the_cost(self, thetas, market):
        lam, delta = market
        assume(math.isfinite(largest_term(lam, delta)))
        params = MarketParams(lam, delta)
        for theta in (thetas, *thetas.tolist()):
            contract = solve_complete(theta, params)
            assert bits(contract.r) == bits(cost(contract.q, theta, delta))
            # So the client keeps exactly nothing, not merely to a tolerance.
            assert np.all(client_utility(contract, theta, delta) == 0.0)

    @given(typed=THETA_ARRAYS.flatmap(_with_fractions), market=MARKETS)
    def test_a_realized_value_is_the_value_less_the_cost(self, typed, market):
        thetas, fractions = typed
        lam, delta = market
        assume(math.isfinite(largest_term(lam, delta)))
        params = MarketParams(lam, delta)
        outputs = fractions * solve_complete(1.0, params).q
        for q, theta in ((outputs, thetas), *zip(outputs.tolist(), thetas.tolist())):
            assert bits(realized_value(q, theta, params)) == bits(lam * q - cost(q, theta, delta))

    @given(
        thetas=THETA_ARRAYS,
        q=st.floats(-1.0, -1e-3),
        market=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(
            lambda logs: (10.0 ** logs[0], 10.0 ** logs[1])
        ),
    )
    def test_a_negative_realized_output_is_charged_its_cost(self, thetas, q, market):
        # A poisoned client's gain is negative: `cost` would reject it, but
        # its value is still lam * q less the cost of |q|, finite and below
        # lam * q.
        lam, delta = market
        params = MarketParams(lam, delta)
        for theta in (thetas, *thetas.tolist()):
            value = realized_value(q, theta, params)
            assert np.all(np.isfinite(value)) and np.all(value < lam * q)
            assert bits(value) == bits(lam * q - cost(-q, theta, delta))
