"""Unit tests for the MIP substrate: model layer and both backends."""

import random

import pytest

from repro.exceptions import SolverError
from repro.mip.branch_and_bound import PartitionProgram, SetPartitionSolver
from repro.mip.model import EQ, GE, LE, BinaryProgram
from repro.mip.result import SolverStatus
from repro.mip import scipy_backend


class TestBinaryProgram:
    def test_duplicate_variable_rejected(self):
        program = BinaryProgram()
        program.add_variable("x", 1.0)
        with pytest.raises(SolverError):
            program.add_variable("x", 2.0)

    def test_unknown_variable_in_constraint(self):
        program = BinaryProgram()
        with pytest.raises(SolverError):
            program.add_constraint({"x": 1.0}, LE, 1.0)

    def test_unknown_sense(self):
        program = BinaryProgram()
        program.add_variable("x")
        with pytest.raises(SolverError):
            program.add_constraint({"x": 1.0}, "<", 1.0)

    def test_objective_and_feasibility(self):
        program = BinaryProgram()
        program.add_variable("x", 2.0)
        program.add_variable("y", 3.0)
        program.add_constraint({"x": 1.0, "y": 1.0}, GE, 1.0)
        assert program.objective_value({"x": 1, "y": 0}) == 2.0
        assert program.is_feasible({"x": 1, "y": 0})
        assert not program.is_feasible({"x": 0, "y": 0})

    def test_eq_constraint_evaluation(self):
        program = BinaryProgram()
        program.add_variable("x")
        program.add_constraint({"x": 1.0}, EQ, 1.0)
        assert program.is_feasible({"x": 1})
        assert not program.is_feasible({"x": 0})


class TestScipyBackend:
    def test_simple_minimum(self):
        program = BinaryProgram()
        program.add_variable("x", 2.0)
        program.add_variable("y", 3.0)
        program.add_constraint({"x": 1.0, "y": 1.0}, GE, 1.0)
        result = scipy_backend.solve(program)
        assert result.is_optimal
        assert result.objective == pytest.approx(2.0)
        assert result.values == {"x": 1, "y": 0}

    def test_infeasible(self):
        program = BinaryProgram()
        program.add_variable("x", 1.0)
        program.add_constraint({"x": 1.0}, GE, 2.0)  # x <= 1 < 2
        result = scipy_backend.solve(program)
        assert result.status is SolverStatus.INFEASIBLE

    def test_empty_program(self):
        result = scipy_backend.solve(BinaryProgram())
        assert result.is_optimal
        assert result.objective == 0.0

    def test_selected_helper(self):
        program = BinaryProgram()
        program.add_variable("x", -1.0)
        result = scipy_backend.solve(program)
        assert result.selected() == ["x"]


class TestSetPartitionSolver:
    def test_simple_partition(self):
        solver = SetPartitionSolver(
            PartitionProgram.encode(
                universe=["a", "b", "c"],
                candidates=[
                    frozenset({"a", "b"}),
                    frozenset({"c"}),
                    frozenset({"a"}),
                    frozenset({"b", "c"}),
                ],
                costs=[1.0, 0.5, 0.7, 0.9],
            )
        )
        result = solver.solve()
        assert result.is_optimal
        # Optimal: {a} + {b, c} = 1.6 vs {a, b} + {c} = 1.5.
        assert result.objective == pytest.approx(1.5)
        groups = solver.selected_groups(result)
        assert sorted(sorted(g) for g in groups) == [["a", "b"], ["c"]]

    def test_infeasible_uncoverable_class(self):
        solver = SetPartitionSolver(
            PartitionProgram.encode(
                universe=["a", "b"], candidates=[frozenset({"a"})], costs=[1.0]
            )
        )
        result = solver.solve()
        assert result.status is SolverStatus.INFEASIBLE
        assert "b" in result.message

    def test_max_count_enforced(self):
        solver = SetPartitionSolver(
            PartitionProgram.encode(
                universe=["a", "b"],
                candidates=[frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})],
                costs=[0.1, 0.1, 5.0],
            ),
            max_count=1,
        )
        result = solver.solve()
        assert result.is_optimal
        assert result.objective == pytest.approx(5.0)

    def test_min_count_enforced(self):
        solver = SetPartitionSolver(
            PartitionProgram.encode(
                universe=["a", "b"],
                candidates=[frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})],
                costs=[3.0, 3.0, 0.5],
            ),
            min_count=2,
        )
        result = solver.solve()
        assert result.is_optimal
        assert result.objective == pytest.approx(6.0)

    def test_cardinality_infeasible(self):
        solver = SetPartitionSolver(
            PartitionProgram.encode(
                universe=["a", "b"],
                candidates=[frozenset({"a"}), frozenset({"b"})],
                costs=[1.0, 1.0],
            ),
            max_count=1,
        )
        assert solver.solve().status is SolverStatus.INFEASIBLE

    def test_negative_cost_rejected(self):
        with pytest.raises(SolverError):
            SetPartitionSolver(PartitionProgram.encode(["a"], [frozenset({"a"})], [-1.0]))

    def test_candidate_outside_universe_rejected(self):
        with pytest.raises(SolverError):
            SetPartitionSolver(PartitionProgram.encode(["a"], [frozenset({"zz"})], [1.0]))

    def test_mismatched_costs_rejected(self):
        with pytest.raises(SolverError):
            SetPartitionSolver(
                PartitionProgram.encode(["a"], [frozenset({"a"})], [1.0, 2.0])
            )


class TestBackendAgreement:
    """The two backends are independent exact solvers: they must agree."""

    @staticmethod
    def _random_instance(rng, num_classes, num_candidates):
        universe = [f"c{i}" for i in range(num_classes)]
        candidates = [frozenset({cls}) for cls in universe]  # feasibility anchor
        while len(candidates) < num_candidates:
            size = rng.randint(1, min(4, num_classes))
            group = frozenset(rng.sample(universe, size))
            if group not in candidates:
                candidates.append(group)
        costs = [round(rng.uniform(0.1, 3.0), 3) for _ in candidates]
        return universe, candidates, costs

    @pytest.mark.parametrize("seed", range(8))
    def test_objectives_match_on_random_instances(self, seed):
        rng = random.Random(seed)
        universe, candidates, costs = self._random_instance(rng, 7, 18)

        partition = PartitionProgram.encode(universe, candidates, costs)
        bnb = SetPartitionSolver(partition).solve()

        from repro.core.selection import build_program

        program = build_program(partition)
        hi = scipy_backend.solve(program)

        assert bnb.is_optimal and hi.is_optimal
        assert bnb.objective == pytest.approx(hi.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_objectives_match_with_cardinality(self, seed):
        rng = random.Random(100 + seed)
        universe, candidates, costs = self._random_instance(rng, 6, 14)
        max_count = 4

        partition = PartitionProgram.encode(universe, candidates, costs)
        bnb = SetPartitionSolver(partition, max_count=max_count).solve()

        from repro.core.selection import build_program

        program = build_program(partition, max_groups=max_count)
        hi = scipy_backend.solve(program)
        assert bnb.status == hi.status
        if bnb.is_optimal:
            assert bnb.objective == pytest.approx(hi.objective, abs=1e-6)
