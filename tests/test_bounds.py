import pytest

from smallsub.bounds import (BoundTable, B_recursion, cubic_eta_A,
                             default_cubic_B3, eta_A_i, phi, quadric_B,
                             quadric_thresholds, stillman_C)
from smallsub.budget import Budget, BudgetExceededError
from smallsub.poly import DimensionSequence, monomials


def test_quadric_B_closed_form():
    assert quadric_B(2) == 4
    assert quadric_B(3) == 20
    assert quadric_B(4) == 68


def test_quadric_thresholds():
    assert quadric_thresholds(1, 1) == (0, 1)
    assert quadric_thresholds(3, 2) == (2, 3)
    assert quadric_thresholds(2, 3) == (1, 3)


def test_cubic_eta_A_printed_values():
    assert cubic_eta_A(0, 0, 1, 1, 0) == (0, 2, 14)
    assert cubic_eta_A(0, 0, 1, 1, 3) == (0, 2, 15)
    assert cubic_eta_A(0, 1, 1, 1, 0) == (0, 3, 65)
    # characteristic 2 doubles the cubic branch
    assert cubic_eta_A(0, 0, 1, 1, 2) == (0, 2, 28)


def test_cubic_branches_agree_except_third():
    for args in ((0, 0, 1, 1), (1, 2, 3, 2), (0, 1, 0, 4)):
        values = [cubic_eta_A(*args, characteristic=c) for c in (0, 2, 3, 5)]
        assert len({v[0] for v in values}) == 1
        assert len({v[1] for v in values}) == 1


def test_eta_A_i_formula():
    table = BoundTable.default(eta=1)
    # n = 1 leaves the base value untouched
    assert eta_A_i((0, 0, 1), 3, table) == 14
    assert eta_A_i((0, 0, 2), 3, table) == 17
    assert eta_A_i((5,), 1, table) == 12
    with pytest.raises(ValueError):
        eta_A_i((0, 0, 0, 1), 4, table)


def test_table_validation():
    with pytest.raises(ValueError):
        BoundTable(base={2: 0})          # below the degree floor
    with pytest.raises(ValueError):
        BoundTable(base={1: 3, 2: 2})    # not ascending
    with pytest.raises(ValueError):
        BoundTable(base={1: -1})
    table = BoundTable.default(eta=2, characteristic=3)
    assert table.base[1] == 0
    assert table.base[2] == 1
    assert table.base[3] == cubic_eta_A(0, 0, 1, 2, 3)[2]


def test_B_recursion_base_cases():
    table = BoundTable.default(eta=1)
    assert B_recursion((4,), table) == 4
    strong = BoundTable(base={1: 0, 2: 1}, eta_i_fn=lambda d, i: 0)
    assert B_recursion((0, 1), strong) == 1
    one_step = BoundTable(base={1: 0, 2: 1})
    assert B_recursion((0, 1), one_step) == 2


def test_B_recursion_dominates_dimension():
    table = BoundTable.default(eta=1)
    for delta in ((2,), (0, 1), (1, 1), (0, 2)):
        assert B_recursion(delta, table) >= sum(delta)


def test_B_recursion_ascending_in_delta():
    table = BoundTable(base={1: 0, 2: 1})
    values = [B_recursion((k,), table) for k in range(1, 5)]
    assert values == sorted(values)
    assert B_recursion((0, 1), table) <= B_recursion((0, 2), table)
    assert B_recursion((1, 1), table) <= B_recursion((2, 1), table)


def test_B_recursion_budget_cap_is_hard_error():
    table = BoundTable.default(eta=1)
    with pytest.raises(BudgetExceededError):
        B_recursion((0, 0, 3), table, Budget(max_steps=5))


def test_stillman_C_examples():
    table = BoundTable(base={1: 0, 2: 1})
    assert stillman_C(1, 1, 1, table) == 1
    assert stillman_C(2, 3, 1, table) == 6
    # d = 2: the bound is the max of the recursion over sequences summing to mnd
    expected = max(B_recursion(delta, table)
                   for delta in monomials(2, 4))
    assert stillman_C(1, 2, 2, table) == expected


def test_phi_shortcut_and_offset():
    assert phi(7, 3, characteristic=2) == 7      # 2 does not divide 3
    assert phi(7, 4, characteristic=0) == 7
    assert phi(0, 3, characteristic=3) == 1
    with pytest.raises(ValueError):
        phi(2, 4, characteristic=2)              # no degree-3 data shipped


def test_phi_default_composition_monotone():
    values = [phi(h, 3, characteristic=3) for h in (0, 1, 2)]
    assert values[0] == 1
    assert values == sorted(values)
    assert values[1] == default_cubic_B3(1) + 1
    assert values[2] == default_cubic_B3(2) + 1


def test_default_cubic_B3_monotone():
    vals = [default_cubic_B3(h) for h in range(4)]
    assert vals == sorted(vals)
    assert vals[0] == 0


def test_negative_characteristic_is_rejected():
    with pytest.raises(ValueError, match="characteristic"):
        cubic_eta_A(0, 0, 1, 1, -1)
    with pytest.raises(ValueError, match="characteristic"):
        phi(4, 3, characteristic=-1)
    with pytest.raises(ValueError, match="characteristic"):
        BoundTable.default(characteristic=-1)
