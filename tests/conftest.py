import sys

import pytest


@pytest.fixture
def default_int_digit_limit():
    """Pin Python's int-string digit limit to its default of 4300, whatever
    PYTHONINTMAXSTRDIGITS or -X int_max_str_digits set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def same_ideal(I, J):
    """Whether two ideals of one ring are equal.  The reduced grevlex basis
    of an ideal is unique, so equal ideals have equal bases."""
    return (I.nvars, I.field) == (J.nvars, J.field) and I.groebner_basis() == J.groebner_basis()
