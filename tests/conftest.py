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
