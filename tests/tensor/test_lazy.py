"""The reentrancy-audited ``no_grad`` mode switch: decorator form, nesting,
exception safety. (The file name is left from a deleted lazy-fusion mode
whose tests shared it.)
"""

import pytest
import numpy as np

from repro.tensor import Tensor, no_grad
from repro.tensor.core import is_grad_enabled


# ---------------------------------------------------------------------------
# no_grad: decorator form, nesting, exception safety (reentrancy audit)
# ---------------------------------------------------------------------------
def test_no_grad_as_decorator():
    @no_grad()
    def compute(x):
        assert not is_grad_enabled()
        return x * 2.0

    x = Tensor(np.ones(3), requires_grad=True)
    out = compute(x)
    assert is_grad_enabled()
    assert not out.requires_grad


def test_no_grad_nested_and_exception_safe():
    assert is_grad_enabled()
    with pytest.raises(ValueError):
        with no_grad():
            with no_grad():
                raise ValueError("inner")
    assert is_grad_enabled()


def test_no_grad_single_instance_reentrant():
    guard = no_grad()
    with guard:
        assert not is_grad_enabled()
        with guard:  # reusing one instance must still restore correctly
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()
