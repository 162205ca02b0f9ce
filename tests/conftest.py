"""Shared fixtures."""

import pytest

from qmock import brackets, forms, mock, uplane


@pytest.fixture
def unmemoised(monkeypatch):
    """Every order-memoised builder computes afresh, so each order a test
    asks for runs the working orders derived for it, instead of being
    served as the truncation of a larger stored result."""
    for module in (forms, mock, brackets, uplane):
        for name, value in list(vars(module).items()):
            if callable(value) and hasattr(value, "__wrapped__"):
                monkeypatch.setattr(module, name, value.__wrapped__)
