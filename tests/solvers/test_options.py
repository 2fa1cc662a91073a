"""The edge-space method table and its validator."""

import pytest

from repro.solvers import EDGE_METHODS, check_method


class TestCheckMethod:
    def test_accepts_every_listed_method(self):
        for method in EDGE_METHODS:
            assert check_method(method) == method

    def test_rejects_unknown_methods(self):
        with pytest.raises(ValueError, match="newton"):
            check_method("newton")
        with pytest.raises(ValueError, match="'pg'"):
            check_method("pg")
