"""The solver method table and its validator."""

import pytest

from repro.solvers import EDGE_METHODS, PATH_METHODS, check_method


class TestCheckMethod:
    def test_accepts_every_listed_combination(self):
        for method in EDGE_METHODS:
            assert check_method(method, "edge") == method
        for method in PATH_METHODS:
            assert check_method(method, "path") == method

    def test_rejects_cross_space_methods(self):
        with pytest.raises(ValueError, match="edge-space"):
            check_method("pg", "edge")
        with pytest.raises(ValueError, match="path-space"):
            check_method("cfw", "path")
        with pytest.raises(ValueError, match="path-space"):
            check_method("bfw", "path")

    def test_rejects_unknown_methods(self):
        with pytest.raises(ValueError, match="newton"):
            check_method("newton", "edge")
