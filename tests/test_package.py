"""The package's public surface and the layering of its exact core."""
import ast
import importlib
from pathlib import Path

import pytest
from mpmath import mpf

import rootsep
from rootsep.errors import BallDomainError

SOURCES = Path(__file__).resolve().parent.parent / "src" / "rootsep"
POLY_SOURCE = SOURCES / "poly.py"

#: routes that only tests ran, now deleted or kept in tests/oracles.py
REMOVED = {
    "invariants": ("principal_subresultant", "discriminant", "subdiscriminant",
                   "sdisc_abs_from_subresultants", "mahler_measure_jensen"),
    "poly": ("eval_poly", "_principal_coefficients"),
    "bounds": ("lemma_aux_check", "multiplicity_product_bound"),
    "roots": ("min_pairwise_distance",),
    "errors": ("JensenUnavailableError",),
    "balls": ("_mod_up", "_mod_down", "_complex_cushion", "_mid_product",
              "_product_radius", "_span", "bracket_mul", "bracket_ball", "bracket_bits",
              "_real_cushion", "_exact_real", "_radius", "_grid_part", "_scaled", "_place"),
}

#: the operator methods a complex ball, being a value, does not define
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__abs__", "__pow__")


def test_public_names_resolve_and_removed_names_are_gone():
    namespace = {}
    exec("from rootsep import *", namespace)
    assert set(rootsep.__all__) <= set(namespace)
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"rootsep.{module}")
        for name in names:
            assert not hasattr(mod, name), f"rootsep.{module}.{name}"
            assert not hasattr(rootsep, name), name
            assert name not in rootsep.__all__, name
    # the layer of divided differences stays a module of the package
    assert importlib.import_module("rootsep.divdiff") is rootsep.divdiff


def _imported_modules(source: str):
    """Every module a source imports, and every name it imports from one,
    as dotted names under `rootsep` for the relative imports."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "rootsep" + (f".{node.module}" if node.module else "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_poly_imports_nothing_from_balls():
    # the exact layer stands alone: no ball arithmetic under it
    imported = set(_imported_modules(POLY_SOURCE.read_text()))
    assert not {m for m in imported if m == "rootsep.balls" or m.startswith("rootsep.balls.")}


def test_complex_balls_are_values_and_real_balls_only_multiply():
    from rootsep.balls import CBall, RBall

    assert [name for name in ARITHMETIC if hasattr(CBall, name)] == []
    assert not hasattr(RBall, "__add__") and not hasattr(RBall, "__sub__")


def test_the_bound_assembly_reads_real_values_only_as_intervals():
    # every nonnegative real of a bound is an RBall: the bounds and the
    # invariants take no raw libmp tuples, and balls keeps no second format
    from rootsep import balls
    from rootsep.balls import RBall, RungTable, grid_rball

    for name in ("bounds.py", "invariants.py"):
        imported = set(_imported_modules((SOURCES / name).read_text()))
        assert not {m for m in imported if m == "mpmath.libmp" or m.startswith("mpmath.libmp.")}, name
    assert [name for name in vars(balls) if name.startswith("bracket")] == []
    assert not hasattr(RBall, "_mag") and not hasattr(RungTable, "max1_power")
    with pytest.raises(BallDomainError):
        RBall.exact(-3)
    with pytest.raises(BallDomainError):
        grid_rball(-3, -1, 0)
    assert grid_rball(-3, 1, 0).lo == 0


def test_balls_are_built_only_from_exact_values():
    # no constructor rounds a number into a ball: an interval comes from an
    # exact value or the rung grid, a disk from root finding's mpc and mpf
    from rootsep import balls
    from rootsep.balls import CBall, RBall
    from rootsep.roots import _FixedPoint

    with pytest.raises(TypeError):
        RBall("0.1")
    with pytest.raises(TypeError):
        CBall("0.1", mpf(0))
    assert not hasattr(CBall, "from_gaussian") and not hasattr(_FixedPoint, "to_int")
    imported = set(_imported_modules((SOURCES / "balls.py").read_text()))
    assert not {m for m in imported if m == "rootsep.gaussian" or m.startswith("rootsep.gaussian.")}
    assert "GaussianRational" not in vars(balls)
