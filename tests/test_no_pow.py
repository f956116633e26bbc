"""The solver modules raise to no literal integer power above 2.

NumPy sends ``x ** 3`` and higher through ``pow``, which on arrays of mixed
sign is many times slower than repeated products, and these modules evaluate
such arrays at every RK4 stage and Picard sweep. ``feasibility.py`` is
exempt: its powers act on positive radii off the solver path.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monorhythm"
SOLVER_MODULES = ["ionic.py", "spectral.py", "galerkin.py", "periodic.py"]


def high_powers(source: str) -> list[int]:
    """Line numbers where ``**`` or ``**=`` has a literal integer exponent above 2."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if (
                isinstance(exponent, ast.Constant)
                and type(exponent.value) is int
                and exponent.value > 2
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_only_literal_integer_powers_above_two():
    source = "a = x**2\nb = x**3\nc = x**2.5\nd = x**n\ne = 2**x\nx **= 4\nf = (x * x) ** 5\n"
    assert high_powers(source) == [2, 6, 7]


@pytest.mark.parametrize("name", SOLVER_MODULES)
def test_no_high_literal_powers(name):
    assert high_powers((PACKAGE / name).read_text()) == []
