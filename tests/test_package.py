"""Package-wide static checks."""

import ast
from pathlib import Path

import polygonspaces

SOURCE = Path(polygonspaces.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so no certificate or guard may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_resolves():
    missing = [name for name in polygonspaces.__all__ if not hasattr(polygonspaces, name)]
    assert missing == []
    assert len(set(polygonspaces.__all__)) == len(polygonspaces.__all__)
