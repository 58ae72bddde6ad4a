"""Package-wide static checks."""

import ast
import subprocess
import sys
from pathlib import Path

import polygonspaces

SOURCE = Path(polygonspaces.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
CONFIG = README.with_name("pyproject.toml")


def test_no_assert_statements():
    # python -O strips asserts, so no certificate or guard may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _sorts_by_mask_key(node: ast.AST) -> bool:
    """A sorted/min/max/.sort call whose key reads indices_of_mask."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not (
        isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")
        or isinstance(func, ast.Attribute) and func.attr == "sort"
    ):
        return False
    return any(
        isinstance(name, ast.Name) and name.id == "indices_of_mask"
        for kw in node.keywords
        if kw.arg == "key"
        for name in ast.walk(kw.value)
    )


def test_index_tuple_order_comes_from_the_rank_table():
    # lengths.subset_rank is the one source of the order; a key call per
    # mask is a second, slower algorithm for it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _sorts_by_mask_key(node)
    ]
    assert found == []


def test_mask_key_check_sees_each_form():
    forms = [
        "sorted(ms, key=indices_of_mask)",
        "min(ms, key=indices_of_mask)",
        "max(ms, key=indices_of_mask)",
        "ms.sort(key=lambda r: (r.v, indices_of_mask(r.subset)))",
    ]
    for form in forms:
        assert _sorts_by_mask_key(ast.parse(form).body[0].value), form
    assert not _sorts_by_mask_key(ast.parse("sorted(ms, key=len)").body[0].value)


def _raises(node: ast.AST, name: str) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return (
        isinstance(exc, ast.Name) and exc.id == name
        or isinstance(exc, ast.Attribute) and exc.attr == name
    )


def _owners(matches) -> list[str]:
    """Each node of the package source that ``matches``, named by its
    innermost enclosing function."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, inner ones overwrite
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        found += [
            f"{path.stem}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if matches(node)
        ]
    return found


def _raisers(name: str) -> list[str]:
    """Each raise of the error ``name``, named by its enclosing function."""
    return _owners(lambda node: _raises(node, name))


def _calls(node: ast.AST, name: str) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(func, ast.Name) and func.id == name
        or isinstance(func, ast.Attribute) and func.attr == name
    )


def test_one_ordering_check():
    # lengths.require_ordered is the one place that decides NotOrdered, and
    # lengths.require_dimension the one that decides d >= 3; the float layer
    # keeps its own d >= 2 checks
    assert _raisers("NotOrdered") == ["lengths.require_ordered"]
    assert _raisers("UnsupportedDimension") == [
        "lengths.require_dimension",
        "morse.find_polygon",
        "morse.critical_data",
    ]
    for form in ("raise NotOrdered('x')", "raise errors.NotOrdered", "raise NotOrdered"):
        assert _raises(ast.parse(form).body[0], "NotOrdered"), form
    assert not _raises(ast.parse("raise NotGeneric('x')").body[0], "NotOrdered")


def test_one_hessian_certificate():
    # HessianMatrix.signature is the one place that checks the Schur
    # complement, and critical_data takes each L_J from its scan, not excess
    assert _raisers("CertificateFailure") == [
        "chambers.realize_signature",
        "chambers.enumerate_chambers",
        "morse.signature",
    ]
    assert "morse.critical_data" not in _owners(lambda node: _calls(node, "excess"))
    for form in ("excess(lv, m)", "lengths.excess(lv, m)"):
        assert _calls(ast.parse(form).body[0].value, "excess"), form
    assert not _calls(ast.parse("top_excess(lv)").body[0].value, "excess")


def _names(node: ast.AST, names) -> bool:
    """A string constant that is exactly one of ``names``."""
    return isinstance(node, ast.Constant) and node.value in names


SPECIAL_TAGS = ("stiefel_times_spheres", "sphere_product")


def test_one_place_names_the_chambers():
    # cohomology.special_tag is the one place that decides the named
    # chambers; recognize_special and text betti both call it
    assert _owners(lambda node: _names(node, SPECIAL_TAGS)) == [
        "cohomology.special_tag",
        "cohomology.special_tag",
    ]
    for form in ('"sphere_product"', 'tag == "stiefel_times_spheres"'):
        tree = ast.parse(form)
        assert any(_names(node, SPECIAL_TAGS) for node in ast.walk(tree)), form
    # a docstring that mentions a tag does not name it
    assert not _names(ast.parse('"sphere_product: only {n} short"').body[0].value, SPECIAL_TAGS)


def test_one_subset_scan_kernel():
    # every subset-derived quantity comes from lengths.top_excess, the one
    # caller of the 2^(n-1) subset-sum scan
    assert _owners(lambda node: _calls(node, "subset_sums")) == ["lengths.top_excess"]
    for form in ("subset_sums(e, t)", "lengths.subset_sums(e, t)"):
        assert _calls(ast.parse(form).body[0].value, "subset_sums"), form
    assert not _calls(ast.parse("subset_sizes(3)").body[0].value, "subset_sums")


def test_every_exported_name_resolves():
    missing = [name for name in polygonspaces.__all__ if not hasattr(polygonspaces, name)]
    assert missing == []
    assert len(set(polygonspaces.__all__)) == len(polygonspaces.__all__)


def test_readme_library_block_prints_what_it_says():
    # each "expression  # value" line of the Library example evaluates to value
    block = README.read_text().split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, shown = line.partition("  # ")
        if shown:
            assert eval(code, namespace) == ast.literal_eval(shown.strip()), line
            checked.append(code.strip())
        else:
            exec(line, namespace)
    assert checked == ["ps.betti_table(lv, 3).dims", "ps.enumerate_chambers(5).count"]


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_is_reported(tmp_path):
    # the suite turns warnings into errors; a warning raised while
    # hypothesis reports a failure must not end the session unreported
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
