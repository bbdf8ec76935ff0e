import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lidarpgt"


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"


def _channel_subscripts(tree):
    """Lines of subscripts whose last index is a box-code channel by number:
    the slice 0:3 or 3:6, or the integer 6 or 7."""
    def value(node):
        return node.value if isinstance(node, ast.Constant) and type(node.value) is int else None

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript):
            continue
        index = node.slice.elts[-1] if isinstance(node.slice, ast.Tuple) else node.slice
        if isinstance(index, ast.Slice):
            hit = index.step is None and (value(index.lower), value(index.upper)) in ((0, 3), (3, 6))
        else:
            hit = value(index) in (6, 7)
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_only_bev_indexes_box_code_channels_by_number():
    """The box code's channels are named once, in bev (OFFSET, SIZE, YAW,
    CONFIDENCE); every other module indexes a code by those names."""
    hits = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("bev.py", "__init__.py")
        for line in _channel_subscripts(ast.parse(path.read_text(), str(path)))
    ]
    assert not hits, f"box-code channels indexed by number at {', '.join(hits)}"
