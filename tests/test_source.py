import ast
from collections import deque
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lidarpgt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


def _path(graph, start, goal):
    """The shortest import chain [start, ..., goal] in `graph`, or None."""
    came_from, queue = {start: None}, deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            chain = [node]
            while came_from[chain[-1]] is not None:
                chain.append(came_from[chain[-1]])
            return chain[::-1]
        for nxt in sorted(graph.get(node, ())):
            if nxt not in came_from:
                came_from[nxt] = node
                queue.append(nxt)
    return None


def test_package_imports_sit_at_the_top_and_form_no_cycle():
    """Every module imports the package's modules in its top-level statements (no
    TYPE_CHECKING block, no import inside a function), imports no other module's
    private name, and the imports form one acyclic graph, so no import has a cycle to
    hide from. The lazy `importlib` resolvers of `cli` and `__init__` are outside it."""
    graph, faults = {}, []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                graph.setdefault(path.stem, set()).add(node.module)
                if node not in tree.body:
                    faults.append(f"{path.name}:{node.lineno} imports .{node.module} below the module's top")
                faults += [f"{path.name}:{node.lineno} imports the private {node.module}.{alias.name}"
                           for alias in node.names if alias.name.startswith("_")]
    cycles = set()
    for module, imported in graph.items():
        for other in imported:
            chain = _path(graph, other, module)
            if chain:  # module -> other -> ... -> module, named from its smallest module
                start = chain.index(min(chain))
                cycles.add("->".join(chain[start:] + chain[:start] + [chain[start]]))
    assert not faults and not cycles, "; ".join(faults + sorted(f"cycle {c}" for c in cycles))
