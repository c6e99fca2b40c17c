"""The two routes stay independent: the bar oracle (``bar`` -> ``fplinear``)
never reaches the word calculus (``words`` -> ``series``), nor the word
calculus the bar oracle, so each can check the other.

Each import statement of the package's modules, function-level ones
included, is found by a pattern and read with ``ast``; parsing the whole
modules takes about twenty times longer.  The imports are followed
through the package's other modules."""

import ast
import re
from pathlib import Path

import hochhom

PACKAGE = Path(hochhom.__file__).parent
IMPORT = re.compile(r"^[ \t]*(?:from[ \t]+[\w.]+[ \t]+import[ \t]+(?:\([^)]*\)|.*)"
                    r"|import[ \t]+.*)$", re.M)


def _direct_imports(path):
    """The package modules that the module at path imports."""
    found = set()
    for match in IMPORT.finditer(path.read_text()):
        node = ast.parse(match.group().strip()).body[0]
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            base = "hochhom" if node.level else node.module
            if node.level and node.module:
                base += "." + node.module
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        found |= {name.split(".")[1] for name in names
                  if name.startswith("hochhom.")}
    return found


def _reach():
    """Each module's imports within the package, followed transitively."""
    direct = {path.stem: _direct_imports(path)
              for path in PACKAGE.glob("*.py")}
    reach = {}
    for name in direct:
        seen, todo = set(), [name]
        while todo:
            for dep in direct.get(todo.pop(), ()):
                if dep not in seen:
                    seen.add(dep)
                    todo.append(dep)
        reach[name] = seen
    return direct, reach


def test_the_two_routes_import_nothing_of_each_other():
    direct, reach = _reach()
    # the parse sees the imports that are there
    assert "fplinear" in direct["bar"] and "words" in direct["series"]
    for module in ("bar", "fplinear"):
        assert not reach[module] & {"words", "series"}, (module, reach[module])
    for module in ("words", "series"):
        assert "bar" not in reach[module], (module, reach[module])
