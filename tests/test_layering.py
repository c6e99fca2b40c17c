"""The two routes stay independent: the bar oracle (``bar`` -> ``fplinear``)
never reaches the word calculus (``words`` -> ``series``), nor the word
calculus the bar oracle, so each can check the other.  The word
calculus and the CLI take only ``_is_prime`` from ``fplinear``, so the
matrix code can move without touching them, and the package holds no
``assert`` statement: its checks raise their own errors, also under
``python -O``.

Each import statement of the package's modules, function-level ones
included, is found by a pattern and read with ``ast``; parsing the whole
modules takes about twenty times longer, so only a module whose text
holds the word ``assert`` is parsed whole.  The imports are followed
through the package's other modules."""

import ast
import re
from pathlib import Path

import hochhom

PACKAGE = Path(hochhom.__file__).parent
IMPORT = re.compile(r"^[ \t]*(?:from[ \t]+[\w.]+[ \t]+import[ \t]+(?:\([^)]*\)|.*)"
                    r"|import[ \t]+.*)$", re.M)


def _direct_imports(path):
    """The package modules that the module at path imports, each with the
    names taken from it (None for the module itself)."""
    found = {}
    for match in IMPORT.finditer(path.read_text()):
        node = ast.parse(match.group().strip()).body[0]
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        else:
            base = "hochhom" if node.level else node.module
            if node.level and node.module:
                base += "." + node.module
            # from the package come modules; from a module, its names
            pairs = [(f"{base}.{alias.name}", None) if base == "hochhom"
                     else (base, alias.name) for alias in node.names]
        for name, taken in pairs:
            if name.startswith("hochhom."):
                found.setdefault(name.split(".")[1], set()).add(taken)
    return found


def _reach():
    """Each module's imports within the package, with the names taken,
    and the modules it reaches transitively."""
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


def test_word_calculus_and_cli_take_only_is_prime_from_fplinear():
    for module in ("words", "series", "cli"):
        direct = _direct_imports(PACKAGE / f"{module}.py")
        # the parse sees the names taken
        assert module == "series" or direct["fplinear"] == {"_is_prime"}
        assert direct.get("fplinear", set()) <= {"_is_prime"}, (module, direct)


def _has_assert(text):
    """Whether the module text holds an assert statement; it is parsed
    only when the word stands in it."""
    return bool(re.search(r"\bassert\b", text)) and any(
        isinstance(node, ast.Assert) for node in ast.walk(ast.parse(text)))


def test_the_package_holds_no_assert_statement():
    # a statement after a colon is seen, a comment is not
    assert _has_assert("if x: assert y") and not _has_assert("# assert y")
    for path in PACKAGE.glob("*.py"):
        assert not _has_assert(path.read_text()), path.name
