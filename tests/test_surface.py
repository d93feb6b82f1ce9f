"""Every public name the library defines is named outside its own definition.

A public class, function, method or property of ``src/binaural_mwf`` that
nothing names, or that only such unnamed definitions name, is surface no
program path reaches.  A name counts where the library itself, the
acceptance tests, ``scripts/`` or ``perfbench/`` use it: as a variable, an
attribute, an imported name or a string (the tracer binds names by string).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "binaural_mwf").glob("*.py"))
READERS = [ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]


def names_in(node):
    """Every identifier named inside ``node``, with repeats."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                names[sub.value] += 1
    return names


def public_definitions(path):
    """(qualified name, name, names inside) of each public class, and of each
    public function at module level or in a class body, in ``path``."""
    found = []
    bodies = [(path.stem, ast.parse(path.read_text()).body)]
    while bodies:
        prefix, body = bodies.pop()
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            qualified = f"{prefix}.{node.name}"
            if not node.name.startswith("_"):
                found.append((qualified, node.name, names_in(node)))
            if isinstance(node, ast.ClassDef):
                bodies.append((qualified, node.body))
    return found


def nested_in(qualified, outer):
    return any(qualified.startswith(name + ".") for name in outer)


def test_every_public_name_is_named_outside_its_definition():
    named = Counter()
    for path in LIBRARY + READERS:
        named.update(names_in(ast.parse(path.read_text())))
    definitions = [d for path in LIBRARY for d in public_definitions(path)]

    # a definition nothing else names is unused, and so is what only unused
    # definitions name: drop the names inside unused ones until none is new;
    # a definition inside an unused class goes with the class
    unused = set()
    while True:
        live = named.copy()
        for qualified, _, inside in definitions:
            if qualified in unused:
                live.subtract(inside)
        new = {qualified for qualified, name, inside in definitions
               if qualified not in unused and not nested_in(qualified, unused)
               and live[name] <= inside[name]}
        if not new:
            break
        unused = {q for q in unused | new if not nested_in(q, unused | new)}
    assert not unused, f"public names nothing outside their definition names: {sorted(unused)}"
