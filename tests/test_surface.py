"""Every public name the library defines is named outside its own
definition, and every default it declares is set by some program path.

A public class, function, method or property of ``src/binaural_mwf`` that
nothing names, or that only such unnamed definitions name, is surface no
program path reaches.  A name counts where the library itself, the
acceptance tests, ``scripts/`` or ``perfbench/`` use it: as a variable, an
attribute, an imported name or a string (the tracer binds names by string).
A defaulted parameter or dataclass field that no call in those readers
sets is a setting no program path reaches.
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


def is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def defaulted_settings(path):
    """(qualified name, callee, position) of each defaulted parameter of a
    public function or method, and of each defaulted field of a public
    dataclass, in ``path``.  The callee is the name a call sets it through
    (the class, for a field); the position counts the values a call passes
    before it, and is None for a keyword-only parameter."""
    found = []
    bodies = [(path.stem, ast.parse(path.read_text()).body, False)]
    while bodies:
        prefix, body, in_class = bodies.pop()
        for node in body:
            if isinstance(node, ast.ClassDef):
                qualified = f"{prefix}.{node.name}"
                bodies.append((qualified, node.body, True))
                if node.name.startswith("_") or not is_dataclass(node):
                    continue
                # a ClassVar or an init=False field is no constructor parameter
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)
                          and "ClassVar" not in ast.unparse(s.annotation)
                          and "init=False" not in ast.unparse(s.value or s.target)]
                found += [(f"{qualified}.{s.target.id}", node.name, i)
                          for i, s in enumerate(fields) if s.value is not None]
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                # a method's own first parameter is bound, not passed
                shift = 1 if in_class and not static else 0
                first_default = len(positional) - len(args.defaults)
                found += [(f"{prefix}.{node.name}.{name}", node.name, i - shift)
                          for i, name in enumerate(positional) if i >= first_default]
                found += [(f"{prefix}.{node.name}.{a.arg}", node.name, None)
                          for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
    return found


def callee_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def settings_set(paths):
    """{callee: (most values passed by position, keywords passed, whether a
    ``**`` mapping is passed)} over every call in ``paths``.  A callable
    passed to another call (``_checked(name, fn, **kwargs)``,
    ``partial(fn, lane=j)``) is set by that call's keywords too."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            keywords = {k.arg for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            forwarded = [callee_name(a) for a in node.args]
            for callee, count in [(callee_name(node.func),
                                   float("inf") if starred else len(node.args)),
                                  *((name, 0) for name in forwarded)]:
                if callee is None:
                    continue
                most, named, mapping = calls.get(callee, (0, set(), False))
                calls[callee] = (max(most, count), named | keywords - {None},
                                 mapping or None in keywords)
    return calls


def test_every_default_is_set_by_a_program_path():
    """A defaulted parameter or field that no program path sets is a
    constant: it belongs in the body, not in the signature."""
    calls = settings_set(LIBRARY + READERS)
    unset = []
    for path in LIBRARY:
        for qualified, callee, position in defaulted_settings(path):
            most, named, mapping = calls.get(callee, (0, set(), False))
            name = qualified.rsplit(".", 1)[1]
            if not (mapping or name in named
                    or position is not None and most > position):
                unset.append(qualified)
    assert not unset, f"defaults no program path sets: {sorted(unset)}"
