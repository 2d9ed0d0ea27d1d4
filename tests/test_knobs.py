"""Every defaulted parameter of the public API is set by at least one call.

A parameter that keeps its default at every call site in the package, the
tests and the benchmark is a knob nothing turns: it either does nothing or
hides a value the function should own.  This test walks the sources with
``ast`` and names each such parameter, counting the field defaults of a
``@dataclass`` as the positional ``__init__`` parameters it generates.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphgauge"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _defaulted(fn: ast.FunctionDef, skip_first: bool):
    """(name, positional index or None) of each parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    offset = 1 if skip_first else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
    return out


def _dataclass_fields(cls: ast.ClassDef):
    """(name, positional index) of each defaulted field if ``cls`` is a dataclass,
    whose generated ``__init__`` takes the fields positionally in declaration order."""
    decorators = [getattr(getattr(d, "func", d), "id", None) for d in cls.decorator_list]
    if "dataclass" not in decorators:
        return []
    fields = [
        s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    ]
    return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


def public_knobs() -> dict:
    """{(module, call name, parameter): positional index} for every public default."""
    knobs = {}
    for path, tree in _trees(PACKAGE):
        classes = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        ]
        for cls in classes:
            for name, index in _dataclass_fields(cls):
                knobs[(path.stem, cls.name, name)] = index
        for cls, body in [(None, tree.body)] + [(c.name, c.body) for c in classes]:
            for fn in body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name.startswith("_") and fn.name != "__init__":
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                called_as = cls if fn.name == "__init__" else fn.name
                for name, index in _defaulted(fn, cls is not None and not static):
                    knobs[(path.stem, called_as, name)] = index
    return knobs


def set_parameters() -> tuple[set, dict]:
    """Keywords {(call name, keyword)} and the most positional arguments
    {call name: count} over every call in src, tests and bench."""
    keywords, positional = set(), {}
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "bench"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            keywords.update((name, kw.arg) for kw in node.keywords if kw.arg)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = math.inf if starred else len(node.args)
            positional[name] = max(positional.get(name, 0), count)
    return keywords, positional


def test_every_public_default_is_set_by_some_call():
    keywords, positional = set_parameters()
    unset = [
        f"{module}.{func}({param})"
        for (module, func, param), index in sorted(public_knobs().items())
        if (func, param) not in keywords and (index is None or positional.get(func, 0) <= index)
    ]
    assert not unset, f"defaulted parameters no call sets: {unset}"
