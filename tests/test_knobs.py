"""Every defaulted parameter of the public API is set by at least one call, and
every public name is read.

A parameter that keeps its default at every call site in the package, the
tests and the benchmark is a knob nothing turns: it either does nothing or
hides a value the function should own.  These tests walk the sources with
``ast`` and name each such parameter, counting the field defaults of a
``@dataclass`` as the positional ``__init__`` parameters it generates.  A
public function, class or method that neither the package, the benchmark nor
the acceptance claims read is code nothing runs; the few kept on purpose are
listed, each with its reason.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphgauge"


def _trees(*paths):
    for p in paths:
        for path in sorted(p.rglob("*.py")) if p.is_dir() else [p]:
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


# Public names that nothing in the package, the benchmark or the acceptance
# claims reads, each kept for the reason given.
_UNREAD = {
    "wilson.plaquette_product": "the slow per-plaquette reference the action is tested against",
    "wilson.save_links": "the persisted form of a link field, pinned",
    "wilson.load_links": "the persisted form of a link field, pinned",
    "potential.save_field": "the persisted form of a potential, pinned",
    "potential.load_field": "the persisted form of a potential, pinned",
    "potential.gauge_transform": "the potential's gauge covariance, test_gauge_transform_pinned",
}


def _reads(node, inside=()):
    """(identifier, read as an attribute, enclosing definitions) of every name and
    attribute loaded under ``node``, annotations left out."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = (*inside, node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, False, inside
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, True, inside
    for field, value in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from _reads(child, inside)


def unread_names() -> list:
    """Each public function, class and method of the package (module.name, or
    module.Class.method) that no code in src, bench or the acceptance tests reads
    outside its own definition; a method is read only as an attribute."""
    trees = list(_trees(ROOT / "src", ROOT / "bench", ROOT / "tests" / "test_acceptance.py"))
    defs = {}
    for path, tree in trees:
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defs[f"{path.stem}.{node.name}"] = (node, False)
            if isinstance(node, ast.ClassDef) and node.name[0] != "_":
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name[0] != "_":
                        defs[f"{path.stem}.{node.name}.{fn.name}"] = (fn, True)
    reads = {}
    for _, tree in trees:
        for name, attribute, inside in _reads(tree):
            reads.setdefault(name, []).append((attribute, inside))
    return sorted(
        qualified
        for qualified, (node, method) in defs.items()
        if not any(
            (attribute or not method) and node not in inside
            for attribute, inside in reads.get(node.name, [])
        )
    )


def test_every_public_name_has_a_reader():
    unread = set(unread_names())
    unlisted = sorted(unread - _UNREAD.keys())
    assert not unlisted, f"public names nothing reads: {unlisted}"
    stale = sorted(_UNREAD.keys() - unread)
    assert not stale, f"listed as unread, but read or gone: {stale}"
