"""Every top-level function and class of the package has a reader in the
package or in perfbench, or an entry below saying why it stays.  Every
method, property and annotated field of a class has a reader in the
package, in perfbench or in the tests, with no list of exceptions.

A definition is read where its name is loaded, as a name or as an
attribute, anywhere but inside the definition itself.  Probes that
perfbench names as strings do not count: the tracer can wrap a function
that nothing calls.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "moeblab").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# (module, name) -> why it stays with no reader in src/ or perfbench/
UNREAD = {
    ("complexity", "covering_number"): "read by the acceptance tests",
    ("cocycle", "coboundary_residual"): "read by the acceptance tests",
    ("fixtures", "m_empty_fixture"): "read by the acceptance tests",
    ("fixtures", "m_pm1_fixture"): "read by the acceptance tests",
    ("complexity", "dbar_distance"):
        "the step-wise dbar_n the balls of every kind are tested against",
    ("numtheory", "mu_by_factorization"): "the sieve's test reference",
    ("contfrac", "centered_fractional"):
        "the exact value the rung ladders are tested against",
    ("contfrac", "circle_norm_interval"):
        "the exact interval the rung ladders are tested against",
    ("_kernels", "accumulate_circle"):
        "perfbench/tracing.py probes it; it goes with that probe",
}


def _loads(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _unread() -> set[tuple[str, str]]:
    """(module, name) of each top-level definition in src/ read nowhere but
    inside itself."""
    defined = set()
    readers: dict[str, set] = {}     # name -> definitions (or None) reading it
    for path in READERS:
        for node in ast.parse(path.read_text(), str(path)).body:
            own = None
            if path in SOURCES and isinstance(node, (ast.FunctionDef,
                                                     ast.ClassDef)):
                own = (path.stem, node.name)
                defined.add(own)
            for name in _loads(node):
                readers.setdefault(name, set()).add(own)
    return {key for key in defined
            if not readers.get(key[1], set()) - {key}}


def test_every_definition_has_a_reader():
    assert sorted(_unread() - UNREAD.keys()) == []


def test_every_listed_definition_is_still_unread():
    # a listed name that gained a reader, or is gone, leaves the list
    assert sorted(UNREAD.keys() - _unread()) == []


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------

MEMBER_READERS = READERS + sorted((ROOT / "tests").glob("*.py"))


def _members(tree):
    """(class, member, node) of each method, property and annotated field
    of a class; dunder methods are read by Python itself."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name, node


def _member_loads(node):
    """Names `node` loads as an attribute, passes as a keyword or spells
    as a string."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _unread_members() -> set[tuple[str, str, str]]:
    """(module, class, member) of each member in src/ whose name is loaded
    nowhere in src/, perfbench/ or tests/ but inside its own body."""
    loads: Counter = Counter()
    members = []
    for path in MEMBER_READERS:
        tree = ast.parse(path.read_text(), str(path))
        loads.update(_member_loads(tree))
        if path in SOURCES:
            members += [(path.stem, cls, name, node)
                        for cls, name, node in _members(tree)]
    return {(module, cls, name) for module, cls, name, node in members
            if loads[name] == Counter(_member_loads(node))[name]}


def test_every_member_has_a_reader():
    assert sorted(_unread_members()) == []
