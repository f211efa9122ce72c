"""Every top-level function and class of the package has a reader in the
package or in perfbench, or an entry below saying why it stays.

A definition is read where its name is loaded, as a name or as an
attribute, anywhere but inside the definition itself.  Probes that
perfbench names as strings do not count: the tracer can wrap a function
that nothing calls.
"""

import ast
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
