"""Every top-level function and class in src/superchan is reached by a command
or kept on purpose.

The walk starts at cli.main, at every module's top-level statements other
than imports and definitions, and at the KEEP entries.  From a reached
definition it follows each name its body reads: a definition of its own
module, a name imported by ``from .module import name``, or ``module.name``
after ``from . import module``.  A reached class reaches everything its body
reads, methods included.  Code that only tests call belongs in
tests/helpers.py, or is deleted with its tests.
"""

import ast
import functools
from pathlib import Path

import pytest

import superchan

PACKAGE = Path(superchan.__file__).resolve().parent

# name -> why it stays in src/ although no command reaches it
KEEP = {
    "channels.dephasing_channel": "acceptance criterion 09: the dephasing pipeline",
    "channels.DUChannelParams": "acceptance criterion 09; ROADMAP item 4 gives it a command",
    "channels.DOChannelParams": "acceptance criterion 10; ROADMAP item 4 gives it a command",
    "channels.ConjDUChannelParams": "ROADMAP item 4 gives it a command",
    "channels.table_channel": "ROADMAP item 4 gives it a command",
    "channels.table_channel_validate": "ROADMAP item 4 gives it a command",
    "covariance.uu_cp_closed_form": "acceptance criterion 06: the fully covariant families",
    "dephasing.dephasing_from_realization": "acceptance criteria 07, 09 and 12",
    "du.build_choi": "acceptance criteria 03, 04, 05, 07, 09, 11 and 12",
    "du.from_choi": "acceptance criterion 09",
    "linalg.is_psd": "acceptance criterion 06: the oracle of uu_cp_closed_form",
    "linalg.partial_transpose": "ROADMAP item 6: the oracle of PPT from positions",
    "pauli.bell_weights": "acceptance criterion 08: the oracle of pauli_apply",
    "pauli.pauli_apply": "acceptance criterion 08: the Pauli pipeline",
    "superchannels.classical_superchannel_extract": "acceptance criterion 12: the classical layer",
    "superchannels.sandwich_superchannel": "acceptance criterion 07: the sandwich controls",
}


@functools.cache
def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _bindings(tree: ast.Module, module: str) -> dict:
    """Each name the module binds to a package definition or module, as
    "module.name" or "module"; the definitions come last, so they win."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                out[bound] = f"{node.module}.{alias.name}" if node.module else alias.name
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = f"{module}.{node.name}"
    return out


def _reads(root: ast.AST, bindings: dict) -> set:
    """The package definitions the code under root reads, as "module.name"."""
    out = set()
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and node.id in bindings:
            out.add(bindings[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and "." not in bindings.get(node.value.id, ".")):  # module.name
            out.add(f"{bindings[node.value.id]}.{node.attr}")
    return out


def _unreached(keep=KEEP, modules=None) -> tuple[set, set]:
    """(the definitions outside __init__.py that nothing reaches from cli.main,
    the module-level statements and keep, every definition); modules maps a
    module's name to its parsed source and defaults to the package's."""
    modules = _modules() if modules is None else modules
    bindings = {m: _bindings(tree, m) for m, tree in modules.items()}
    defs, roots = {}, {"cli.main", *keep}
    for m, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{m}.{node.name}"] = (node, bindings[m])
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _reads(node, bindings[m])
    reached, todo = set(), [r for r in roots if r in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            node, names = defs[name]
            todo += [r for r in _reads(node, names) if r in defs]
    return {n for n in defs if not n.startswith("__init__.")} - reached, set(defs)


def test_every_definition_is_reached_or_kept():
    unreached, _ = _unreached()
    assert not unreached, (
        f"no command reaches {sorted(unreached)}: call it, move it to "
        "tests/helpers.py, delete it, or add it to KEEP with its reason")


def test_every_keep_entry_exists_has_a_reason_and_is_needed():
    _, defs = _unreached()
    assert not set(KEEP) - defs, f"KEEP names what src/ no longer defines: {sorted(set(KEEP) - defs)}"
    assert all(reason.strip() for reason in KEEP.values())
    reached = [n for n in KEEP if n not in _unreached(set(KEEP) - {n})[0]]
    assert not reached, f"reached without a KEEP entry: {reached}"


# name -> (module sources, KEEP names, the definitions left unreached)
MAIN, FGH = "def main(): pass", "def f(): g()\ndef g(): pass\ndef h(): pass"
WALKS = {
    "unread": ({"cli": MAIN, "m": "def f(): pass"}, (), {"m.f"}),
    "from-import": ({"cli": "from .m import f\ndef main(): f()", "m": FGH}, (), {"m.h"}),
    "module-attribute": ({"cli": "from . import m\ndef main(): m.f()", "m": FGH}, (), {"m.h"}),
    "module-statement": ({"cli": MAIN, "m": "def f(): pass\nTABLE = {'f': f}"}, (), set()),
    "class-body": ({"cli": "from .m import C\ndef main(): C()",
                    "m": "class C:\n    def run(self): return f()\ndef f(): pass"}, (), set()),
    "keep": ({"cli": MAIN, "m": FGH}, ("m.f",), {"m.h"}),
    "init": ({"cli": MAIN, "__init__": "def f(): pass"}, (), set()),
}


@pytest.mark.parametrize("case", WALKS)
def test_the_walk_on_a_small_package(case):
    sources, keep, unreached = WALKS[case]
    assert _unreached(set(keep), {m: ast.parse(src) for m, src in sources.items()})[0] == unreached
