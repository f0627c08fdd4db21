"""Source-level checks on the package itself."""

import ast
import doctest
import re
import types
from pathlib import Path

import braidforce

PACKAGE = Path(braidforce.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
BENCH_WORKLOADS = ROOT / "bench" / "workloads.py"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check that guards a result
    # must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []



def _scoped_nodes(node, scope=""):
    """Yield (scope, child) for every node below node; scope is the dotted enclosing function or class."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}.{child.name}" if scope else child.name)
        else:
            yield from _scoped_nodes(child, scope)


def test_only_cli_main_prints():
    # every command returns its output and `cli.main` prints it, so stdout
    # has one writer
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            is_print = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
            if is_print and (path.name, scope) != ("cli.py", "main"):
                found.append(f"{path.name}:{node.lineno} in {scope or '<module>'}")
    assert found == []


def test_only_cli_main_reads_the_json_flag():
    # every command returns its document and main alone picks JSON or text,
    # so text is rendered from the --json document
    path = PACKAGE / "cli.py"
    found = set()
    for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "json" and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.json in {scope or '<module>'}")
    assert found == {"args.json in main"}


def test_no_json_dumps_call_indents():
    # the standard encoder runs in pure Python when indent is set; --json
    # text is written by cli._json_text alone
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dumps" and any(kw.arg == "indent" for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno} in {scope or '<module>'}")
    assert found == []


def test_the_image_cap_is_enforced_in_one_fold():
    # every capped fold goes through braid._fold, so the cap and its message
    # live in one place
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "WordTooLongError":
                    found.append((path.name, scope))
    assert found == [("braid.py", "_fold")]


def test_nielsen_abelianizes_in_abelian_invariant_and_the_strand_permutation_only():
    # every class invariant, a degenerate family's included, is read through
    # abelian_invariant and its per-context memo
    path = PACKAGE / "nielsen.py"
    found = set()
    for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abelianize":
            found.add(scope)
    assert found == {"abelian_invariant", "TwistContext._strand_perm"}


def test_all_is_exactly_the_public_names_bound_in_the_package():
    # an import without an export, or an export without an import, fails
    bound = {
        name
        for name, value in vars(braidforce).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(braidforce.__all__)) == len(braidforce.__all__)
    assert set(braidforce.__all__) == bound


def test_bench_workloads_use_only_exported_names():
    used = set(re.findall(r"\bbf\.(\w+)", BENCH_WORKLOADS.read_text()))
    assert used
    assert used - set(braidforce.__all__) == set()



def test_every_unexported_public_definition_has_a_caller():
    # a public top-level def or class outside __all__ must be used by other
    # package code, by the benchmark or by the README's examples; a use
    # inside a definition that fails this check does not count, so code that
    # only such definitions call fails it too
    defined = set()  # (module, name)
    uses = []  # (user, used): the (module, top-level name) of each side; module-level code is name None
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for node in tree.body:
            name = getattr(node, "name", None)  # set on def and class statements only
            if name and not name.startswith("_") and name not in braidforce.__all__:
                defined.add((module, name))
            uses += (
                ((module, name), imported.get(ref.id, (module, ref.id)))
                for ref in ast.walk(node)
                if isinstance(ref, ast.Name)
            )
    sources = [(path.read_text(), path.name) for path in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += [(ex.source, "README.md") for ex in doctest.DocTestParser().get_examples(readme)]
    named_outside = set()
    for text, filename in sources:
        for ref in ast.walk(ast.parse(text, filename=filename)):
            if isinstance(ref, ast.Name):
                named_outside.add(ref.id)
            elif isinstance(ref, ast.Attribute):
                named_outside.add(ref.attr)
            elif isinstance(ref, ast.alias):
                named_outside.add(ref.asname or ref.name)
    dead = set()
    while True:
        live = {used for user, used in uses if user != used and user not in dead}
        found = {key for key in defined if key not in live and key[1] not in named_outside}
        if found == dead:
            break
        dead = found
    unreferenced = sorted(f"{module}.{name}" for module, name in dead)
    assert not unreferenced, "no caller outside the tests: " + ", ".join(unreferenced)
