"""Source-level checks on the package itself."""

import ast
import doctest
import re
import types
from pathlib import Path

import braidforce
from braidforce.braid import BraidWord, _braid, format_braid, parse_braid
from braidforce.freegroup import FreeWord, _word, format_word, parse_word

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


def test_one_check_builds_the_positive_integer_message():
    # every rank, strand count and cap is checked by freegroup._check_positive,
    # so the test and its message live in one place
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "must be a positive integer" in node.value:
                found.append((path.name, scope))
    assert found == [("freegroup.py", "_check_positive")]


def test_nielsen_abelianizes_in_abelian_invariant_and_the_strand_permutation_only():
    # every class invariant, a degenerate family's included, is read through
    # abelian_invariant and its per-context memo
    path = PACKAGE / "nielsen.py"
    found = set()
    for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abelianize":
            found.add(scope)
    assert found == {"abelian_invariant", "TwistContext._strand_perm"}


def test_analyse_is_the_one_cross_call_memo_in_nielsen():
    # a repeated query reuses its whole pipeline, keyed by (theta, bounds),
    # so no stage keeps a process-wide cache of its own; the context's
    # cached properties die with it
    path = PACKAGE / "nielsen.py"
    found = set()
    for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("lru_cache", "cache"):
            found.add(scope)
    assert found == {"_analyse"}


def test_no_package_code_calls_id():
    # a memo keyed by id() is only sound while every keyed object stays
    # alive; words keep their own text instead, and other memos key by value
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id":
                found.append(f"{path.name}:{node.lineno} in {scope or '<module>'}")
    assert found == []


def test_words_and_braids_keep_their_text():
    # format_word and format_braid format a word object once and return the
    # kept string after; equal words built any way have equal text
    w = parse_word("x1 x2^-1 x3", 3)
    assert format_word(w) is format_word(w)
    assert format_word(w) == format_word(FreeWord(3, (1, -2, 3))) == format_word(_word(3, (1, -2, 3))) == "x1 x2^-1 x3"
    assert format_word(_word(3, ())) == format_word(FreeWord(3)) == format_word(parse_word("e", 3)) == "e"
    b = parse_braid("s2 s1^-1", 3)
    assert format_braid(b) is format_braid(b)
    assert format_braid(b) == format_braid(BraidWord(3, (2, -1))) == format_braid(_braid(3, (2, -1))) == "s2 s1^-1"


def test_the_orbit_walk_counts_join_cancels_in_one_place_and_slices_its_words():
    # the cancels where reduced words meet are counted by nielsen._cancels
    # alone: a while loop comparing a letter with a negated letter, and the
    # walks (_orbit, and canonical_rep's _least) build every word by slicing
    # at those counts, not by reducing
    path = PACKAGE / "nielsen.py"
    counting, reducing = set(), set()
    for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.While):
            for cmp in ast.walk(node.test):
                if isinstance(cmp, ast.Compare) and any(
                    isinstance(c, ast.UnaryOp) and isinstance(c.op, ast.USub) and isinstance(c.operand, ast.Subscript)
                    for c in cmp.comparators
                ):
                    counting.add(scope)
        if isinstance(node, ast.Name) and node.id == "_reduce_letters":
            reducing.add(scope)
    assert counting == {"_cancels"}
    assert "_orbit" not in reducing
    assert "_least" not in reducing


def test_the_fold_reduces_no_tuples_and_takes_every_crossing_from_one_table():
    # braid._fold applies each crossing as one str.replace chain and never
    # calls _reduce_letters; every string it substitutes is a placeholder,
    # the empty string or a name unpacked from _CROSSINGS, whose entries
    # braid._crossing alone builds, read nowhere but where the table is made
    path = PACKAGE / "braid.py"
    replacing, reducing, building = set(), set(), set()
    table, arguments = set(), []
    for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "replace":
            replacing.add(scope)
            arguments += node.args
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript):
            if isinstance(node.value.value, ast.Name) and node.value.value.id == "_CROSSINGS":
                table |= {name.id for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)}
        if isinstance(node, ast.Name) and node.id == "_reduce_letters":
            reducing.add(scope)
        if isinstance(node, ast.Name) and node.id == "_crossing":
            building.add(scope)
    assert replacing == {"_fold"}
    assert "_fold" not in reducing
    assert building == {""}
    assert len(arguments) == 14
    for arg in arguments:
        named = isinstance(arg, ast.Name) and arg.id in table | {"_P", "_Q"}
        assert named or (isinstance(arg, ast.Constant) and arg.value == ""), ast.unparse(arg)


def test_braid_eq_compares_folded_texts_and_only_artin_and_from_word_decode_them():
    # braid_eq compares two folds' coded texts, so it builds no FreeEndo and
    # calls no artin; _LETTER, the decode table, is read where it is made
    # and where letters leave the fold: artin's images and from_word's image
    building, decoding = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id in ("artin", "FreeEndo") and scope == "braid_eq":
                building.add(node.id)
            if isinstance(node, ast.Name) and node.id == "_LETTER":
                decoding.add((path.name, scope))
    assert building == set()
    assert decoding == {("braid.py", ""), ("braid.py", "artin"), ("augbraid.py", "from_word")}


def test_the_pipeline_composes_no_endomorphism():
    # every Artin image, theta^m's included, is folded by braid._fold:
    # theta^m is artin(beta^m), so endo_power stays only as public API for
    # general endomorphisms, named by no package code, and compose has no
    # caller but endo_power
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("endo_power", "compose"):
                found.add((path.name, scope, name))
    assert found == {("freegroup.py", "endo_power", "compose")}


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



# operators run through syntax (`a * b`, `-a`), which no static search ties to a class
OPERATOR_DUNDERS = {"__add__", "__sub__", "__mul__", "__matmul__", "__truediv__", "__pow__", "__neg__", "__invert__"}


def test_every_unexported_public_definition_has_a_caller():
    # a public top-level def or class outside __all__, and a public method,
    # property or classmethod of any package class, must be used by other
    # package code, by the benchmark or by the README's examples: a def or
    # class where its name is read, a method where `.name` is read (only
    # `C.name` counts when the owner is spelled as a package class C). A use
    # inside a definition that fails this check does not count, so code that
    # only such definitions call fails it too. An operator dunder has no
    # call site to find, so each one the package defines fails
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    methods = {  # "Class.method" -> (module, "Class.method"), for the public and operator methods
        f"{node.name}.{item.name}": (module, f"{node.name}.{item.name}")
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and (not item.name.startswith("_") or item.name in OPERATOR_DUNDERS)
    }

    def read_methods(ref):
        """The "Class.method" names an attribute read may call."""
        if not isinstance(ref.ctx, ast.Load):
            return set()
        owner = getattr(ref.value, "id", None) or getattr(ref.value, "attr", None)
        if owner in classes:
            return {f"{owner}.{ref.attr}"} & methods.keys()
        return {name for name in methods if name.split(".")[1] == ref.attr}

    defined = set(methods.values())  # (module, name) of a def or class, (module, "Class.method") of a method
    uses = []  # (users, used); users are the (module, top-level name) and (module, "Class.method") around the use
    for module, tree in trees.items():
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
        for scope, ref in _scoped_nodes(tree):
            parts = scope.split(".")
            users = ((module, parts[0] or None), (module, ".".join(parts[:2])))  # module-level code is name None
            if isinstance(ref, ast.Name):
                uses.append((users, imported.get(ref.id, (module, ref.id))))
            elif isinstance(ref, ast.Attribute):
                uses += ((users, methods[name]) for name in read_methods(ref))
    sources = [(path.read_text(), path.name) for path in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += [(ex.source, "README.md") for ex in doctest.DocTestParser().get_examples(readme)]
    named_outside = set()  # names, and the "Class.method" names of attribute reads
    for text, filename in sources:
        for ref in ast.walk(ast.parse(text, filename=filename)):
            if isinstance(ref, ast.Name):
                named_outside.add(ref.id)
            elif isinstance(ref, ast.Attribute):
                named_outside |= {ref.attr} | read_methods(ref)
            elif isinstance(ref, ast.alias):
                named_outside.add(ref.asname or ref.name)
    operators = {key for name, key in methods.items() if name.split(".")[1] in OPERATOR_DUNDERS}
    dead = set()
    while True:
        live = {used for users, used in uses if used not in users and not dead.intersection(users)}
        found = operators | {key for key in defined if key not in live and key[1] not in named_outside}
        if found == dead:
            break
        dead = found
    unreferenced = sorted(f"{module}.{name}" for module, name in dead)
    assert not unreferenced, "no caller outside the tests (an operator never has one): " + ", ".join(unreferenced)
