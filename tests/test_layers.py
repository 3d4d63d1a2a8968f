"""The import layering of the package and the rules each stated in one
place, read from its source with ast: every import of a package module
counts, function-level ones included."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "edgeind")
MODULES = {os.path.splitext(name)[0] for name in os.listdir(PACKAGE)
           if name.endswith((".py", ".c"))}
PY_MODULES = sorted(name for name in MODULES
                    if os.path.exists(os.path.join(PACKAGE, name + ".py")))


def _imported(node):
    """Names of the package modules an import node can load."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("edgeind.")}
    if not isinstance(node, ast.ImportFrom):
        return set()
    parts = (node.module or "").split(".")
    if node.level == 0:
        if parts[0] != "edgeind":
            return set()
        parts = parts[1:]
    if parts and parts[0]:
        return {parts[0]}
    return {alias.name for alias in node.names}  # from . import kernels


def _tree(module):
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        return ast.parse(fh.read())


def package_imports(module):
    found = set()
    for node in ast.walk(_tree(module)):
        found |= _imported(node)
    return found & MODULES


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def reads_environment(module):
    """Whether the module names ``os.environ`` or ``os.getenv`` (or their
    bytes forms), as an attribute or a ``from os import``."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT and \
                isinstance(node.value, ast.Name) and node.value.id == "os":
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os" and \
                ENVIRONMENT & {alias.name for alias in node.names}:
            return True
    return False


def test_import_layers():
    assert package_imports("graph") == set()
    assert package_imports("search") <= {"graph", "kernels"}
    assert package_imports("blowups") <= {"graph", "kernels", "fracind", "search"}
    assert package_imports("entropy") <= {"graph", "kernels"}


def test_import_scan_sees_function_level_imports():
    assert {"fracind", "blowups", "entropy"} <= package_imports("cli")
    assert "families" not in MODULES


def test_only_the_cli_reads_the_environment():
    # the kernel twin and the search ceiling follow only what the process
    # observes and the code says; the store path is the one setting read
    # from the environment
    assert [name for name in PY_MODULES if reads_environment(name)] == ["cli"]


PATTERN_RULE = "pattern must have no isolated vertices"


def test_the_pattern_rule_is_stated_once():
    # kernels.check_pattern holds the rule's one message; every entry point
    # that takes a pattern calls it
    sites = [name for name in PY_MODULES for node in ast.walk(_tree(name))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and PATTERN_RULE in node.value]
    assert sites == ["kernels"]


def test_ceiling_error_is_raised_with_the_budget_only():
    # the ceiling and the class estimate are the exception's to derive
    calls = [node.exc for name in PY_MODULES for node in ast.walk(_tree(name))
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "CeilingError"]
    assert len(calls) == 2
    assert all(len(call.args) == 1 and not call.keywords for call in calls)


def _statement_name(stmt):
    """A module-level statement's name: a definition's, an assignment's
    first target, or else the statement's type."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return type(stmt).__name__


def _names(module):
    """The names a module's source uses, defines or imports by name."""
    tree = _tree(module)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names | {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_the_word_is_named_by_graph_and_blowups_only():
    # graph defines WORD_VERTICES and blowups caps a construction's size
    # with it; no kernel twin or growth rule depends on it, so the pure
    # twin answers the same whatever word the compiled one has
    assert [name for name in PY_MODULES if "WORD_VERTICES" in _names(name)] == \
        ["blowups", "graph"]


def test_the_compiled_twin_alone_says_what_it_holds():
    # kernels states no word size: no WORD_VERTICES, no vertex or label
    # length and no long-form graph6 test.  The compiled twin answers
    # NotImplemented for an input it cannot hold, and one _call picks the
    # twin at call time, so the twins are named only there and in the
    # import fallback
    tree = _tree("kernels")
    assert "WORD_VERTICES" not in _names("kernels")
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not constants & {62, 63, 64, 340, "~"}
    sites = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == "_impl" or \
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_pure":
                sites.add(_statement_name(stmt))
    assert sites == {"Try", "BACKEND", "_call"}
