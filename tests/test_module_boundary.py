"""Module boundaries inside the package, checked on its source.

Private names stay in the module that defines them, and a partition's state
is owned by ``triangular.py``: other modules read ``WhitneyPartition``
(including its ``compiled`` form) but never attach attributes to it.
``PulledBackObjective.__call__`` keeps no state: it sets no attribute of
``self``, so a call depends on its arguments alone.  The float range is
decided in one place: ``eval_terms`` saturates a power past it, generated
table code hands a power that raises to ``eval_terms``, and only
``descend`` catches the ``OverflowError`` the lift raises on purpose.  Only
``polynomials.py`` reads a polynomial's exact form (``.terms``, ``.exps``);
every other module works from its compiled float tables.  It also owns the
one rule that evaluates them: no other module reads a table with
``eval_terms`` or generates code, they all call ``evaluator``.
"""

import ast
from pathlib import Path

import pytest

import polydescent

MODULES = sorted(Path(polydescent.__file__).parent.glob("*.py"))


def private_imports(tree: ast.AST) -> list[str]:
    """``_``-prefixed names imported from a polydescent module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "polydescent"
        ):
            out += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    return out


def attribute_writes(tree: ast.AST, is_target) -> list[str]:
    """Attribute stores, deletes and ``setattr`` calls on nodes ``is_target`` accepts."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            hit = is_target(node.value)
        elif isinstance(node, ast.Call):
            hit = (
                ast.unparse(node.func) in ("setattr", "object.__setattr__")
                and bool(node.args)
                and is_target(node.args[0])
            )
        else:
            continue
        if hit:
            out.append(f"line {node.lineno}: {ast.unparse(node)}")
    return out


def partition_writes(tree: ast.AST) -> list[str]:
    """Attribute writes on a value annotated ``WhitneyPartition`` or named ``*.partition``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            ann, name = node.annotation, node.arg
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            ann, name = node.annotation, node.target.id
        else:
            continue
        if ann is not None and "WhitneyPartition" in ast.unparse(ann):
            names.add(name)

    def is_partition(node):
        if isinstance(node, ast.Name):
            return node.id in names
        return isinstance(node, ast.Attribute) and node.attr == "partition"

    return attribute_writes(tree, is_partition)


def self_writes(tree: ast.AST, cls: str, method: str) -> list[str]:
    """Attribute writes on the instance (the first argument) inside ``cls.method``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == method:
                    me = fn.args.args[0].arg
                    out += attribute_writes(
                        fn, lambda n: isinstance(n, ast.Name) and n.id == me
                    )
    return out


def overflow_handlers(tree: ast.AST) -> list[str]:
    """Innermost function (or ``<module>``) of each ``except`` that catches
    ``OverflowError`` by name or as ``ArithmeticError``, alone or in a tuple.
    """
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                names = {ast.unparse(t).split(".")[-1] for t in types}
                if names & {"OverflowError", "ArithmeticError"}:
                    out.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return out


def exact_form_reads(tree: ast.AST) -> list[str]:
    """Reads of an attribute named ``terms`` or ``exps``."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("terms", "exps")
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "polynomials.py"], ids=lambda p: p.name
)
def test_exact_form_is_read_only_in_polynomials(path):
    assert exact_form_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_exact_form_check_catches_reads():
    bad = """
def tables(p, y):
    for m, c in p.terms.items():
        rest = [e for i, e in m.exps if i != y]
    return getattr(p, "terms"), p.compile(), p.order
"""
    assert exact_form_reads(ast.parse(bad)) == ["line 3: p.terms", "line 4: m.exps"]


# the table reader and the code generator, and the builtins that generate code
EVALUATION_RULE = {"eval_terms", "_line"}
CODE_BUILTINS = {"compile", "eval", "exec"}


def evaluation_rule_refs(tree: ast.AST) -> list[str]:
    """Imports, names and attributes of the evaluation rule, and names of the
    builtins that generate code (an attribute ``.compile`` is a polynomial's)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            hit = node.name.split(".")[-1] in EVALUATION_RULE
        elif isinstance(node, ast.Attribute):
            hit = node.attr in EVALUATION_RULE
        elif isinstance(node, ast.Name):
            hit = node.id in EVALUATION_RULE | CODE_BUILTINS
        else:
            continue
        if hit:
            out.append(f"line {node.lineno}: {ast.unparse(node)}")
    return out


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "polynomials.py"], ids=lambda p: p.name
)
def test_tables_are_evaluated_only_in_polynomials(path):
    assert evaluation_rule_refs(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_evaluation_rule_check_catches_references():
    bad = """
from .polynomials import Polynomial, eval_terms as ev, evaluator
import polydescent.polynomials as P

def value(p, terms, vals):
    code = eval(compile(P._line(terms), "<t>", "eval"))
    return ev(terms, vals), P.eval_terms(terms, vals), p.compile(), evaluator([terms])
"""
    assert sorted(evaluation_rule_refs(ast.parse(bad))) == [
        "line 2: eval_terms as ev",
        "line 6: P._line",
        "line 6: compile",
        "line 6: eval",
        "line 7: P.eval_terms",
    ]


# each function that may catch OverflowError, by module
OVERFLOW_HANDLERS = {
    "polynomials.py": ["eval_terms", "evaluate_tables"],
    "descent.py": ["descend"],
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_overflow_is_caught_only_where_the_float_range_is_decided(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert overflow_handlers(tree) == OVERFLOW_HANDLERS.get(path.name, [])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "triangular.py"], ids=lambda p: p.name
)
def test_partition_attributes_set_only_in_triangular(path):
    assert partition_writes(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_checks_catch_violations():
    bad = """
from .geometry import _kernels
from polydescent.geometry import lift, _eval_terms as ev

def attach(part: WhitneyPartition, frame):
    part._cache = 1
    frame.partition.extra = 2
    setattr(part, "x", 3)
"""
    tree = ast.parse(bad)
    assert len(private_imports(tree)) == 2
    assert len(partition_writes(tree)) == 3


def test_overflow_check_catches_handlers():
    bad = """
def norm(x):
    try:
        return x ** 2
    except OverflowError:
        return inf

def outer():
    def inner():
        try:
            pass
        except (ValueError, builtins.OverflowError) as exc:
            raise exc
    try:
        inner()
    except ValueError:
        pass

try:
    import numpy
except ArithmeticError:
    pass
"""
    assert overflow_handlers(ast.parse(bad)) == ["norm", "inner", "<module>"]


def test_pullback_call_keeps_no_state():
    path = Path(polydescent.__file__).parent / "geometry.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = [
        fn.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "PulledBackObjective"
        for fn in node.body
        if isinstance(fn, ast.FunctionDef)
    ]
    assert "__call__" in methods
    assert self_writes(tree, "PulledBackObjective", "__call__") == []


def test_state_check_catches_writes():
    bad = """
class PulledBackObjective:
    def __init__(self):
        self.ok = 1

    def __call__(obj, p, warm=None):
        obj.last = p
        obj.count += 1
        del obj.warm
        setattr(obj, "x", 2)
        other.y = 3
        return p
"""
    assert len(self_writes(ast.parse(bad), "PulledBackObjective", "__call__")) == 4
