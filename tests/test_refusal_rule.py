"""The package refuses bad input one way.

Every refusal is a ``ValidationError`` (the command line's exit code 2), so
no module raises a plain ``ValueError``; every integer floor is
``errors._integer``'s ``least``, so no module compares a value with an
integer literal before it raises; and every call of ``errors._real``,
``errors._positive``, ``errors._integer`` or ``geometry._check_reach``
keeps the number it returns, so none is a bare statement; and every guard
that raises orders its values under a ``not``, ``if not 0.0 < x: raise``, so
that NaN, which fails every ordering, fails the guard.  The rules are
read off the source with ``ast``, as ``grep`` reads off the angle rule that
no ``% TWO_PI`` is written outside ``geometry._wrap``.
"""

import ast
from pathlib import Path

import hyperlorentz

SOURCES = sorted(Path(hyperlorentz.__file__).parent.glob("*.py"))

# The one integer rule with a message of its own: a variance needs two samples.
OWN_FLOORS = {("experiments.py", "flight-baseline needs samples >= 2 for its event-count variance")}

ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

CHECKS = ("_real", "_positive", "_integer", "_check_reach")


def _raises(node):
    """The (name, message) of each raise in the statements under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise) and sub.exc is not None:
            call = sub.exc if isinstance(sub.exc, ast.Call) else None
            func = call.func if call else sub.exc
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            arg = call.args[0] if call and call.args else None
            yield name, arg.value if isinstance(arg, ast.Constant) else None


def _integer_floor(test) -> bool:
    """Whether a test orders a value against an integer literal: n < 1, 0 > n, not n >= 2."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Compare) and any(isinstance(op, ORDER) for op in sub.ops):
            for side in (sub.left, *sub.comparators):
                if isinstance(side, ast.Constant) and type(side.value) is int:
                    return True
    return False


def _bare_orders(test):
    """The ordering comparisons in a test that no ``not`` encloses: x <= 0.0, any(b < a ...)."""

    def walk(node, negated):
        negated = negated or (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not))
        if not negated and isinstance(node, ast.Compare) and any(isinstance(op, ORDER) for op in node.ops):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from walk(child, negated)

    return list(walk(test, False))


def _dropped_checks(tree):
    """The line of each check whose result is dropped: a call of one of CHECKS as a statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in CHECKS:
                yield node.lineno


def test_the_rule_reads_the_whole_package():
    assert {p.name for p in SOURCES} >= {
        "billiard.py", "cli.py", "errors.py", "experiments.py", "flight.py", "geometry.py",
        "obstacles.py", "stats.py",
    }


def test_no_module_raises_a_plain_value_error():
    found = [
        path.name
        for path in SOURCES
        for name, _ in _raises(ast.parse(path.read_text()))
        if name == "ValueError"
    ]
    assert found == []


def test_no_integer_floor_outside_errors_integer():
    # _integer's own floor compares with ``least``, not with a literal.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.If) and _integer_floor(node.test)
        for raised in _raises(ast.Module(node.body, []))
        if (path.name, raised[1]) not in OWN_FLOORS
    ]
    assert found == []


def test_every_check_keeps_the_number_it_returns():
    # A check that drops its result lets a numpy scalar through unconverted:
    # a float32 radius ran the contact rule at single precision.
    found = [f"{path.name}:{line}" for path in SOURCES for line in _dropped_checks(ast.parse(path.read_text()))]
    assert found == []


def test_every_guard_orders_under_a_not():
    # ``if d <= lo or d > hi: raise`` let a NaN center into a field.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.If) and any(_raises(ast.Module(node.body, []))) and _bare_orders(node.test)
    ]
    assert found == []


def test_the_rule_finds_what_it_forbids():
    # The hand-written floors and the plain ValueErrors that the rule replaced.
    floor = ast.parse('if _integer("size", size) < 0:\n    raise ValidationError("size must be >= 0")')
    assert _integer_floor(floor.body[0].test)
    assert _integer_floor(ast.parse("not 1 <= self.samples", mode="eval").body)
    assert not _integer_floor(ast.parse("centers.ndim != 2 or not 0.0 < level < 1.0", mode="eval").body)
    assert list(_raises(ast.parse('raise ValueError(f"time {t} outside")'))) == [("ValueError", None)]
    assert list(_raises(ast.parse('raise errors.ValidationError("x")'))) == [("ValidationError", "x")]
    # The dropped checks that the rule replaced, beside kept ones.
    source = '_positive("r", r)\nr = _positive("r", r)\nerrors._integer("k", k, 1)\nf(_integer("k", k))'
    assert list(_dropped_checks(ast.parse(source))) == [1, 3]
    # The unchecked numbers that errors._real replaced, and _check_reach's float.
    source = 't = _real("time", t)\nerrors._real("x", x)\n_check_reach("time", t, s.point)\nf(_real("y", y))'
    assert list(_dropped_checks(ast.parse(source))) == [2, 3]
    # A guard that NaN passed, beside its rewrite.
    assert _bare_orders(ast.parse("np.any(d <= lo) or np.any(d > hi)", mode="eval").body)
    assert not _bare_orders(ast.parse("not np.all((d > lo) & (d <= hi))", mode="eval").body)
