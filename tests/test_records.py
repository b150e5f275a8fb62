"""valex's records: named tuples, two assignable slots classes, a lean import,
exports that resolve, no unused private names and no unused error class."""

import ast
import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import valex
from valex import errors
from valex.alexander import invariant_report
from valex.diagram import Diagram, Passage, odd_writhe, parse_gauss
from valex.errors import InvalidArgument, ParseError, ValexError
from valex.laurent import ZERO, LaurentPoly, U, exact_div
from valex.twist import TwistSpec
from valex.verify import CheckResult


def test_import_loads_no_dataclasses_inspect_or_fractions():
    # -S keeps site hooks from preloading modules, so the check sees only
    # what valex itself imports
    src = str(Path(valex.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import valex; "
            "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def _exports() -> list:
    modules = [valex] + [importlib.import_module(f"valex.{info.name}")
                         for info in pkgutil.iter_modules(valex.__path__)]
    return [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())]


@pytest.mark.parametrize("module, name", _exports())
def test_every_export_resolves(module, name):
    getattr(importlib.import_module(module), name)


def test_every_private_name_is_used():
    # a module-level _name that no other statement in valex reads is dead code
    statements = []  # (module, index, names it defines, names it reads)
    for path in sorted(Path(valex.__file__).resolve().parent.glob("*.py")):
        for index, node in enumerate(ast.parse(path.read_text()).body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defines = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defines = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                defines = set()
            reads = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    reads.add(n.id)
                elif isinstance(n, ast.Attribute):
                    reads.add(n.attr)
                elif isinstance(n, ast.ImportFrom):
                    reads.update(a.name for a in n.names)
            statements.append((path.name, index, defines, reads))
    unused = []
    for module, index, defines, _ in statements:
        for name in sorted(defines):
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in reads for m, i, _, reads in statements
                                   if (m, i) != (module, index)):
                unused.append(f"{module}:{name}")
    assert unused == []


def test_every_error_class_is_raised():
    # an error class that no raise statement in valex names is dead code
    raised = set()
    for path in Path(valex.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, ValexError) and obj is not ValexError}
    assert classes and classes - raised == set()


_RAISE_SITES = {  # name -> (call, type, message, position)
    "pairing": (lambda: Diagram([[Passage(1, True)]], {1: 1}), InvalidArgument,
                "crossing 1 must be visited exactly once over and once under", None),
    "sign": (lambda: Diagram([[Passage(1, True), Passage(1, False)]], {1: 2}), InvalidArgument,
             "crossing 1 needs the int sign 1 or -1, not 2", None),
    "no_signs": (lambda: Diagram([[Passage(1, True), Passage(1, False)]], {}), InvalidArgument,
                 "crossing 1 needs the int sign 1 or -1, not None", None),
    "absent_sign": (lambda: Diagram([[Passage(1, True), Passage(1, False)]], {1: 1, 2: 1}),
                    InvalidArgument, "signs given for absent crossings: [2]", None),
    "int_over_flag": (lambda: Diagram([[Passage(1, 2), Passage(1, 3)]], {1: 1}),
                      InvalidArgument, "crossing 1's over flag 2 is not a bool", None),
    "tuple_passage": (lambda: Diagram([[(1, True), (1, False)]], {1: 1}), InvalidArgument,
                      "passage (1, True) is not a Passage", None),
    "no_components": (lambda: Diagram([], {}), InvalidArgument,
                      "diagram has no components", None),
    "empty_component": (lambda: Diagram([[Passage(1, True), Passage(1, False)], []], {1: 1}),
                        InvalidArgument, "crossing-free components are not allowed", None),
    "both_signs": (lambda: parse_gauss("O1+U1-"), ParseError,
                   "crossing 1 appears with both signs in 'O1+U1-' (at position 3)", 3),
    "empty_text_component": (lambda: parse_gauss("O1+;;U1+"), ParseError,
                             "component without classical crossings (at position 4)", 4),
    "leading_empty_component": (lambda: parse_gauss(";O1+U1+"), ParseError,
                                "component without classical crossings (at position 0)", 0),
    "trailing_empty_component": (lambda: parse_gauss("O1+U1+;"), ParseError,
                                 "component without classical crossings (at position 7)", 7),
    "bad_token_ends_at_semicolon": (lambda: parse_gauss("O1+;Xy;U1+"), ParseError,
                                    "bad token in Gauss code 'Xy' (at position 4)", 4),
    "blank_text": (lambda: parse_gauss(" \t\n"), ParseError,
                   "empty Gauss code (at position 0)", 0),
    "odd_writhe_link": (lambda: odd_writhe(parse_gauss("O1+;U1+")), InvalidArgument,
                        "odd writhe is defined for knots", None),
    "div_by_zero": (lambda: exact_div(U, ZERO), InvalidArgument,
                    "division by the zero polynomial", None),
    "nonunit_power": (lambda: (U + 1) ** -1, InvalidArgument,
                      "cannot raise 1 + u to power -1", None),
    "float_coefficient": (lambda: LaurentPoly({(0, 0): 1.0}), InvalidArgument,
                          "coefficient 1.0 is not an int", None),
    "float_exponent": (lambda: LaurentPoly({(0.5, 0): 1}), InvalidArgument,
                       "exponent pair (0.5, 0) is not a pair of ints", None),
}


@pytest.mark.parametrize("site", list(_RAISE_SITES))
def test_error_type_message_and_position(site):
    # one class per kind of failure, and the message prints as written:
    # no KeyError quotes
    call, kind, message, position = _RAISE_SITES[site]
    with pytest.raises(ValexError) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message
    if kind is ParseError:
        assert exc.value.position == position


class TestTwistSpec:
    def test_immutable(self):
        spec = TwistSpec((1, 2))
        with pytest.raises(AttributeError):
            spec.blocks = (3,)
        with pytest.raises(AttributeError):
            spec.clasp = "b"

    def test_equal_and_hashable(self):
        a, b = TwistSpec((1, -2), "b"), TwistSpec([1, -2], "b")
        assert a == b and hash(a) == hash(b)
        assert len({a, b, TwistSpec((1, -2))}) == 2
        assert TwistSpec((1, -2)).clasp == "a"
        assert a != TwistSpec((1, -2), "^b")

    def test_pickle_round_trip(self):
        spec = TwistSpec((3, -1, 0), "^a")
        back = pickle.loads(pickle.dumps(spec))
        assert type(back) is TwistSpec and back == spec
        assert repr(back) == "TwistSpec(blocks=(3, -1, 0), clasp='^a')"
        assert str(back) == "VT[^a](3,-1,0)"


class TestCheckResult:
    def test_detail_defaults_to_empty(self):
        assert CheckResult("s", "c", True, "1", "1").detail == ""

    def test_str(self):
        ok = CheckResult("VT[a](1)", "divisibility", True, "x", "0")
        bad = CheckResult("VT[a](1)", "divisibility", False, "x", "0", "why")
        assert str(ok) == ("ok  VT[a](1)                 divisibility"
                           "                 x == 0")
        assert str(bad) == ("FAIL VT[a](1)                 divisibility"
                            "                 x == 0  [why]")

    def test_immutable(self):
        r = CheckResult("s", "c", True, "1", "1")
        with pytest.raises(AttributeError):
            r.passed = False


def test_invariant_report_fields_assignable():
    rep = invariant_report(parse_gauss("O1+U2+O3+U1+O2+U3+"))
    delta0 = rep.delta0 + valex.U
    rep.delta0 = delta0
    rep.conjecture_holds = False
    assert rep.delta0 == delta0 and rep.conjecture_holds is False
    with pytest.raises(AttributeError):
        rep.extra = 1  # slots: no new attributes
