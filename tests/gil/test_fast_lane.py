"""The concrete fast lane: its gate, and its agreement with the symbolic
evaluator on operator edge cases.

The fast lane (:func:`repro.gil.semantics.fast_lane`) executes a command
through the concrete evaluator (:func:`repro.gil.ops.evaluate`) whenever
every program variable it reads holds a literal, skipping ``logic/``
entirely.  That is only sound under a one-directional
contract with the symbolic route (simplify ∘ substitute, what the
interpreter's ``eval_expr`` computes on the same literal store): when
the concrete evaluator *succeeds*, the symbolic route must produce the
same literal with the same runtime type; when it raises ``EvalError``
the fast lane bails and replays through the slow path, so the symbolic
answer ships either way.  The awkward corners exercised:

* division and modulo by zero (a bail, then an error or residual from
  the slow path — never a crash, never a fabricated value);
* exact-integer division results (``10/2`` is ``5``, not ``5.0``);
* short-circuit ``and``/``or`` (a false left arm must hide an erroring
  right arm, matching the simplifier's annihilator rules);
* mixed-type comparisons (number/string orderings error, ``==`` never
  does, booleans are not numbers, ``10 == 10.0`` holds).

Every case is checked twice: at the expression level (``evaluate`` vs
simplified substitution) and end-to-end (a symbolic run whose store is
all literals — so the fast lane fires — against the same run with the
lane switched off, finals compared exactly).
"""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.gil.ops import EvalError, evaluate
from repro.gil.semantics import Config, TopFrame, fast_lane
from repro.gil.syntax import (
    Assignment,
    Call,
    Fail,
    Goto,
    IfGoto,
    Proc,
    Prog,
    Return,
)
from repro.logic.expr import (
    BinOp,
    BinOpExpr,
    Expr,
    Lit,
    LVar,
    PVar,
    substitute_pvars,
)
from repro.logic.simplify import Simplifier
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import WhileSymbolicMemory

CONFIG = EngineConfig()

#: the literal store every case runs under — one binding per type so
#: expressions read variables rather than being all constants
STORE = {
    "n": Lit(10),
    "z": Lit(0),
    "f": Lit(2.5),
    "s": Lit("abc"),
    "t": Lit(True),
    "nil": Lit(False),
}


def _div(a: Expr, b: Expr) -> Expr:
    return BinOpExpr(BinOp.DIV, a, b)


def _mod(a: Expr, b: Expr) -> Expr:
    return BinOpExpr(BinOp.MOD, a, b)


n, z, f, s, t, nil = (PVar(name) for name in ("n", "z", "f", "s", "t", "nil"))

#: (label, expression) — every operator corner the fast lane must match
EDGE_CASES = [
    ("div-by-zero", _div(n, z)),
    ("mod-by-zero", _mod(n, z)),
    ("div-exact-int", _div(n, Lit(2))),
    ("div-inexact", _div(Lit(7), Lit(2)).eq(Lit(3.5))),
    ("div-float", _div(f, Lit(0.5))),
    ("mod-negative", _mod(Lit(-7), Lit(3))),
    ("and-short-circuit-hides-error", nil.and_(_div(n, z).lt(Lit(1)))),
    ("or-short-circuit-hides-error", t.or_(_div(n, z).lt(Lit(1)))),
    ("and-right-error-surfaces", t.and_(_div(n, z).lt(Lit(1)))),
    ("and-non-bool-left", n.and_(t)),
    ("lt-mixed-number-string", n.lt(s)),
    ("lt-string-string", s.lt(Lit("abd"))),
    ("lt-bool-is-not-number", t.lt(Lit(2))),
    ("leq-int-float", n.leq(Lit(10.0))),
    ("eq-mixed-types-is-false", n.eq(s)),
    ("eq-int-float", n.eq(Lit(10.0))),
    ("eq-bool-vs-int", t.eq(Lit(1))),
]


def symbolic_eval(e: Expr):
    """The symbolic route on a literal store: simplify(subst(e))."""
    return Simplifier().simplify(substitute_pvars(e, STORE))


class TestEvaluatorAgreement:
    """Expression level: concrete evaluate vs simplified substitution."""

    @pytest.mark.parametrize(
        "label,expr", EDGE_CASES, ids=[c[0] for c in EDGE_CASES]
    )
    def test_fast_and_symbolic_agree(self, label, expr):
        env = {name: lit.value for name, lit in STORE.items()}
        try:
            concrete = evaluate(expr, pvar_env=env)
        except EvalError:
            concrete = EvalError
        try:
            sym = symbolic_eval(expr)
        except TypeError:
            sym = TypeError
        if concrete is EvalError:
            # The fast lane *bails* on EvalError and replays the command
            # through the slow symbolic path, so a concrete rejection
            # imposes no agreement obligation — the symbolic route may
            # error (TypeError) or keep a residual expression; either
            # way the slow path's answer is the one that ships.
            return
        # A concrete success is the dangerous direction: the fast lane
        # commits to this value without consulting logic/, so the
        # symbolic route must produce the same literal — never an error,
        # never a residual, and with the exact runtime type (Lit
        # equality coerces, Lit(1) == Lit(1.0)).
        assert sym is not TypeError, (
            f"{label}: fast lane returns {concrete!r}, symbolic raises"
        )
        assert sym == Lit(concrete), (
            f"{label}: concrete={concrete!r} symbolic={sym!r}"
        )
        assert type(sym.value) is type(concrete), label


def edge_prog(expr: Expr) -> Prog:
    """``main`` binds the literal store, computes ``expr``, returns it."""
    body = tuple(
        Assignment(name, lit) for name, lit in STORE.items()
    ) + (Assignment("out", expr), Return(PVar("out")))
    prog = Prog()
    prog.add(Proc("main", (), body))
    return prog


def run(prog: Prog):
    return Explorer(
        prog, SymbolicStateModel(WhileSymbolicMemory()), CONFIG
    ).run("main")


class TestFastLaneEndToEnd:
    """Whole-program level: fast lane on (firing) vs off."""

    @pytest.mark.parametrize(
        "label,expr", EDGE_CASES, ids=[c[0] for c in EDGE_CASES]
    )
    def test_on_matches_off(self, label, expr, fast_lane_pair):
        on, _ = fast_lane_pair(lambda: run(edge_prog(expr)), label)
        assert on.stats.fast_lane_steps > 0

    def test_fast_lane_takes_every_literal_step(self):
        # Six literal bindings, the computed assignment and the return:
        # a non-erroring expression keeps every step on the lane.
        result = run(edge_prog(n.leq(Lit(10.0))))
        assert result.stats.fast_lane_steps == len(STORE) + 2
        assert result.stats.commands_executed == len(STORE) + 2


#: ``f(a, b)`` for the call cases
LANE_PROG = Prog({
    "f": Proc("f", ("a", "b"), (Return(PVar("a")),)),
    "main": Proc("main", (), (Return(Lit(0)),)),
})
LITERAL = {"x": Lit(4), "y": Lit(True)}
SYMBOLIC = {"x": LVar("v"), "y": Lit(True)}


def lane(cmd, store=LITERAL):
    """``fast_lane`` on ``cmd`` in ``main`` over a symbolic ``store``."""
    state = SymbolicStateModel(WhileSymbolicMemory()).initial_state()
    cfg = Config(state.with_store(store), (TopFrame("main"),), 0)
    return fast_lane(LANE_PROG, cfg, cmd)


#: (label, store, command) the lane must decline
DECLINED = [
    ("symbolic-store-value", SYMBOLIC, Assignment("z", PVar("x") + Lit(1))),
    # ``y or ...`` would short-circuit concretely, but the gate probes
    # every variable an operand mentions
    ("unread-symbolic-operand", SYMBOLIC,
     Assignment("z", PVar("y").or_(PVar("x").lt(Lit(1))))),
    ("logical-variable", LITERAL, Assignment("z", PVar("x") + LVar("v"))),
    ("unbound-variable", LITERAL, Assignment("z", PVar("missing"))),
    ("eval-error", LITERAL, Assignment("z", _div(PVar("x"), Lit(0)))),
    ("non-boolean-guard", LITERAL, IfGoto(PVar("x"), 9)),
    ("unknown-procedure", LITERAL, Call("r", Lit("g"), (PVar("x"), Lit(1)))),
    ("arity-mismatch", LITERAL, Call("r", Lit("f"), (PVar("x"),))),
    ("non-name-callee", LITERAL, Call("r", Lit(3), (PVar("x"), Lit(1)))),
    ("dynamic-callee", LITERAL, Call("r", PVar("x"), (PVar("x"), Lit(1)))),
    ("uncovered-kind", LITERAL, Goto(0)),
]


class TestGate:
    """The lane's gate, command by command."""

    @pytest.mark.parametrize(
        "label,store,cmd", DECLINED, ids=[c[0] for c in DECLINED]
    )
    def test_declines(self, label, store, cmd):
        assert lane(cmd, store) is None

    @pytest.mark.parametrize(
        "cmd",
        [
            Assignment("z", PVar("x") + Lit(1)),
            IfGoto(PVar("y"), 9),
            Return(PVar("x")),
            Fail(PVar("y")),
            Call("r", Lit("f"), (PVar("x"), Lit(1))),
        ],
        ids=["assignment", "ifgoto", "return", "fail", "call"],
    )
    def test_fires_on_literal_operands(self, cmd):
        assert lane(cmd) is not None
