"""The GIL semantics (paper §2.1, Figure 1).

One parametric interpreter serves both concrete and symbolic execution:
the state model supplies expression evaluation, branching, assumption,
fresh-symbol generation, and memory-action execution, and the interpreter
only wires them to the command forms — exactly the separation of Figure 1,
where every rule is a composition of proper actions.

Transitions relate *configurations* ``⟨σ, cs, i⟩`` and produce *outcomes*:
continuation (more configurations), return ``N(v)``, or error ``E(v)``.
A ``vanish`` yields a :data:`VANISH` final so explorers can report dropped
paths.

:func:`fast_lane` is the one shortcut: the explorer tries it before
:func:`step_command`, evaluating a command over literal operands
concretely instead of symbolically, with the same outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.gil.ops import EvalError, evaluate
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Command,
    Fail,
    Goto,
    IfGoto,
    ISym,
    Prog,
    Return,
    USym,
    Vanish,
)
from repro.logic.expr import Expr, Lit, LVar, PVar, walk
from repro.state.interface import StateErr, StateOk


class OutcomeKind(enum.Enum):
    """Kind of a final outcome: normal return, error, or vanish."""

    NORMAL = "N"    # top-level return
    ERROR = "E"     # fail / memory fault / evaluation error
    VANISH = "V"    # silent path termination


@dataclass(frozen=True)
class TopFrame:
    """⟨f⟩ — the frame of the procedure that started execution."""

    proc: str


@dataclass(frozen=True)
class InnerFrame:
    """⟨f, x, ρ, i⟩ — callee name, return variable, caller store, return index."""

    proc: str
    ret_var: str
    saved_store: tuple  # caller store as a tuple of (name, value) pairs
    ret_idx: int


Frame = Union[TopFrame, InnerFrame]


@dataclass(frozen=True)
class Config:
    """A configuration ⟨σ, cs, i⟩."""

    state: object
    stack: Tuple[Frame, ...]
    idx: int

    @property
    def proc(self) -> str:
        return self.stack[-1].proc


@dataclass(frozen=True)
class Final:
    """A finished path: its final state, outcome kind, and outcome value."""

    state: object
    kind: OutcomeKind
    value: object


class GilRuntimeError(Exception):
    """An internal interpreter error (malformed program), not a TL bug."""


def initial_config(state: object, proc: str) -> Config:
    return Config(state, (TopFrame(proc),), 0)


def make_call_config(
    sm, state: object, prog: Prog, proc_name: str, args
) -> Config:
    """Set up the store for a top-level procedure call."""
    proc = prog.get(proc_name)
    if proc is None:
        raise GilRuntimeError(f"unknown procedure {proc_name!r}")
    if len(args) != len(proc.params):
        raise GilRuntimeError(
            f"{proc_name}: expected {len(proc.params)} args, got {len(args)}"
        )
    state = sm.set_store(state, dict(zip(proc.params, args)))
    return initial_config(state, proc_name)


def fetch(prog: Prog, cfg: Config) -> Command:
    """``cmd(p, cs, i)``: the command a configuration points at."""
    proc = prog.get(cfg.proc)
    if proc is None:
        raise GilRuntimeError(f"unknown procedure {cfg.proc!r}")
    if not 0 <= cfg.idx < len(proc.body):
        raise GilRuntimeError(f"{cfg.proc}: no command at index {cfg.idx}")
    return proc.body[cfg.idx]


def step(prog: Prog, sm, cfg: Config) -> Tuple[List[Config], List[Final]]:
    """One transition of Figure 1: successor configurations and finals."""
    return step_command(prog, sm, cfg, fetch(prog, cfg))


def step_command(
    prog: Prog, sm, cfg: Config, cmd: Command
) -> Tuple[List[Config], List[Final]]:
    """:func:`step` for an already-fetched ``cmd`` (the command at ``cfg``)."""
    try:
        return _step_command(prog, sm, cfg, cmd)
    except EvalError as exc:
        # An ill-typed concrete evaluation is a TL runtime error.
        return [], [Final(cfg.state, OutcomeKind.ERROR, f"eval-error: {exc}")]


def _operand_reads(e) -> Optional[Tuple[str, ...]]:
    """The program variables ``e`` reads, or None when it can never
    evaluate concretely (not an expression, or it mentions a logical
    variable)."""
    if not isinstance(e, Expr):
        return None
    names: Tuple[str, ...] = ()
    for node in walk(e):
        if type(node) is LVar:
            return None
        if type(node) is PVar and node.name not in names:
            names += (node.name,)
    return names


def fast_lane(prog: Prog, cfg: Config, cmd: Command):
    """:func:`step_command` under the stock symbolic state model for a
    command whose operands read only literal-bound program variables,
    evaluated concretely (:func:`repro.gil.ops.evaluate`, results
    wrapped back in ``Lit``) without touching :mod:`repro.logic`; or
    None to decline.

    Covers assignment, return and fail; ``if-goto`` when the guard is
    exactly True or False (what ``branch_on`` does with a literal); and
    a call to a literal procedure name that exists with matching arity.
    Declines a logical variable in an operand, a non-literal store value,
    and an :class:`EvalError` (where the symbolic evaluator would leave
    the expression stuck instead).
    """
    kind = type(cmd)
    if kind is Assignment or kind is Return or kind is Fail:
        operands = (cmd.expr,)
    elif kind is IfGoto:
        operands = (cmd.condition,)
    elif kind is Call:
        callee = cmd.callee
        if not (isinstance(callee, Lit) and isinstance(callee.value, str)):
            return None
        proc = prog.get(callee.value)
        if proc is None or len(proc.params) != len(cmd.args):
            return None
        operands = cmd.args
    else:
        return None
    state = cfg.state
    store = state.store
    env = {}
    for e in operands:
        names = _operand_reads(e)
        if names is None:
            return None
        for name in names:
            v = store.get(name)
            if type(v) is not Lit:
                return None
            env[name] = v.value
    try:
        values = [evaluate(e, env) for e in operands]
    except EvalError:
        return None
    stack, idx = cfg.stack, cfg.idx

    if kind is Assignment:
        new_state = state.bind(cmd.target, Lit(values[0]))
        return (Config(new_state, stack, idx + 1),), ()
    if kind is IfGoto:
        if values[0] is True:
            return (Config(state, stack, cmd.target),), ()
        if values[0] is False:
            return (Config(state, stack, idx + 1),), ()
        return None
    if kind is Return:
        top = stack[-1]
        if type(top) is TopFrame:
            return (), (Final(state, OutcomeKind.NORMAL, Lit(values[0])),)
        caller = dict(top.saved_store)
        caller[top.ret_var] = Lit(values[0])
        return (Config(state.with_store(caller), stack[:-1], top.ret_idx),), ()
    if kind is Fail:
        return (), (Final(state, OutcomeKind.ERROR, Lit(values[0])),)
    callee_store = {p: Lit(v) for p, v in zip(proc.params, values)}
    frame = InnerFrame(callee.value, cmd.target, tuple(store.items()), idx + 1)
    return (Config(state.with_store(callee_store), stack + (frame,), 0),), ()


def _step_command(
    prog: Prog, sm, cfg: Config, cmd: Command
) -> Tuple[List[Config], List[Final]]:
    state, stack, idx = cfg.state, cfg.stack, cfg.idx

    if isinstance(cmd, Assignment):
        value = sm.eval_expr(state, cmd.expr)
        return [Config(sm.set_var(state, cmd.target, value), stack, idx + 1)], []

    if isinstance(cmd, Goto):
        return [Config(state, stack, cmd.target)], []

    if isinstance(cmd, IfGoto):
        cond = sm.eval_expr(state, cmd.condition)
        configs = []
        for st, taken in sm.branch_on(state, cond):
            configs.append(Config(st, stack, cmd.target if taken else idx + 1))
        return configs, []

    if isinstance(cmd, Call):
        callee = sm.eval_expr(state, cmd.callee)
        try:
            proc_name = _resolve_proc_name(callee)
        except GilRuntimeError:
            # Calling a non-procedure value is a TL runtime type error
            # (e.g. JavaScript's "x is not a function").
            return [], [
                Final(
                    state,
                    OutcomeKind.ERROR,
                    f"call: not a procedure name: {callee!r}",
                )
            ]
        proc = prog.get(proc_name)
        if proc is None:
            return [], [
                Final(state, OutcomeKind.ERROR, f"call to unknown procedure {proc_name!r}")
            ]
        args = [sm.eval_expr(state, a) for a in cmd.args]
        if len(args) != len(proc.params):
            return [], [
                Final(
                    state,
                    OutcomeKind.ERROR,
                    f"{proc_name}: arity mismatch "
                    f"({len(args)} args for {len(proc.params)} params)",
                )
            ]
        saved_store = tuple(sm.get_store(state).items())
        new_state = sm.set_store(state, dict(zip(proc.params, args)))
        frame = InnerFrame(proc_name, cmd.target, saved_store, idx + 1)
        return [Config(new_state, stack + (frame,), 0)], []

    if isinstance(cmd, Return):
        value = sm.eval_expr(state, cmd.expr)
        top = stack[-1]
        if isinstance(top, TopFrame):
            return [], [Final(state, OutcomeKind.NORMAL, value)]
        state = sm.set_store(state, dict(top.saved_store))
        state = sm.set_var(state, top.ret_var, value)
        return [Config(state, stack[:-1], top.ret_idx)], []

    if isinstance(cmd, Fail):
        value = sm.eval_expr(state, cmd.expr)
        return [], [Final(state, OutcomeKind.ERROR, value)]

    if isinstance(cmd, Vanish):
        return [], [Final(state, OutcomeKind.VANISH, None)]

    if isinstance(cmd, ActionCall):
        arg = sm.eval_expr(state, cmd.arg)
        configs: List[Config] = []
        finals: List[Final] = []
        for branch in sm.execute_action(state, cmd.action, arg):
            if isinstance(branch, StateOk):
                configs.append(
                    Config(
                        sm.set_var(branch.state, cmd.target, branch.value),
                        stack,
                        idx + 1,
                    )
                )
            elif isinstance(branch, StateErr):
                finals.append(Final(branch.state, OutcomeKind.ERROR, branch.value))
            else:  # pragma: no cover - defensive
                raise GilRuntimeError(f"bad action branch {branch!r}")
        return configs, finals

    if isinstance(cmd, USym):
        state, sym = sm.fresh_usym(state, cmd.site)
        return [Config(sm.set_var(state, cmd.target, sym), stack, idx + 1)], []

    if isinstance(cmd, ISym):
        state, val = sm.fresh_isym(state, cmd.site)
        return [Config(sm.set_var(state, cmd.target, val), stack, idx + 1)], []

    raise GilRuntimeError(f"unknown command {cmd!r}")


def _resolve_proc_name(callee) -> str:
    """The callee of a dynamic call must denote a concrete procedure name."""
    if isinstance(callee, str):
        return callee
    if isinstance(callee, Lit) and isinstance(callee.value, str):
        return callee.value
    raise GilRuntimeError(f"dynamic call: callee {callee!r} is not a procedure name")
