"""Typing judgment for the consistency-typed language.

The judgment carries a variable context, a store typing, an identifier
typing, and the current consistency effect. The effect is what blocks
implicit flows: a term running under a weak (high) effect may not mutate a
reference with a stronger (lower) label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .syntax import (
    App, ArrowType, Assign, Await, AVA, BoolType, BoolVal, Clone, Closure,
    CON, Deref, Duplicated, FlexRead, FlexWrite, Identifier, If, Label,
    LatOp, LatType, Let, Lit, Location, LOC, OAC, OrdOp, Pos, Program,
    Proj, Record, RecordType, RecordVal, Ref, RefType, Restrict, Term, Type,
    UnitType, UnitVal, Var, erase_labels, label_join, label_leq,
    label_of, map_labels, pretty_type, ref_free, refs, same_raw_shape, subtype,
    type_join, type_join_label, with_label,
)
from . import lattice


class ErrorKind(enum.Enum):
    FLOW_VIOLATION = "FlowViolation"
    EFFECT_VIOLATION = "EffectViolation"
    OAC_MISUSE = "OacMisuse"
    NON_LATTICE_AVA = "NonLatticeAva"
    ESCAPING_LOCAL_REF = "EscapingLocalRef"
    ID_LABEL_MISMATCH = "IdLabelMismatch"
    MISMATCH = "Mismatch"
    UNBOUND = "Unbound"


class CheckError(Exception):
    def __init__(self, kind: ErrorKind, pos: Optional[Pos], message: str):
        super().__init__(message)
        self.kind = kind
        self.pos = pos
        self.message = message

    def render(self, path: str = "<input>") -> str:
        line, col = self.pos if self.pos else (0, 0)
        return f"{path}:{line}:{col}: {self.kind.value}: {self.message}"


@dataclass
class TypeEnv:
    """Gamma / Sigma / identifier typing / current effect."""

    gamma: Mapping[str, Type] = field(default_factory=dict)
    sigma: Mapping[Location, Type] = field(default_factory=dict)
    ids: dict[Identifier, Type] = field(default_factory=dict)   # filled as typed
    effect: Label = LOC
    runtime: bool = False      # typing residuals: stamped oac values are fine

    def with_var(self, name: str, ty: Type) -> "TypeEnv":
        gamma = dict(self.gamma)
        gamma[name] = ty
        return TypeEnv(gamma, self.sigma, self.ids, self.effect, self.runtime)

    def with_effect(self, eff: Label) -> "TypeEnv":
        return TypeEnv(self.gamma, self.sigma, self.ids, eff, self.runtime)


def _require_subtype(have: Type, want: Type, pos: Optional[Pos], ctx: str) -> None:
    if subtype(have, want):
        return
    kind = ErrorKind.FLOW_VIOLATION if same_raw_shape(have, want) else ErrorKind.MISMATCH
    raise CheckError(kind, pos, f"{ctx}: {pretty_type(have)} is not a subtype of {pretty_type(want)}")


def _expect_lat(t: Type, pos: Optional[Pos], ctx: str) -> LatType:
    if not isinstance(t, LatType):
        raise CheckError(ErrorKind.MISMATCH, pos, f"{ctx}: expected a lattice value, found {pretty_type(t)}")
    return t


def _create(env: TypeEnv, lab: Label, ident: Identifier, content: Type,
            pos: Optional[Pos]) -> RefType:
    """The conclusion T-REF and T-CLONE share: the identifier carries the
    reference label, and the first type it gets is the one it keeps."""
    if ident.label != lab:
        raise CheckError(ErrorKind.ID_LABEL_MISMATCH, pos, f"identifier {ident} does not carry label {lab}")
    known = env.ids.setdefault(ident, content)
    if known != content:
        raise CheckError(
            ErrorKind.MISMATCH, pos,
            f"identifier {ident} is bound elsewhere with type {pretty_type(known)}, "
            f"here {pretty_type(content)}",
        )
    return RefType(lab, content)


# each binary operator form: what its diagnostics call it, and the type
# constructor of its result
_OPERATOR_RULES = {LatOp: ("lattice operation", LatType), OrdOp: ("order comparison", BoolType)}


def typecheck(env: TypeEnv, t: Term) -> Type:
    """Type of t under env; raises CheckError at the first violated premise,
    leftmost-innermost. A let spine is typed in a loop, with one copy of
    gamma for the whole spine."""
    if t.__class__ is Let:
        gamma = dict(env.gamma)
        env = TypeEnv(gamma, env.sigma, env.ids, env.effect, env.runtime)
        while t.__class__ is Let:
            gamma[t.name] = typecheck(env, t.bound)
            t = t.body
    match t:
        # the commonest forms first
        case Var(name=name, pos=pos):
            if name not in env.gamma:
                raise CheckError(ErrorKind.UNBOUND, pos, f"unbound variable {name!r}")
            return env.gamma[name]

        case Lit(value=v, pos=pos):
            return type_of_value(env, v, pos)

        case Deref(term=sub, pos=pos):
            ts = typecheck(env, sub)
            if not isinstance(ts, RefType):
                raise CheckError(ErrorKind.MISMATCH, pos, f"dereference of non-reference type {pretty_type(ts)}")
            if ts.label == OAC:
                raise CheckError(ErrorKind.OAC_MISUSE, pos, "dereference of an oac reference; use flexread")
            return type_join_label(ts.content, ts.label)

        case Assign(target=lhs, value=rhs, pos=pos):
            tl = typecheck(env, lhs)
            if not isinstance(tl, RefType):
                raise CheckError(ErrorKind.MISMATCH, pos, f"assignment to non-reference type {pretty_type(tl)}")
            tr = typecheck(env, rhs)
            _require_subtype(tr, tl.content, pos, "assigned value")
            if not label_leq(env.effect, tl.label):
                raise CheckError(
                    ErrorKind.EFFECT_VIOLATION, pos,
                    f"assignment to a {tl.label} reference under effect {env.effect}",
                )
            if tl.label == OAC:
                raise CheckError(ErrorKind.OAC_MISUSE, pos, "assignment to an oac reference; use flexwrite")
            if label_of(tr) == OAC:
                raise CheckError(ErrorKind.OAC_MISUSE, pos, "oac-labeled values cannot be assigned")
            return UnitType(tl.label)

        case FlexRead(label=lab, term=sub, pos=pos):
            ts = typecheck(env, sub)
            _require_oac_ref(ts, pos, "flexread")
            return with_label(ts.content, lab)

        case FlexWrite(label=lab, target=tgt, value=val, pos=pos):
            ts = typecheck(env, tgt)
            _require_oac_ref(ts, pos, "flexwrite")
            tv = typecheck(env, val)
            if label_of(tv) not in (LOC, CON):
                raise CheckError(
                    ErrorKind.FLOW_VIOLATION, pos,
                    f"flexwrite payload must be labeled loc or con, found {label_of(tv)}",
                )
            if not isinstance(tv, LatType):
                raise CheckError(ErrorKind.MISMATCH, pos, f"flexwrite payload must be a lattice value, found {pretty_type(tv)}")
            return UnitType(lab)

        case Ref(label=lab, init=init, ident=ident, pos=pos):
            ti = typecheck(env, init)
            if lab == OAC and not label_of(ti) < lab:
                # on-demand consistency: content must be strictly lower-labeled lattice data
                raise CheckError(
                    ErrorKind.FLOW_VIOLATION, pos,
                    f"oac reference content must be labeled strictly below oac, found {label_of(ti)}",
                )
            if not label_leq(label_of(ti), lab):
                raise CheckError(
                    ErrorKind.FLOW_VIOLATION, pos,
                    f"reference content labeled {label_of(ti)} exceeds reference label {lab}",
                )
            if not label_leq(env.effect, lab):
                raise CheckError(ErrorKind.EFFECT_VIOLATION, pos, f"{lab} reference created under effect {env.effect}")
            if lab in (OAC, AVA) and not isinstance(ti, LatType):
                raise CheckError(ErrorKind.NON_LATTICE_AVA, pos, f"{lab} references hold lattice values, found {pretty_type(ti)}")
            if lab != OAC and label_of(ti) < lab and not (len(refs(init)) == 0 and ref_free(ti)):
                # storing strictly-lower-labeled content remotely must not upload
                # references; not checked for oac, whose residual initializer
                # may read a location, as in ref@oac(!<c1.r1> @con, (oac,1))
                raise CheckError(
                    ErrorKind.ESCAPING_LOCAL_REF, pos,
                    f"content labeled {label_of(ti)} stored under {lab} must not contain references",
                )
            return _create(env, lab, ident, type_join_label(ti, lab), pos)

        case Await(ident=ident, pos=pos):
            if ident not in env.ids:
                raise CheckError(ErrorKind.UNBOUND, pos, f"await on unknown identifier {ident}")
            return RefType(ident.label, env.ids[ident])

        case App(fn=f, arg=a, pos=pos):
            tf = typecheck(env, f)
            if not isinstance(tf, ArrowType):
                raise CheckError(ErrorKind.MISMATCH, pos, f"applied a non-function of type {pretty_type(tf)}")
            ta = typecheck(env, a)
            _require_subtype(ta, tf.arg, pos, "argument")
            # T-APP: the latent label bounds the caller effect joined with the
            # function value's own label
            if not label_leq(label_join(env.effect, tf.label), tf.latent):
                raise CheckError(
                    ErrorKind.EFFECT_VIOLATION, pos,
                    f"call under effect {env.effect} with function label {tf.label} "
                    f"exceeds latent label {tf.latent}",
                )
            return type_join_label(tf.result, tf.label)

        case If(cond=c, then=a, els=b, pos=pos):
            tc = typecheck(env, c)
            if not isinstance(tc, BoolType):
                raise CheckError(ErrorKind.MISMATCH, c.pos or pos, f"condition has type {pretty_type(tc)}, expected Bool")
            # branches run under the guard's label: implicit flows are blocked
            benv = env.with_effect(label_join(env.effect, tc.label))
            t1 = typecheck(benv, a)
            t2 = typecheck(benv, b)
            joined = type_join(t1, t2)
            if joined is None:
                raise CheckError(
                    ErrorKind.MISMATCH, pos,
                    f"branch types differ: {pretty_type(t1)} vs {pretty_type(t2)}",
                )
            return type_join_label(joined, tc.label)

        case LatOp(left=a, right=b, pos=pos) | OrdOp(left=a, right=b, pos=pos):
            # T-LATOP and T-RELOP: joining, meeting or comparing lattice values
            # yields a lattice value or a boolean at the joined label
            what, result = _OPERATOR_RULES[t.__class__]
            ta = _expect_lat(typecheck(env, a), a.pos or pos, what)
            tb = _expect_lat(typecheck(env, b), b.pos or pos, what)
            return result(label_join(ta.label, tb.label))

        case Restrict(term=sub, label=lab):
            # check under the raised effect, join the label onto the result
            inner = typecheck(env.with_effect(label_join(env.effect, lab)), sub)
            return type_join_label(inner, lab)

        case Record(fields=fs, label=lab, pos=pos):
            names = [n for n, _ in fs]
            if len(set(names)) != len(names):
                raise CheckError(ErrorKind.MISMATCH, pos, "duplicate record field names")
            typed = tuple(sorted((n, typecheck(env, ft)) for n, ft in fs))
            if lab == OAC:
                raise CheckError(ErrorKind.OAC_MISUSE, pos, "records cannot be labeled oac")
            return RecordType(typed, lab)

        case Proj(term=sub, name=name, pos=pos):
            ts = typecheck(env, sub)
            if not isinstance(ts, RecordType):
                raise CheckError(ErrorKind.MISMATCH, pos, f"projection from non-record type {pretty_type(ts)}")
            for n, ft in ts.fields:
                if n == name:
                    return type_join_label(ft, ts.label)
            raise CheckError(ErrorKind.UNBOUND, pos, f"record has no field {name!r}")

        case Clone(label=lab, term=sub, ident=ident, pos=pos):
            if lab != CON:
                raise CheckError(ErrorKind.OAC_MISUSE, pos, f"clone label must be con, found {lab}")
            ts = typecheck(env, sub)
            if not isinstance(ts, RefType) or ts.label != LOC:
                raise CheckError(ErrorKind.MISMATCH, pos, f"clone applies to local references, found {pretty_type(ts)}")
            if erase_labels(ts.content) != ts.content:
                raise CheckError(ErrorKind.MISMATCH, pos, "clone requires an all-local reference graph")
            if not label_leq(env.effect, CON):
                raise CheckError(ErrorKind.EFFECT_VIOLATION, pos, f"clone under effect {env.effect}")
            return _create(env, lab, ident, upgrade(ts.content), pos)

    raise CheckError(ErrorKind.MISMATCH, getattr(t, "pos", None), f"unrecognized term {t!r}")


def _require_oac_ref(ts: Type, pos: Optional[Pos], what: str) -> None:
    if not isinstance(ts, RefType):
        raise CheckError(ErrorKind.MISMATCH, pos, f"{what} applies to references, found {pretty_type(ts)}")
    if ts.label != OAC:
        raise CheckError(ErrorKind.OAC_MISUSE, pos, f"{what} applies to oac references, found a {ts.label} reference")


def upgrade(t: Type) -> Type:
    """Rewrite every loc label to con (the clone label upgrade)."""
    return map_labels(t, lambda lab: CON if lab == LOC else lab)


# the raw values typed by their label alone
_BASE_TYPES = {lattice.NatMax: LatType, lattice.GSet: LatType, BoolVal: BoolType, UnitVal: UnitType}


def type_of_value(env: TypeEnv, v, pos: Optional[Pos]) -> Type:
    """Typing for literals and runtime values."""
    if isinstance(v, Duplicated):
        # a duplicated marker types like the creation it blocked
        return typecheck(env, v.inner)
    raw, lab = v.raw, v.label
    if isinstance(raw, Location):
        if raw not in env.sigma:
            raise CheckError(ErrorKind.UNBOUND, pos, f"location {raw} has no store typing")
        content = env.sigma[raw]
        return RefType(label_of(content), content)
    # source restriction only: runtime stamping legitimately produces oac values
    if lab == OAC and not env.runtime:
        raise CheckError(ErrorKind.OAC_MISUSE, pos, "literal values cannot be labeled oac")
    base = _BASE_TYPES.get(raw.__class__)
    if base is not None:
        return base(lab)
    if isinstance(raw, Closure):
        # T-ABS: the body is checked under the latent label
        benv = env.with_var(raw.param, raw.param_type).with_effect(raw.latent)
        tb = typecheck(benv, raw.body)
        return ArrowType(raw.param_type, raw.latent, tb, lab)
    if isinstance(raw, RecordVal):
        typed = tuple(sorted((n, type_of_value(env, fv, pos)) for n, fv in raw.fields))
        return RecordType(typed, lab)
    raise CheckError(ErrorKind.MISMATCH, pos, f"unrecognized value {v!r}")


# ---------------------------------------------------------------------------
# Whole-program checking

@dataclass
class ProgramCheck:
    client_types: dict[int, Type]
    id_types: dict[Identifier, Type]


def check_program(program: Program) -> ProgramCheck:
    """Typecheck every client, in program order, filling the shared
    identifier typing as each ref and clone is typed.

    An await may name an identifier a later client creates, so after a
    round that typed a new identifier the clients whose pass failed are
    typed again; a chain of awaits across clients takes a round per link.
    The rounds end, as identifiers only accumulate and a program names
    finitely many. Then the first client in program order whose last pass
    failed raises its error."""
    ids: dict[Identifier, Type] = {}
    client_types: dict[int, Type] = {}
    todo, failed = program.clients, []
    while todo:
        known, failed = len(ids), []
        for cid, term in todo:
            try:
                client_types[cid] = typecheck(TypeEnv(ids=ids), term)
            except CheckError as e:
                failed.append((cid, term, e))
        todo = [(cid, term) for cid, term, _ in failed] if len(ids) > known else []
    if failed:
        raise failed[0][2]
    return ProgramCheck(client_types, ids)
