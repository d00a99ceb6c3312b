"""Typing-rule behavior, diagnostic kinds, and judgment-level properties."""

from __future__ import annotations

import pytest

import ctrd.typecheck
from conftest import corpus_files, load
from ctrd.cli import main
from ctrd.lattice import NatMax
from ctrd.parser import parse_program, parse_term
from ctrd.runtime_cloud import initial_config, make_scheduler, run
from ctrd.syntax import (
    Assign, AVA, BoolType, CON, Deref, Identifier, LABELS, LatType, Lit,
    Location, LOC, OAC, Plain, RecordType, Ref, RefType, UnitType, label_leq,
    subtype,
)
from ctrd.typecheck import (
    CheckError, ErrorKind, TypeEnv, check_program, typecheck,
)


def check_src(src: str, **env_kw):
    return typecheck(TypeEnv(**env_kw), parse_term(src))


def err_kind(src: str, **env_kw) -> ErrorKind:
    with pytest.raises(CheckError) as exc:
        check_src(src, **env_kw)
    return exc.value.kind


# ---------------------------------------------------------------------------
# assignment

def test_assign_effect_violation_under_ava():
    # mutating a con reference while the context runs at ava is an implicit flow
    o = Location(1, 1, True)
    env = TypeEnv(sigma={o: LatType(CON)}, effect=AVA)
    term = Assign(Lit(Plain(o, CON)), Lit(Plain(NatMax(1), CON)))
    with pytest.raises(CheckError) as exc:
        typecheck(env, term)
    assert exc.value.kind == ErrorKind.EFFECT_VIOLATION


def test_assign_con_value_into_ava_ref():
    o = Location(1, 1, True)
    env = TypeEnv(sigma={o: LatType(AVA)}, effect=LOC)
    term = Assign(Lit(Plain(o, AVA)), Lit(Plain(NatMax(1), CON)))
    assert typecheck(env, term) == UnitType(AVA)


def test_assign_direct_flow_rejected():
    kind = err_kind("let r = ref@con(nat 1 @con, (con,1)) in r := nat 2 @ava")
    assert kind == ErrorKind.FLOW_VIOLATION


def test_assign_oac_kinds():
    assert err_kind("let p = ref@oac(nat 1 @con, (oac,1)) in p := nat 2 @con") \
        == ErrorKind.OAC_MISUSE
    assert err_kind("let r = ref@ava(nat 1 @con, (ava,1)) in r := (nat 2 @con)[oac]") \
        == ErrorKind.OAC_MISUSE


# ---------------------------------------------------------------------------
# references

def test_ref_ava_requires_lattice():
    assert err_kind("ref@ava(true @loc, (ava,1))") == ErrorKind.NON_LATTICE_AVA


def test_ref_content_label_bound():
    assert err_kind("ref@con(nat 1 @ava, (con,1))") == ErrorKind.FLOW_VIOLATION


def test_ref_escaping_local():
    assert err_kind("ref@con(ref@loc(nat 1 @loc, (loc,1)), (con,2))") \
        == ErrorKind.ESCAPING_LOCAL_REF


def test_ref_same_label_content_may_hold_refs():
    t = check_src("let x = ref@con(nat 1 @con, (con,1)) in ref@con(x, (con,2))")
    assert t == RefType(CON, RefType(CON, LatType(CON)))


def test_ref_id_label_must_match():
    assert err_kind("ref@con(nat 1 @con, (ava,1))") == ErrorKind.ID_LABEL_MISMATCH


def test_oac_ref_rules():
    assert check_src("ref@oac(nat 1 @con, (oac,1))") == RefType(OAC, LatType(OAC))
    assert err_kind("ref@oac(nat 1 @ava, (oac,1))") == ErrorKind.FLOW_VIOLATION
    assert err_kind("ref@oac(true @con, (oac,1))") == ErrorKind.NON_LATTICE_AVA


# ---------------------------------------------------------------------------
# flexible operations

def test_flexread_labels_decide_result():
    src = "let p = ref@oac(nat 1 @con, (oac,1)) in flexread@{}(p)"
    assert check_src(src.format("con")) == LatType(CON)
    assert check_src(src.format("ava")) == LatType(AVA)


def test_flexread_requires_oac_target():
    assert err_kind("let r = ref@con(nat 1 @con, (con,1)) in flexread@con(r)") \
        == ErrorKind.OAC_MISUSE


def test_flexwrite_payload_rules():
    base = "let p = ref@oac(nat 1 @con, (oac,1)) in flexwrite@con(p, {})"
    assert check_src(base.format("nat 2 @con")) == UnitType(CON)
    assert err_kind(base.format("nat 2 @ava")) == ErrorKind.FLOW_VIOLATION
    assert err_kind(base.format("true @con")) == ErrorKind.MISMATCH


# ---------------------------------------------------------------------------
# control and functions

def test_listing_pattern_implicit_flow():
    bug = """
    let stock = ref@oac(nat 5 @con, (oac,1)) in
    let paid = ref@con(nat 0 @con, (con,2)) in
    if flexread@ava(stock) <= nat 3 @loc then { paid := nat 1 @con }
    else { paid := nat 0 @con }
    """
    assert err_kind(bug) == ErrorKind.EFFECT_VIOLATION
    fixed = bug.replace("flexread@ava", "flexread@con")
    assert check_src(fixed) == UnitType(CON)


def test_app_latent_bound():
    src = """
    let r = ref@con(nat 0 @con, (con,1)) in
    let f = fn@con(x: Lat@con) => (r := x) in
    if nat 1 @ava <= nat 2 @ava then { f (nat 1 @con) } else { unit @ava }
    """
    assert err_kind(src) == ErrorKind.EFFECT_VIOLATION


def test_app_result_joins_function_label():
    # restricting the closure raises its own label, which the result joins
    src = "((fn@ava(x: Lat@loc) => x)[con]) (nat 1 @loc)"
    assert check_src(src) == LatType(CON)


def test_if_branch_shapes_must_agree():
    assert err_kind("if true @loc then { nat 1 @loc } else { true @loc }") \
        == ErrorKind.MISMATCH


def test_if_joins_guard_label():
    assert check_src("if true @con then { nat 1 @loc } else { nat 2 @loc }") \
        == LatType(CON)


def test_deref_oac_forbidden():
    assert err_kind("let p = ref@oac(nat 1 @con, (oac,1)) in !p") == ErrorKind.OAC_MISUSE


def test_unbound_variable():
    assert err_kind("missing") == ErrorKind.UNBOUND


# ---------------------------------------------------------------------------
# records and clone

def test_record_projection_joins_outer_label():
    assert check_src("{a = nat 1 @loc}@con . a") == LatType(CON)


def test_record_fields_keep_own_labels():
    t = check_src("{a = nat 1 @ava}@con")
    assert t == RecordType((("a", LatType(AVA)),), CON)


def test_record_missing_field():
    assert err_kind("{a = nat 1 @loc}@con . b") == ErrorKind.UNBOUND


def test_clone_upgrades_loc_to_con():
    t = check_src("let x = ref@loc(nat 3 @loc, (loc,1)) in clone@con(x, (con,2))")
    assert t == RefType(CON, LatType(CON))


def test_clone_rejections():
    assert err_kind("clone@con(nat 1 @loc, (con,1))") == ErrorKind.MISMATCH
    assert err_kind("let x = ref@loc(nat 1 @loc, (loc,1)) in clone@ava(x, (ava,2))") \
        == ErrorKind.OAC_MISUSE
    assert err_kind("let x = ref@loc(nat 1 @loc, (loc,1)) in clone@con(x, (ava,4))") \
        == ErrorKind.ID_LABEL_MISMATCH


# ---------------------------------------------------------------------------
# every premise of the reference, clone and operator rules, for every label
# it covers: a term that breaks that premise alone, and its diagnostic

L_LOC, R_CON = Location(1, 1, False), Location(1, 1, True)
LOCAL_REF = RefType(LOC, LatType(LOC))


def _ref_reading(lab, loc, ident) -> Ref:
    """ref@lab(!<loc>, ident): an initializer that holds a location."""
    return Ref(lab, Deref(Lit(Plain(loc, CON if loc.remote else LOC))), ident, pos=(1, 1))


def _operand_cases():
    for sym in ("\\/", "/\\", "<=", "<"):
        what = "order comparison" if sym in ("<=", "<") else "lattice operation"
        for src in (f"true @loc {sym} nat 1 @loc", f"nat 1 @loc {sym} true @loc"):
            col = src.index("true") + 1
            yield pytest.param(
                src, {}, f"1:{col}: Mismatch: {what}: expected a lattice value, found Bool@loc",
                id=f"{sym} {'left' if col == 1 else 'right'} operand")


PREMISES = [
    # T-REF: oac content strictly below oac, other content at most the label
    pytest.param("ref@oac(nat 1 @ava, (oac,1))", {},
                 "1:1: FlowViolation: oac reference content must be labeled strictly below oac, found ava",
                 id="ref oac content ava"),
    pytest.param("ref@oac((nat 1 @con)[oac], (oac,1))", {},
                 "1:1: FlowViolation: oac reference content must be labeled strictly below oac, found oac",
                 id="ref oac content oac"),
    pytest.param("ref@loc(nat 1 @con, (loc,1))", {},
                 "1:1: FlowViolation: reference content labeled con exceeds reference label loc",
                 id="ref loc content flow"),
    pytest.param("ref@con(nat 1 @ava, (con,1))", {},
                 "1:1: FlowViolation: reference content labeled ava exceeds reference label con",
                 id="ref con content flow"),
    # T-REF: the effect at most the label
    pytest.param("ref@loc(nat 1 @loc, (loc,1))", {"effect": CON},
                 "1:1: EffectViolation: loc reference created under effect con", id="ref loc effect"),
    pytest.param("ref@con(nat 1 @con, (con,1))", {"effect": OAC},
                 "1:1: EffectViolation: con reference created under effect oac", id="ref con effect"),
    pytest.param("ref@oac(nat 1 @con, (oac,1))", {"effect": AVA},
                 "1:1: EffectViolation: oac reference created under effect ava", id="ref oac effect"),
    # T-REF: oac and ava references hold lattice values
    pytest.param("ref@ava(true @loc, (ava,1))", {},
                 "1:1: NonLatticeAva: ava references hold lattice values, found Bool@loc",
                 id="ref ava lattice content"),
    pytest.param("ref@oac(unit @con, (oac,1))", {},
                 "1:1: NonLatticeAva: oac references hold lattice values, found Unit@con",
                 id="ref oac lattice content"),
    # T-REF: strictly lower content stored under con or ava holds no reference,
    # by its type or by a location in its initializer
    pytest.param("ref@con(ref@loc(nat 1 @loc, (loc,1)), (con,2))", {},
                 "1:1: EscapingLocalRef: content labeled loc stored under con must not contain references",
                 id="ref con escape by type"),
    pytest.param(_ref_reading(CON, L_LOC, Identifier(CON, 1)), {"sigma": {L_LOC: LatType(LOC)}},
                 "1:1: EscapingLocalRef: content labeled loc stored under con must not contain references",
                 id="ref con escape by location"),
    pytest.param(_ref_reading(AVA, L_LOC, Identifier(AVA, 1)), {"sigma": {L_LOC: LatType(LOC)}},
                 "1:1: EscapingLocalRef: content labeled loc stored under ava must not contain references",
                 id="ref ava escape by location"),
    # T-REF: the identifier carries the reference label
    *(pytest.param(f"ref@{lab}(nat 1 @loc, ({other},1))", {},
                   f"1:1: IdLabelMismatch: identifier ({other},1) does not carry label {lab}",
                   id=f"ref {lab} identifier label")
      for lab, other in ((LOC, CON), (CON, AVA), (OAC, CON), (AVA, OAC))),
    # T-REF: an identifier keeps the first type it gets
    *(pytest.param(f"let a = ref@{lab}(nat 1 @{lab}, ({lab},1)) in ref@{lab}(true @{lab}, ({lab},1))", {},
                   f"1:41: Mismatch: identifier ({lab},1) is bound elsewhere "
                   f"with type Lat@{lab}, here Bool@{lab}",
                   id=f"ref {lab} identifier type")
      for lab in (LOC, CON)),
    # T-CLONE: its label is con, it takes a loc reference to loc data only,
    # under an effect at most con, and creates a con identifier of one type
    *(pytest.param(f"clone@{lab}(r, ({lab},1))", {"gamma": {"r": LOCAL_REF}},
                   f"1:1: OacMisuse: clone label must be con, found {lab}", id=f"clone label {lab}")
      for lab in (LOC, OAC, AVA)),
    pytest.param("clone@con(nat 1 @loc, (con,1))", {},
                 "1:1: Mismatch: clone applies to local references, found Lat@loc", id="clone non-reference"),
    pytest.param("clone@con(r, (con,1))", {"gamma": {"r": RefType(CON, LatType(CON))}},
                 "1:1: Mismatch: clone applies to local references, found Ref@con Lat@con",
                 id="clone con reference"),
    pytest.param("clone@con(r, (con,1))", {"gamma": {"r": RefType(LOC, LatType(CON))}},
                 "1:1: Mismatch: clone requires an all-local reference graph", id="clone con content"),
    pytest.param("clone@con(r, (con,1))", {"gamma": {"r": LOCAL_REF}, "effect": OAC},
                 "1:1: EffectViolation: clone under effect oac", id="clone effect"),
    pytest.param("clone@con(r, (ava,1))", {"gamma": {"r": LOCAL_REF}},
                 "1:1: IdLabelMismatch: identifier (ava,1) does not carry label con",
                 id="clone identifier label"),
    pytest.param("let a = ref@con(true @con, (con,1)) in clone@con(r, (con,1))", {"gamma": {"r": LOCAL_REF}},
                 "1:40: Mismatch: identifier (con,1) is bound elsewhere with type Bool@con, here Lat@con",
                 id="clone identifier type"),
    # T-LATOP and T-RELOP: both operands are lattice values
    *_operand_cases(),
]


@pytest.mark.parametrize("src,env,want", PREMISES)
def test_each_premise_fails_with_its_diagnostic(src, env, want):
    term = parse_term(src) if isinstance(src, str) else src
    with pytest.raises(CheckError) as exc:
        typecheck(TypeEnv(**env), term)
    assert exc.value.render() == f"<input>:{want}"


@pytest.mark.parametrize("src,env,want", [
    # only oac and ava references need lattice content
    ("ref@loc(true @loc, (loc,1))", {}, RefType(LOC, BoolType(LOC))),
    ("ref@con(unit @loc, (con,1))", {}, RefType(CON, UnitType(CON))),
    # the escape premise is off for oac: a residual may read a location
    (_ref_reading(OAC, R_CON, Identifier(OAC, 2)), {"sigma": {R_CON: LatType(CON)}, "runtime": True},
     RefType(OAC, LatType(OAC))),
    # join and meet give a lattice value, <= and < a boolean, at the joined label
    ("nat 1 @loc \\/ nat 2 @ava", {}, LatType(AVA)),
    ("nat 1 @con /\\ nat 2 @loc", {}, LatType(CON)),
    ("nat 1 @con <= nat 2 @loc", {}, BoolType(CON)),
    ("nat 1 @loc < nat 2 @ava", {}, BoolType(AVA)),
], ids=["loc non-lattice", "con non-lattice", "oac escape off", "join", "meet", "le", "lt"])
def test_a_premise_holds_only_where_its_rule_applies(src, env, want):
    term = parse_term(src) if isinstance(src, str) else src
    assert typecheck(TypeEnv(**env), term) == want


def test_an_oac_ref_reading_a_con_reference_stays_well_formed(tmp_path, capsys):
    # at run time the initializer becomes !<c1.r1> @con, which the escape
    # premise would reject were it applied to oac
    path = tmp_path / "oac_reads_con.ctrd"
    path.write_text("servers 2; client 1 { let c = ref@con(nat 1 @con, (con,1)) in "
                    "ref@oac(!c, (oac,2)) }")
    assert main(["run", str(path), "--check", "wf"]) == 0, capsys.readouterr()


# ---------------------------------------------------------------------------
# awaits and whole programs

def test_await_resolves_through_program_pass():
    prog = parse_program("""servers 3;
    client 1 { ref@ava(nat 1 @loc, (ava,7)) }
    client 2 { let p = await((ava,7)) in !p }""")
    res = check_program(prog)
    assert res.client_types[2] == LatType(AVA)
    assert res.id_types[Identifier(AVA, 7)] == LatType(AVA)


def test_await_unknown_identifier():
    prog = parse_program("servers 3; client 1 { await((con,9)) }")
    with pytest.raises(CheckError) as exc:
        check_program(prog)
    assert exc.value.kind == ErrorKind.UNBOUND


def _ping_pong(k: int) -> str:
    """Two clients that trade k con identifiers, one let per line: client
    1 creates (con,1) and awaits (con,2), which client 2 creates once it
    has awaited (con,1), and so on up to (con,2k)."""
    one = [f"  let a{i} = ref@con(nat {i} @con, (con,{2 * i + 1})) in\n"
           f"  let w{i} = await((con,{2 * i + 2})) in\n" for i in range(k)]
    two = [f"  let v{i} = await((con,{2 * i + 1})) in\n"
           f"  let b{i} = ref@con(nat {i} @con, (con,{2 * i + 2})) in\n" for i in range(k)]
    return (f"servers 2;\nclient 1 {{\n{''.join(one)}  unit @loc\n}}\n"
            f"client 2 {{\n{''.join(two)}  unit @loc\n}}\n")


def test_a_long_chain_of_awaits_across_clients_is_collected():
    """Each link of the chain resolves in its own round of passes, so the
    rounds must run until one adds nothing, however many that takes."""
    prog = parse_program(_ping_pong(12))
    checked = check_program(prog)
    assert set(checked.id_types) == {Identifier(CON, n) for n in range(1, 25)}
    res = run(initial_config(prog, checked.id_types), make_scheduler("drain-fair", 0))
    assert res.status == "quiescent"


def test_a_program_whose_awaits_follow_their_creators_types_each_client_once(monkeypatch):
    prog = parse_program("""servers 2;
    client 1 { let a = ref@con(nat 1 @con, (con,1)) in !a }
    client 2 { let p = await((con,1)) in !p }
    client 3 { ref@ava(nat 1 @ava, (ava,2)) }""")
    terms = [term for _, term in prog.clients]
    passes = []

    def counting(env, t):
        if any(t is term for term in terms):
            passes.append(t)
        return judge(env, t)

    judge = ctrd.typecheck.typecheck
    monkeypatch.setattr(ctrd.typecheck, "typecheck", counting)
    check_program(prog)
    assert len(passes) == len(terms)


def _diagnostic(src: str) -> str:
    with pytest.raises(CheckError) as exc:
        check_program(parse_program(src))
    return exc.value.render()


def test_a_failed_pass_types_no_identifier_after_its_error():
    # client 2's mismatch on (con,1) stops its pass before (con,3), so
    # client 1's await is the first error in program order
    assert _diagnostic("""servers 2;
    client 1 { let x = await((con,3)) in !(unit @loc) }
    client 2 { let a = ref@con(nat 1 @con, (con,1)) in
               let b = ref@con(true @con, (con,1)) in ref@con(nat 2 @con, (con,3)) }""") \
        == "<input>:2:24: Unbound: await on unknown identifier (con,3)"
    # likewise a flow violation before the awaited ref
    assert _diagnostic("""servers 2;
    client 1 { let x = await((con,2)) in unit @loc }
    client 2 { let a = ref@con(nat 1 @ava, (con,1)) in ref@con(nat 2 @con, (con,2)) }""") \
        == "<input>:2:24: Unbound: await on unknown identifier (con,2)"


def test_conflicting_identifier_types():
    prog = parse_program("""servers 3;
    client 1 { ref@con(nat 1 @con, (con,1)) }
    client 2 { ref@con(true @con, (con,1)) }""")
    with pytest.raises(CheckError) as exc:
        check_program(prog)
    assert exc.value.kind == ErrorKind.MISMATCH


# ---------------------------------------------------------------------------
# judgment-level properties

def _client_terms():
    for path in corpus_files("accept") + corpus_files("run"):
        prog = parse_program(load(path))
        checked = check_program(prog)
        for cid, term in prog.clients:
            yield path.name, term, checked.id_types


def test_weakening():
    for name, term, ids in _client_terms():
        base = typecheck(TypeEnv(ids=ids), term)
        extended = typecheck(TypeEnv(gamma={"unused": LatType(AVA)}, ids=ids), term)
        assert base == extended, name


def test_effect_monotonicity():
    # typable under an effect implies typable (same type) under any lower one
    for name, term, ids in _client_terms():
        results = {}
        for eff in LABELS:
            try:
                results[eff] = typecheck(TypeEnv(ids=ids, effect=eff), term)
            except CheckError:
                results[eff] = None
        for hi, t_hi in results.items():
            if t_hi is None:
                continue
            for lo in LABELS:
                if label_leq(lo, hi):
                    assert results[lo] == t_hi, (name, lo, hi)


def test_typecheck_deterministic():
    for name, term, ids in _client_terms():
        a = typecheck(TypeEnv(ids=ids), term)
        b = typecheck(TypeEnv(ids=ids), term)
        assert a == b, name


def test_subsumption_coherence():
    # anything accepted at a type is accepted where a supertype is demanded
    o = Location(1, 1, True)
    env = TypeEnv(sigma={o: LatType(AVA)})
    for src in ["nat 1 @loc", "nat 1 @con", "nat 1 @ava"]:
        t = typecheck(env, parse_term(src))
        assert subtype(t, LatType(AVA))
        term = Assign(Lit(Plain(o, AVA)), parse_term(src))
        assert typecheck(env, term) == UnitType(AVA)
