"""Tests for proof script parsing and checking."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfol.calculus import (
    CheckConfig,
    ProofScript,
    ProofStep,
    ProofSyntaxError,
    RuleId,
    assumption_status,
    check_proof,
    existential_vars_of_step,
    load_proof_script,
    parse_proof_script,
    parse_rule_id,
)
from dfol.consequence import SearchBound, logical_consequence
from dfol.syntax import ArrowVar, SyntaxError_, parse_labeled_formula, parse_theory

FIXTURES = Path(__file__).parent / "fixtures"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import generators  # noqa: E402

UNIT = parse_theory(
    """
    index 1, 2
    signature 1 {
      const c, d;
      complete const e;
      pred p/1, q/1, r2/2, a/0;
      complete pred cp/1;
    }
    signature 2 { pred s/1, t/1, w/0; }
    axiom 1: p(c) -> q(c)
    bridge 1: p(x) ==> 2: s(x^<1)
    bridge 1: p(x), 1: q(x) ==> 2: t(x^<1)
    bridge 1: p(x^>2) ==> 2: s(x)
    bridge 1: cp(x) ==> 2: s(x^<1)
    """
)


def mk(text: str):
    return parse_proof_script(text, theory=UNIT)


def violation(text: str):
    result = check_proof(mk(text))
    assert not result.ok
    return result


# ---------------------------------------------------------------------------
# Rule id and file parsing
# ---------------------------------------------------------------------------


def test_rule_id_forms():
    assert parse_rule_id("impI").name == "impI"
    assert parse_rule_id("andE:left").side == "left"
    assert parse_rule_id("BR:3").br_ref == 3
    assert str(parse_rule_id("BR:3")) == "BR:3"
    with pytest.raises(ValueError):
        parse_rule_id("BR:x")
    with pytest.raises(ValueError):
        parse_rule_id("frobnicate")
    with pytest.raises(ValueError):
        parse_rule_id("andE:middle")


def test_rule_id_side_only_for_andE_and_orI():
    assert parse_rule_id("orI:right").side == "right"
    for text in ("impI:left", "cut:right", "assumption:left"):
        with pytest.raises(ValueError, match="takes no side"):
            parse_rule_id(text)
    with pytest.raises(ProofSyntaxError, match="assumption takes no side") as err:
        mk("(1) 1: p(c) ; rule=assumption:left\nconclude (1) global=1 local=")
    assert (err.value.line, err.value.col) == (1, 20)


def test_parse_step_fields():
    s = mk(
        """
        (1) 1: p(x) ; rule=assumption
        (2) 2: s(x^<1) ; rule=BR:1 ; from=1
        conclude (2) global=1 local=
        """
    )
    assert len(s.steps) == 2
    assert s.steps[1].rule.br_ref == 1
    assert s.steps[1].premises == (1,)
    assert s.concluded == 2
    assert s.claimed_global == frozenset({1})
    assert s.claimed_local == frozenset()


@pytest.mark.parametrize(
    "text",
    [
        "(1) 1: p(c)\nconclude (1) global= local=",  # missing rule
        "(1) 1: p(c) ; rule=assumption",  # missing footer
        "(2) 1: p(c) ; rule=assumption\n(1) 1: q(c) ; rule=assumption\nconclude (1)",
        "(1) 1: p(c) ; rule=assumption ; wat=3\nconclude (1) global=1 local=",
        "conclude (1) global= local=\n(1) 1: p(c) ; rule=assumption",
    ],
)
def test_parse_rejects(text):
    if "(2)" in text.split("\n")[0]:
        # decreasing ids parse but fail the reference check
        result = check_proof(mk(text))
        assert not result.ok and result.code == "ref"
    else:
        with pytest.raises(ProofSyntaxError):
            mk(text)


def test_parse_needs_theory():
    with pytest.raises(ProofSyntaxError):
        parse_proof_script("(1) 1: p(c) ; rule=assumption\nconclude (1) global=1 local=")


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("(1) 1: p(c) ; rule=assumption ; rule=axiom\nconclude (1) global=1 local=", 1, 33),
        ("(1) 1: p(c) ; rule=axiom\n(2) 1: p(c) ; rule=axiom ; from=1 ; from=\nconclude (2)", 2, 37),
        ("(1) 1: p(c) ; rule=assumption ; discharge= ; discharge=1\nconclude (1)", 1, 46),
        ("(1) 1: p(c) ; rule=assumption\nconclude (1) global=1 global=", 2, 23),
        ("(1) 1: p(c) ; rule=assumption\nconclude (1) local= global=1 local=1", 2, 30),
    ],
)
def test_repeated_fields_are_errors(text, line, col):
    with pytest.raises(ProofSyntaxError, match="repeated field") as err:
        mk(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_errors_carry_line_and_column():
    with pytest.raises(ProofSyntaxError) as err:
        mk("# a comment\n(1) 1: p(c) ; rule=assumption\n  (2) 1: p(c) & ; rule=axiom\nconclude (2)")
    assert (err.value.line, err.value.col) == (3, 17)
    with pytest.raises(ProofSyntaxError, match="unknown rule") as err:
        mk("(1) 1: p(c) ; rule=local-lemmas\nconclude (1)")
    assert (err.value.line, err.value.col) == (1, 20)
    assert mk("(1) 1: p(c) ; rule=local-lemma\nconclude (1)").steps[0].rule.name == "local-lemma"


def test_theory_header(tmp_path):
    (tmp_path / "t.dfol").write_text("index 1\nsignature 1 { pred p/0; }\n")
    (tmp_path / "bad.dfol").write_text("index 1\nsignature 1 { pred p/0 }\n")
    steps = "(1) 1: p ; rule=assumption\nconclude (1) global=1\n"
    script = parse_proof_script("# header\n\ttheory t.dfol  # a comment\n" + steps, base_dir=tmp_path)
    assert script.theory.indices == ("1",) and script.concluded == 1

    with pytest.raises(ProofSyntaxError, match="cannot read theory 'missing.dfol'") as err:
        parse_proof_script("\ntheory missing.dfol\n" + steps, base_dir=tmp_path)
    assert (err.value.line, err.value.col) == (2, 1)
    assert isinstance(err.value.__cause__, FileNotFoundError)

    with pytest.raises(ProofSyntaxError, match=r"theory 'bad.dfol', 2:24: expected ';'") as err:
        parse_proof_script("  theory bad.dfol\n" + steps, base_dir=tmp_path)
    assert (err.value.line, err.value.col) == (1, 3)
    assert isinstance(err.value.__cause__, SyntaxError_)

    # `theorynope` is no header; `theory` after the first line is no header either
    for text in ("theorynope t.dfol\n" + steps, steps + "theory t.dfol\n", "# c\n" + steps + "theory t.dfol"):
        with pytest.raises(ProofSyntaxError):
            parse_proof_script(text, base_dir=tmp_path)


# ---------------------------------------------------------------------------
# The box deduction and its mutants
# ---------------------------------------------------------------------------


def test_mbox_proof_is_valid():
    script = load_proof_script(FIXTURES / "mbox.proof")
    result = check_proof(script)
    assert result.ok, result
    assert len(script.steps) == 15


def test_mbox_assumption_statuses():
    script = load_proof_script(FIXTURES / "mbox.proof")
    # index 1 assumptions sit under interface or cross major edges
    assert assumption_status(script, 1) == "global"
    assert assumption_status(script, 3) == "global"
    assert assumption_status(script, 4) == "global"
    assert assumption_status(script, 9) == "global"
    # the laundering hypotheses live at the conclusion index, on pure
    # minor paths
    assert assumption_status(script, 6) == "local"
    assert assumption_status(script, 11) == "local"
    with pytest.raises(ValueError):
        assumption_status(script, 5)


def test_assumption_status_runs_no_tableau(monkeypatch):
    # locality and existential variables come from the references alone;
    # mbox.proof's local-lemma step would otherwise run the tableau
    import dfol.calculus as calculus

    def no_tableau(*args, **kwargs):
        raise AssertionError("tableau_valid was called")

    monkeypatch.setattr(calculus, "tableau_valid", no_tableau)
    script = load_proof_script(FIXTURES / "mbox.proof")
    assert [assumption_status(script, a) for a in (1, 3, 4, 6, 9, 11)] == [
        "global", "global", "global", "local", "global", "local"
    ]
    assert existential_vars_of_step(script, 5) == frozenset({ArrowVar("x", "<", "1")})
    with pytest.raises(AssertionError, match="tableau_valid"):
        check_proof(script)


def test_mbox_existential_variables():
    script = load_proof_script(FIXTURES / "mbox.proof")
    assert existential_vars_of_step(script, 5) == frozenset(
        {ArrowVar("x", "<", "1")}
    )
    # an assumption anchors its own arrow variables
    assert existential_vars_of_step(script, 6) == frozenset()
    assert existential_vars_of_step(script, 15) == frozenset()


def test_mutant_conjoining_existentials_breaks_r1():
    result = check_proof(load_proof_script(FIXTURES / "mbox_mutant_r1.proof"))
    assert not result.ok
    assert (result.step, result.code) == (16, "R1")


def test_mutant_shared_variable_glue_breaks_r4():
    result = check_proof(load_proof_script(FIXTURES / "mbox_mutant_r4.proof"))
    assert not result.ok
    assert (result.step, result.code) == (15, "R4")


def test_mutant_global_incomplete_discharge_breaks_r3():
    result = check_proof(load_proof_script(FIXTURES / "mbox_mutant_r3.proof"))
    assert not result.ok
    assert (result.step, result.code) == (5, "R3")


def test_cut_deletion_is_never_silent():
    # rewiring exI to consume the bridge output directly trips R1: the
    # cut existed to move the existential into a discharged hypothesis
    text = """
    theory magicbox.dfol
    (1) 1: exists x. exists y. inbox(x,y) ; rule=assumption
    (2) 1: exists x. (inbox(x,r) | (inbox(x,l) & (forall u. ~inbox(u,r)))) ; rule=local-lemma ; from=1
    (3) 1: inbox(x,r) | (inbox(x,l) & (forall u. ~inbox(u,r))) ; rule=assumption
    (4) 1: inbox(x,r) ; rule=assumption
    (5) 2: exists y. inbox(x^<1,y) ; rule=BR:1 ; from=4
    (7) 2: exists x. exists y. inbox(x,y) ; rule=exI ; from=5
    (9) 1: inbox(x,l) & (forall u. ~inbox(u,r)) ; rule=assumption
    (10) 2: exists y. inbox(x^<1,y) ; rule=BR:2 ; from=9
    (11) 2: exists y. inbox(x^<1,y) ; rule=assumption
    (12) 2: exists x. exists y. inbox(x,y) ; rule=exI ; from=11
    (13) 2: exists x. exists y. inbox(x,y) ; rule=cut ; from=10,12 ; discharge=11
    (14) 2: exists x. exists y. inbox(x,y) ; rule=orE ; from=3,7,13 ; discharge=4,9
    (15) 2: exists x. exists y. inbox(x,y) ; rule=exE ; from=2,14 ; discharge=3
    conclude (15) global=1 local=
    """
    result = check_proof(parse_proof_script(text, base_dir=FIXTURES))
    assert not result.ok
    assert (result.step, result.code) == (7, "R1")


# ---------------------------------------------------------------------------
# Cut gluing and its consequence-level counterpart
# ---------------------------------------------------------------------------


def test_cut_glue_distinct_variables_is_valid():
    script = load_proof_script(FIXTURES / "cutglue.proof")
    assert check_proof(script).ok
    assert assumption_status(script, 5) == "local"
    assert assumption_status(script, 1) == "global"


def test_cut_glue_shared_variable_breaks_r4():
    result = check_proof(load_proof_script(FIXTURES / "cutglue_shared.proof"))
    assert not result.ok
    assert (result.step, result.code) == (8, "R4")


def test_glue_claims_match_bounded_consequence():
    # the valid script's claim holds; the rejected script's claim has a
    # countermodel sending the two rules to different counterparts
    T = parse_theory((FIXTURES / "cutglue.dfol").read_text())
    bound = SearchBound(max_domain_size=2, max_local_models=1)

    def lf(text):
        return parse_labeled_formula(T, text)

    good = logical_consequence(
        T, [lf("1: p(x)"), lf("1: q(z)")], lf("2: s(x^<1) & t(z^<1)"), bound
    )
    assert good.holds
    bad = logical_consequence(
        T, [lf("1: p(x)"), lf("1: q(x)")], lf("2: s(x^<1) & t(x^<1)"), bound
    )
    assert not bad.holds


# ---------------------------------------------------------------------------
# Rule shapes
# ---------------------------------------------------------------------------


def test_impI_and_notdef():
    assert check_proof(
        mk(
            """
            (1) 1: p(c) ; rule=assumption
            (2) 1: p(c) -> p(c) ; rule=impI ; from=1 ; discharge=1
            conclude (2) global= local=
            """
        )
    ).ok
    # a negation reads as implying falsum
    assert check_proof(
        mk(
            """
            (1) 1: p(c) ; rule=assumption
            (2) 1: ~p(c) ; rule=assumption
            (3) 1: false ; rule=impE ; from=1,2
            (4) 1: ~p(c) -> false ; rule=impI ; from=3 ; discharge=2
            conclude (4) global=1 local=
            """
        )
    ).ok
    r = violation(
        """
        (1) 1: p(c) ; rule=assumption
        (2) 1: p(c) -> q(c) ; rule=impI ; from=1 ; discharge=1
        conclude (2) global= local=
        """
    )
    assert (r.step, r.code) == (2, "shape")


def test_impE_orders_and_mismatch():
    assert check_proof(
        mk(
            """
            (1) 1: p(c) -> q(c) ; rule=assumption
            (2) 1: p(c) ; rule=assumption
            (3) 1: q(c) ; rule=impE ; from=2,1
            conclude (3) global=1,2 local=
            """
        )
    ).ok
    r = violation(
        """
        (1) 1: p(c) -> q(c) ; rule=assumption
        (2) 1: q(c) ; rule=assumption
        (3) 1: q(c) ; rule=impE ; from=2,1
        conclude (3) global=1,2 local=
        """
    )
    assert (r.step, r.code) == (3, "shape")


def test_and_or_sides():
    assert check_proof(
        mk(
            """
            (1) 1: p(c) & q(c) ; rule=assumption
            (2) 1: q(c) ; rule=andE:right ; from=1
            (3) 1: q(c) | a ; rule=orI:left ; from=2
            conclude (3) global=1 local=
            """
        )
    ).ok
    r = violation(
        """
        (1) 1: p(c) & q(c) ; rule=assumption
        (2) 1: q(c) ; rule=andE:left ; from=1
        conclude (2) global=1 local=
        """
    )
    assert (r.step, r.code) == (2, "shape")
    r = violation(
        """
        (1) 1: p(c) ; rule=assumption
        (2) 1: q(c) | a ; rule=orI ; from=1
        conclude (2) global=1 local=
        """
    )
    assert (r.step, r.code) == (2, "shape")


def test_orE_same_index_discharges_local():
    assert check_proof(
        mk(
            """
            (1) 1: p(c) | q(c) ; rule=assumption
            (2) 1: p(c) ; rule=assumption
            (3) 1: q(c) ; rule=assumption
            (4) 1: p(c) | q(c) ; rule=orI:left ; from=2
            (5) 1: p(c) | q(c) ; rule=orI:right ; from=3
            (6) 1: p(c) | q(c) ; rule=orE ; from=1,4,5 ; discharge=2,3
            conclude (6) global=1 local=
            """
        )
    ).ok


def test_botI_introducing_existential_breaks_r2():
    r = violation(
        """
        (1) 2: s(x^<1) & (~s(x^<1)) ; rule=assumption
        (2) 2: s(x^<1) ; rule=andE:left ; from=1
        (3) 2: ~s(x^<1) ; rule=andE:right ; from=1
        (4) 2: false ; rule=impE ; from=2,3
        (5) 2: ~(s(x^<1) & (~s(x^<1))) ; rule=botI ; from=4 ; discharge=1
        conclude (5) global= local=
        """
    )
    assert (r.step, r.code) == (5, "R2")


def test_allI_and_r5():
    # generalizing a variable free in an open same-index assumption
    r = violation(
        """
        (1) 1: p(x) ; rule=assumption
        (2) 1: p(x) | q(x) ; rule=orI:left ; from=1
        (3) 1: forall x. (p(x) | q(x)) ; rule=allI ; from=2
        conclude (3) global=1 local=
        """
    )
    assert (r.step, r.code) == (3, "R5")
    # generalizing a variable whose arrow towards this index sits in a
    # foreign assumption
    r = violation(
        """
        (1) 1: p(x^>2) ; rule=assumption
        (2) 2: s(x) ; rule=BR:3 ; from=1
        (3) 2: forall x. s(x) ; rule=allI ; from=2
        conclude (3) global=1 local=
        """
    )
    assert (r.step, r.code) == (3, "R5")
    # closed premise generalizes fine
    assert check_proof(
        mk(
            """
            (1) 1: forall x. p(x) ; rule=assumption
            (2) 1: p(x) ; rule=allE ; from=1
            (3) 1: forall x. p(x) ; rule=allI ; from=2
            conclude (3) global=1 local=
            """
        )
    ).ok


def test_allE_substitution_matching():
    assert check_proof(
        mk(
            """
            (1) 1: forall x. r2(x,x) ; rule=assumption
            (2) 1: r2(c,c) ; rule=allE ; from=1
            conclude (2) global=1 local=
            """
        )
    ).ok
    r = violation(
        """
        (1) 1: forall x. r2(x,x) ; rule=assumption
        (2) 1: r2(c,d) ; rule=allE ; from=1
        conclude (2) global=1 local=
        """
    )
    assert (r.step, r.code) == (2, "shape")
    # instantiation may not capture the instantiating variable
    r = violation(
        """
        (1) 1: forall x. exists y. r2(x,y) ; rule=assumption
        (2) 1: exists y. r2(y,y) ; rule=allE ; from=1
        conclude (2) global=1 local=
        """
    )
    assert (r.step, r.code) == (2, "shape")


def test_exI_accepts_arrow_witnesses():
    assert check_proof(
        mk(
            """
            (1) 2: s(x^<1) ; rule=assumption
            (2) 2: exists y. s(y) ; rule=exI ; from=1
            conclude (2) global=1 local=
            """
        )
    ).ok
    r = violation(
        """
        (1) 2: s(x^<1) ; rule=assumption
        (2) 2: exists y. t(y) ; rule=exI ; from=1
        conclude (2) global=1 local=
        """
    )
    assert (r.step, r.code) == (2, "shape")


def test_exE_witness_fencing():
    # same index: the witness may not survive into the conclusion
    r = violation(
        """
        (1) 1: exists x. p(x) ; rule=assumption
        (2) 1: p(x) ; rule=assumption
        (3) 1: p(x) ; rule=exE ; from=1,2 ; discharge=2
        conclude (3) global=1 local=
        """
    )
    assert (r.step, r.code) == (3, "R6")
    # same index: nor may it stay free in another open assumption
    r = violation(
        """
        (1) 1: exists x. p(x) ; rule=assumption
        (2) 1: q(x) ; rule=assumption
        (3) 1: p(x) ; rule=assumption
        (4) 1: q(x) & p(x) ; rule=andI ; from=2,3
        (5) 1: q(x) ; rule=andE:left ; from=4
        (6) 1: exists x. q(x) ; rule=exI ; from=5
        (7) 1: exists x. q(x) ; rule=exE ; from=1,6 ; discharge=3
        conclude (7) global=1,2 local=
        """
    )
    assert (r.step, r.code) == (7, "R6")
    # across indices: the witness's arrow variables may not leak out
    r = violation(
        """
        (1) 1: exists x. cp(x) ; rule=assumption
        (2) 1: cp(x) ; rule=assumption
        (3) 2: s(x^<1) ; rule=BR:4 ; from=2
        (4) 2: s(x^<1) ; rule=exE ; from=1,3 ; discharge=2
        conclude (4) global=1 local=
        """
    )
    assert (r.step, r.code) == (4, "R6")
    # the laundered form cuts the arrow into a fresh hypothesis,
    # generalizes it away there, and passes
    assert check_proof(
        mk(
            """
            (1) 1: exists x. cp(x) ; rule=assumption
            (2) 1: cp(x) ; rule=assumption
            (3) 2: s(x^<1) ; rule=BR:4 ; from=2
            (4) 2: s(x^<1) ; rule=assumption
            (5) 2: exists y. s(y) ; rule=exI ; from=4
            (6) 2: exists y. s(y) ; rule=cut ; from=3,5 ; discharge=4
            (7) 2: exists y. s(y) ; rule=exE ; from=1,6 ; discharge=2
            conclude (7) global=1 local=
            """
        )
    ).ok


def test_eqI_shapes():
    assert check_proof(
        mk(
            """
            (1) 1: c = c ; rule=eqI
            conclude (1) global= local=
            """
        )
    ).ok
    assert check_proof(
        mk(
            """
            (1) 2: s(x^<1) ; rule=assumption
            (2) 2: x^<1 = x^<1 ; rule=eqI ; from=1
            conclude (2) global=1 local=
            """
        )
    ).ok
    r = violation(
        """
        (1) 2: x^<1 = x^<1 ; rule=eqI
        conclude (1) global= local=
        """
    )
    assert (r.step, r.code) == (1, "shape")
    r = violation(
        """
        (1) 1: c = d ; rule=eqI
        conclude (1) global= local=
        """
    )
    assert (r.step, r.code) == (1, "shape")


def test_eqE_rewrites():
    assert check_proof(
        mk(
            """
            (1) 1: p(c) ; rule=assumption
            (2) 1: c = d ; rule=assumption
            (3) 1: p(d) ; rule=eqE ; from=1,2
            conclude (3) global=1,2 local=
            """
        )
    ).ok
    # reverse orientation and partial replacement
    assert check_proof(
        mk(
            """
            (1) 1: r2(c,c) ; rule=assumption
            (2) 1: d = c ; rule=assumption
            (3) 1: r2(c,d) ; rule=eqE ; from=1,2
            conclude (3) global=1,2 local=
            """
        )
    ).ok
    r = violation(
        """
        (1) 1: p(c) ; rule=assumption
        (2) 1: c = d ; rule=assumption
        (3) 1: q(d) ; rule=eqE ; from=1,2
        conclude (3) global=1,2 local=
        """
    )
    assert (r.step, r.code) == (3, "shape")
    # no replacement under a binder that captures the equated variable
    r = violation(
        """
        (1) 1: forall x. r2(x,x) ; rule=assumption
        (2) 1: x = c ; rule=assumption
        (3) 1: forall x. r2(x,c) ; rule=eqE ; from=1,2
        conclude (3) global=1,2 local=
        """
    )
    assert (r.step, r.code) == (3, "shape")


def test_interface_equality_rules():
    assert check_proof(
        mk(
            """
            (1) 1: x = y^>2 ; rule=assumption
            (2) 2: x^<1 = y ; rule=fromII ; from=1
            conclude (2) global=1 local=
            """
        )
    ).ok
    # swapped equation sides are accepted
    assert check_proof(
        mk(
            """
            (1) 1: y^<2 = x ; rule=assumption
            (2) 2: x^>1 = y ; rule=toII ; from=1
            conclude (2) global=1 local=
            """
        )
    ).ok
    r = violation(
        """
        (1) 1: x = y^<2 ; rule=assumption
        (2) 2: x^<1 = y ; rule=fromII ; from=1
        conclude (2) global=1 local=
        """
    )
    assert (r.step, r.code) == (2, "shape")
    # the conclusion arrow must be existential at its step
    r = violation(
        """
        (1) 2: x^<1 = x^<1 ; rule=assumption
        (2) 1: x = y^>2 ; rule=assumption
        (3) 1: x = y^>2 ; rule=cut ; from=1,2
        (4) 2: x^<1 = y ; rule=fromII ; from=3
        conclude (4) global=1,2 local=
        """
    )
    assert (r.step, r.code) == (4, "R2")


def test_bridge_rule_instantiation():
    assert check_proof(
        mk(
            """
            (1) 1: p(z) ; rule=assumption
            (2) 1: q(z) ; rule=assumption
            (3) 2: t(z^<1) ; rule=BR:2 ; from=1,2
            conclude (3) global=1,2 local=
            """
        )
    ).ok
    # the renaming must stay consistent across premises
    r = violation(
        """
        (1) 1: p(z) ; rule=assumption
        (2) 1: q(w) ; rule=assumption
        (3) 2: t(z^<1) ; rule=BR:2 ; from=1,2
        conclude (3) global=1,2 local=
        """
    )
    assert (r.step, r.code) == (3, "shape")
    # constants cannot instantiate rule variables
    r = violation(
        """
        (1) 1: p(c) ; rule=assumption
        (2) 2: exists y. s(y) ; rule=BR:1 ; from=1
        conclude (2) global=1 local=
        """
    )
    assert (r.step, r.code) == (2, "shape")
    r = violation(
        """
        (1) 1: p(z) ; rule=assumption
        (2) 2: s(z^<1) ; rule=BR:9 ; from=1
        conclude (2) global=1 local=
        """
    )
    assert (r.step, r.code) == (2, "shape")


def test_local_lemma_budgeted_prover():
    assert check_proof(
        mk(
            """
            (1) 1: p(c) ; rule=assumption
            (2) 1: q(c) ; rule=local-lemma ; from=1
            conclude (2) global=1 local=
            """
        )
    ).ok
    # the axiom speaks about c, not d
    r = violation(
        """
        (1) 1: p(d) ; rule=assumption
        (2) 1: q(d) ; rule=local-lemma ; from=1
        conclude (2) global=1 local=
        """
    )
    assert (r.step, r.code) == (2, "shape")
    # a starved budget rejects even trivial obligations
    script = mk(
        """
        (1) 1: forall x. p(x) ; rule=assumption
        (2) 1: p(c) ; rule=local-lemma ; from=1
        conclude (2) global=1 local=
        """
    )
    assert check_proof(script).ok
    starved = check_proof(script, config=CheckConfig(lemma_gamma_rounds=0))
    assert not starved.ok and starved.code == "shape"


def test_axiom_leaf():
    assert check_proof(
        mk(
            """
            (1) 1: p(c) -> q(c) ; rule=axiom
            conclude (1) global= local=
            """
        )
    ).ok
    r = violation(
        """
        (1) 1: p(d) -> q(d) ; rule=axiom
        conclude (1) global= local=
        """
    )
    assert (r.step, r.code) == (1, "shape")


# each rule that may not discharge, in a well formed step: the steps, an
# assumption to discharge, and the concluding step's dependencies
NO_DISCHARGE = {
    "impE": ("(1) 1: p(c) -> q(c) ; rule=assumption\n(2) 1: p(c) ; rule=assumption\n"
             "(3) 1: q(c) ; rule=impE ; from=1,2", 2, "1,2"),
    "andI": ("(1) 1: p(c) ; rule=assumption\n(2) 1: p(c) & p(c) ; rule=andI ; from=1,1", 1, "1"),
    "andE": ("(1) 1: p(c) & q(c) ; rule=assumption\n(2) 1: p(c) ; rule=andE:left ; from=1", 1, "1"),
    "orI": ("(1) 1: p(c) ; rule=assumption\n(2) 1: p(c) | q(c) ; rule=orI:left ; from=1", 1, "1"),
    "allI": ("(1) 1: forall x. p(x) ; rule=assumption\n(2) 1: p(x) ; rule=allE ; from=1\n"
             "(3) 1: forall x. p(x) ; rule=allI ; from=2", 1, "1"),
    "allE": ("(1) 1: forall x. p(x) ; rule=assumption\n(2) 1: p(c) ; rule=allE ; from=1", 1, "1"),
    "exI": ("(1) 1: p(c) ; rule=assumption\n(2) 1: exists x. p(x) ; rule=exI ; from=1", 1, "1"),
    "eqI": ("(1) 1: p(c) ; rule=assumption\n(2) 1: c = c ; rule=eqI ; from=1", 1, "1"),
    "eqE": ("(1) 1: p(c) ; rule=assumption\n(2) 1: c = d ; rule=assumption\n"
            "(3) 1: p(d) ; rule=eqE ; from=1,2", 2, "1,2"),
    "local-lemma": ("(1) 1: p(c) ; rule=assumption\n(2) 1: q(c) ; rule=local-lemma ; from=1", 1, "1"),
    "BR": ("(1) 1: p(x) ; rule=assumption\n(2) 2: s(x^<1) ; rule=BR:1 ; from=1", 1, "1"),
    "fromII": ("(1) 1: x = y^>2 ; rule=assumption\n(2) 2: x^<1 = y ; rule=fromII ; from=1", 1, "1"),
    "toII": ("(1) 1: y^<2 = x ; rule=assumption\n(2) 2: x^>1 = y ; rule=toII ; from=1", 1, "1"),
}


@pytest.mark.parametrize("rule", NO_DISCHARGE)
def test_only_discharging_rules_discharge(rule):
    steps, discharged, deps = NO_DISCHARGE[rule]
    last = steps.count("\n") + 1
    assert check_proof(mk(f"{steps}\nconclude ({last}) global={deps} local=")).ok
    r = violation(f"{steps} ; discharge={discharged}\nconclude ({last}) global= local=")
    assert (r.step, r.code, r.message) == (last, "shape", f"{rule} discharges no assumptions")


# ---------------------------------------------------------------------------
# References and footer bookkeeping
# ---------------------------------------------------------------------------


def test_forward_reference_rejected():
    r = violation(
        """
        (1) 1: q(c) ; rule=impE ; from=2,3
        (2) 1: p(c) -> q(c) ; rule=assumption
        (3) 1: p(c) ; rule=assumption
        conclude (1) global=2,3 local=
        """
    )
    assert (r.step, r.code) == (1, "ref")


def test_discharging_non_assumption_rejected():
    r = violation(
        """
        (1) 1: p(c) & q(c) ; rule=assumption
        (2) 1: p(c) ; rule=andE:left ; from=1
        (3) 1: p(c) -> p(c) ; rule=impI ; from=2 ; discharge=2
        conclude (3) global=1 local=
        """
    )
    assert (r.step, r.code) == (3, "ref")


def test_footer_must_match_dependencies():
    r = violation(
        """
        (1) 1: p(c) ; rule=assumption
        (2) 1: q(c) ; rule=assumption
        (3) 1: p(c) & q(c) ; rule=andI ; from=1,2
        conclude (3) global=1 local=
        """
    )
    assert (r.step, r.code) == (3, "conclusion")


def test_footer_rejects_global_claimed_as_local():
    r = violation(
        """
        (1) 1: p(x) ; rule=assumption
        (2) 2: s(x^<1) ; rule=BR:1 ; from=1
        conclude (2) global= local=1
        """
    )
    assert (r.step, r.code) == (2, "conclusion")


def test_assumption_status_of_missing_steps():
    script = mk("(1) 1: p(c) ; rule=assumption\nconclude (5) global=1 local=")
    with pytest.raises(ValueError, match=r"concluded step \(5\) is missing"):
        assumption_status(script, 1)
    script = mk("(1) 1: p(c) ; rule=assumption\nconclude (1) global=1 local=")
    with pytest.raises(ValueError, match=r"step \(9\)"):
        assumption_status(script, 9)


def test_missing_concluded_step():
    r = violation(
        """
        (1) 1: p(c) ; rule=assumption
        conclude (9) global=1 local=
        """
    )
    assert r.code == "conclusion"


# ---------------------------------------------------------------------------
# The checker against the semantics
# ---------------------------------------------------------------------------


def refuting_bound(script: ProofScript):
    """The first of the bounds (1,1) and (1,2) within which the concluded
    formula does not follow from the formulas of the assumptions the
    footer claims, or None."""
    claimed = sorted(script.claimed_global | script.claimed_local)
    premises = [script.step(a).formula for a in claimed]
    goal = script.step(script.concluded).formula
    for bound in (SearchBound(1, 1), SearchBound(1, 2)):
        if not logical_consequence(script.theory, premises, goal, bound).holds:
            return bound
    return None


def test_accepted_fixture_proofs_are_bounded_consequences():
    scripts = {p.name: load_proof_script(p) for p in sorted(FIXTURES.glob("*.proof"))}
    accepted = sorted(name for name, script in scripts.items() if check_proof(script).ok)
    assert accepted == ["cutglue.proof", "mbox.proof"]
    for name in accepted:
        assert refuting_bound(scripts[name]) is None, name


def test_discharge_by_andI_is_refuted_and_rejected():
    # andI closing its own premise would prove p(a) & p(a) from nothing
    script = parse_proof_script(
        """
        (1) 1: p(a) ; rule=assumption
        (2) 1: p(a) & p(a) ; rule=andI ; from=1,1 ; discharge=1
        conclude (2) global= local=
        """,
        theory=parse_theory("index 1\nsignature 1 { const a; pred p/1; }"),
    )
    assert refuting_bound(script) == SearchBound(1, 1)
    r = check_proof(script)
    assert (r.ok, r.step, r.code) == (False, 2, "shape")


# ---------------------------------------------------------------------------
# The token parser against the line parser it replaced
# ---------------------------------------------------------------------------


def _reference_rule_id(text: str) -> RuleId:
    name, _, tail = text.strip().partition(":")
    name, tail = name.strip(), tail.strip()
    if not tail:
        return RuleId(name)
    if name == "BR":
        if not tail.isdigit():
            raise ValueError(f"bad bridge rule reference {tail!r}")
        return RuleId(name, br_ref=int(tail))
    return RuleId(name, side=tail)


def _reference_ids(text: str, line_no: int) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk.isdigit():
            raise ProofSyntaxError(f"bad step reference {chunk!r}", line_no, 1)
        out.append(int(chunk))
    return tuple(out)


def _reference_step(theory, line: str, line_no: int) -> ProofStep:
    head, *fields = [part.strip() for part in line.split(";")]
    if not head.startswith("("):
        raise ProofSyntaxError("step must start with (<id>)", line_no, 1)
    close = head.find(")")
    if close < 0:
        raise ProofSyntaxError("unterminated step id", line_no, 1)
    id_text = head[1:close].strip()
    if not id_text.isdigit():
        raise ProofSyntaxError(f"bad step id {id_text!r}", line_no, 1)
    try:
        lf = parse_labeled_formula(theory, head[close + 1:].strip())
    except Exception as exc:
        raise ProofSyntaxError(f"bad formula: {exc}", line_no, 1) from exc
    rule, premises, discharged = None, (), ()
    for f in fields:
        if not f:
            continue
        key, eq, value = f.partition("=")
        key = key.strip()
        if not eq:
            raise ProofSyntaxError(f"expected key=value, found {f!r}", line_no, 1)
        if key == "rule":
            try:
                rule = _reference_rule_id(value)
            except ValueError as exc:
                raise ProofSyntaxError(str(exc), line_no, 1) from exc
        elif key == "from":
            premises = _reference_ids(value, line_no)
        elif key == "discharge":
            discharged = _reference_ids(value, line_no)
        else:
            raise ProofSyntaxError(f"unknown field {key!r}", line_no, 1)
    if rule is None:
        raise ProofSyntaxError("step needs a rule= field", line_no, 1)
    return ProofStep(int(id_text), lf, rule, premises, discharged)


def _reference_parse_proof_script(text: str, *, theory=None, base_dir=".") -> ProofScript:
    """The line-by-line parser that string-sliced each step and the footer."""
    steps: list[ProofStep] = []
    footer = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("theory"):
            if steps or footer is not None:
                raise ProofSyntaxError("theory header must come first", line_no, 1)
            if theory is None:
                theory = parse_theory((Path(base_dir) / line[len("theory"):].strip()).read_text())
            continue
        if line.startswith("conclude"):
            if footer is not None:
                raise ProofSyntaxError("duplicate conclude footer", line_no, 1)
            footer = (line[len("conclude"):].strip(), line_no)
            continue
        if theory is None:
            raise ProofSyntaxError("no theory header before first step", line_no, 1)
        if footer is not None:
            raise ProofSyntaxError("steps after conclude footer", line_no, 1)
        steps.append(_reference_step(theory, line, line_no))
    if theory is None or footer is None:
        raise ProofSyntaxError("proof has no theory or no conclude footer", 1, 1)
    footer_text, footer_line = footer
    close = footer_text.find(")")
    concluded_text = footer_text[1:close].strip()
    if not footer_text.startswith("(") or close < 0 or not concluded_text.isdigit():
        raise ProofSyntaxError("bad concluded step id", footer_line, 1)
    claimed: dict[str, tuple[int, ...]] = {"global": (), "local": ()}
    for f in footer_text[close + 1:].split():
        key, eq, value = f.partition("=")
        if not eq or key not in claimed:
            raise ProofSyntaxError(f"bad footer field {f!r}", footer_line, 1)
        claimed[key] = _reference_ids(value, footer_line)
    return ProofScript(
        theory, tuple(steps), int(concluded_text), frozenset(claimed["global"]), frozenset(claimed["local"])
    )


# the six fixture proofs, read against their theory files, and the bench's
# glue proofs for n = 2 to 6 with distinct and with shared variables
PROOF_CORPUS = {p.name: (p.read_text(), None) for p in sorted(FIXTURES.glob("*.proof"))}
for n in range(2, 7):
    preds, concl = [f"p{k}" for k in range(n)], [f"s{k}" for k in range(n)]
    for tag, vars_ in (("", [f"v{k}" for k in range(n)]), ("s", ["v"] * n)):
        theory, proof = generators.glue_proof(n, preds, concl, vars_)
        PROOF_CORPUS[f"glue{n}{tag}"] = (proof, parse_theory(theory))


def both_parses(text: str, theory):
    return (
        _reference_parse_proof_script(text, theory=theory, base_dir=FIXTURES),
        parse_proof_script(text, theory=theory, base_dir=FIXTURES),
    )


@pytest.mark.parametrize("name", PROOF_CORPUS)
def test_token_parser_matches_the_line_parser(name):
    reference, script = both_parses(*PROOF_CORPUS[name])
    assert script == reference and script.steps


def respaced(rng, text: str) -> str:
    """text with each run of spaces redrawn, lines indented and trailed by
    whitespace or a comment, and blank or comment lines put in between."""

    def ws(least: int) -> str:
        return "".join(rng.choice(" \t") for _ in range(rng.randint(least, 3)))

    def comment() -> str:
        return rng.choice(["", "#", "# theory x.dfol", "#(1) ; rule=axiom", "## conclude (1)"])

    lines = []
    for line in text.splitlines():
        if rng.random() < 0.2:
            lines.append(ws(0) + comment())
        words = line.split(" ")
        body = words[0] + "".join(ws(1) + w for w in words[1:])
        lines.append(ws(0) + body + ws(0) + comment())
    return "\n".join(lines) + rng.choice(["", "\n"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PROOF_CORPUS)), st.integers(0, 2**32))
def test_token_parser_matches_the_line_parser_respaced(name, seed):
    text, theory = PROOF_CORPUS[name]
    reference, script = both_parses(respaced(random.Random(seed), text), theory)
    assert script == reference
