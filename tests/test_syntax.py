import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsim import corpus_path, randprog
from hybridsim.syntax import (MAX_NESTING, And, Apply, ArityError, Assign,
                              Atom, BTrue, Cmp, Const, Diff, If, Leq, Not,
                              ParseError, Seq, Var, VarList, While, desugar,
                              desugar_bool, desugar_expr, nodes, ordered_vars,
                              parse, parse_boolean, parse_expression,
                              parse_program, pretty, pretty_unit)


def test_parse_eq1_body_shape():
    p = parse_program("p' = v, v' = 2 for 1 ; p' = v, v' = -2 for 1")
    assert p == Seq(
        Atom(Diff((("p", Var("v")), ("v", Const(2.0))), Const(1.0))),
        Atom(Diff((("p", Var("v")), ("v", Const(-2.0))), Const(1.0))),
    )


def test_parse_assignment_with_division():
    p = parse_program("x := 1/x")
    assert p == Atom(Assign("x", Apply("/", (Const(1.0), Var("x")))))


def test_skip_is_not_a_statement():
    with pytest.raises(ParseError):
        parse("while tt do { skip }")


def test_seq_is_right_nested():
    p = parse_program("x := 1 ; y := 2 ; z := 3")
    assert isinstance(p, Seq)
    assert isinstance(p.first, Atom)
    assert isinstance(p.rest, Seq)
    assert isinstance(p.rest.rest, Atom)


def test_diff_rejects_duplicate_variable():
    with pytest.raises(ParseError):
        parse_program("x' = 1, x' = 2 for 1")


def test_arity_error():
    with pytest.raises(ArityError):
        parse_program("x := sqrt(1, 2)")
    with pytest.raises(ArityError):
        parse_program("x := min(1)")


def test_parse_error_carries_location_inside_input():
    src = "x := 1 ;\ny := * 2"
    with pytest.raises(ParseError) as exc:
        parse(src)
    err = exc.value
    assert 0 <= err.pos <= len(src)
    assert err.line == 2
    assert err.expected  # the expected-token set is populated


# the parser's vocabulary, so that random soups of it reach past the tokenizer
TOKENS = ("1 0 2.5 1e999 .5 x y pi sqrt min tt ff if then else while do for "
          ":= ' = + - * / ( ) { } , ; <= < > >= == != && || ! // \n").split(" ")


@given(st.one_of(st.text(), st.lists(st.sampled_from(TOKENS)).map(" ".join)))
@settings(max_examples=400, deadline=None)
def test_parse_raises_only_parse_errors(text):
    try:
        parse(text)
    except ParseError:
        pass


def test_literal_out_of_range():
    for text in ("x := 1e999",
                 "x := {1e999, 2} ; x' = -x for 1",
                 "x := {2, -1e999} ; x' = -x for 1"):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.message == "numeric literal out of range"


@pytest.mark.parametrize("text", [
    "x :=",
    "x' = 1",
    "if x <= 1 then y := 1",
    "while x <= 1 { y := 1 }",
    "x := (1 + ",
    "x := {1, }",
    "x := 1 ; ; y := 2",
    "x := sqrt(",
    "x := 1 @ 2",
])
def test_every_parse_error_is_located_in_span(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert 0 <= exc.value.pos <= len(text)
    assert exc.value.line >= 1 and exc.value.col >= 1


def test_named_constants_parse_to_const():
    assert parse_expression("pi") == Const(math.pi)
    assert parse_expression("euler") == Const(math.e)


def test_unary_minus_on_literal_folds():
    assert parse_expression("-2") == Const(-2.0)
    assert parse_expression("-x") == Apply("-", (Var("x"),))


def test_precedence_and_associativity():
    assert parse_expression("1 - 2 - 3") == Apply(
        "-", (Apply("-", (Const(1.0), Const(2.0))), Const(3.0)))
    assert parse_expression("1 + 2 * 3") == Apply(
        "+", (Const(1.0), Apply("*", (Const(2.0), Const(3.0)))))
    assert parse_expression("(1 + 2) * 3") == Apply(
        "*", (Apply("+", (Const(1.0), Const(2.0))), Const(3.0)))


def test_boolean_parens_backtracking():
    b = parse_boolean("(x <= 1) && tt")
    assert b == And(Leq(Var("x"), Const(1.0)), BTrue())
    b2 = parse_boolean("(x) <= 1")
    assert b2 == Leq(Var("x"), Const(1.0))
    b3 = parse_boolean("((x)) <= 1 || x > 2")
    assert isinstance(b3.lhs, Leq)
    assert isinstance(b3.rhs, Cmp)


def test_if_braces_optional_while_mandatory():
    p = parse_program("if x <= 1 then x := 1 else { x := 2 }")
    assert isinstance(p, If)
    with pytest.raises(ParseError):
        parse_program("while x <= 1 do x := 1")


def test_comments_and_scientific_notation():
    u = parse("x := 1.5e-2 ; // initial\nx' = -1 for 1")
    assert u.declarations[0].expr == Const(0.015)


# -- declarations and variability listings

def test_varlist_declarations():
    u = parse("x := {0, 2, 4} ;\nvx := {4, 8, 12} ;\ny := 0 ;\nx' = vx for 1")
    kinds = [type(d).__name__ for d in u.declarations]
    assert kinds == ["VarList", "VarList", "Assign"]
    assert u.declarations[0] == VarList("x", (0.0, 2.0, 4.0))
    # the scalar declaration is kept in the body too
    assert isinstance(u.body, Seq) and u.body.first == Atom(Assign("y", Const(0.0)))


def test_varlist_needs_declaration_position():
    with pytest.raises(ParseError):
        parse("x := 1 ; x' = -1 for 1 ; y := {1, 2}")


def test_varlist_duplicate_rejected():
    with pytest.raises(ParseError):
        parse("x := {1} ; x := {2} ; x' = -1 for 1")


def test_varlist_negative_values():
    u = parse("x := {-1, 2.5} ; x' = -1 for 1")
    assert u.declarations[0].values == (-1.0, 2.5)


def test_non_literal_assign_ends_declarations():
    u = parse("a := 1 ; t := sqrt(3) ; b := 2 ; a' = 1 for t")
    decl_vars = [d.var for d in u.declarations]
    assert decl_vars == ["a"]  # sqrt(3) is not a literal, so declarations stop


def test_empty_body_rejected():
    with pytest.raises(ParseError):
        parse("x := {1, 2}")


# The declaration section, pinned case by case: the declarations as
# (variable, value or listing) pairs and the pretty-printed body, or the
# exact message of the ParseError.
DECLARATION_SECTION = {
    "statement after ';'": (
        "x := 1 ; }",
        "unexpected token '}' at statement start at 1:10 "
        "(expected a variable, 'if', 'while')"),
    "after program end": (
        "x := 1 ; x' = 1 for 1 ; }",
        "unexpected token '}' after program end at 1:25 (expected ';', end of input)"),
    "listing only": ("x := {1,2} ;", "program body is empty at 1:13"),
    "listing without ';' only": ("x := {1,2}", "program body is empty at 1:11"),
    "listing after a non-literal": (
        "x := y ; z := {1}",
        "unexpected token '{' in expression at 1:15 "
        "(expected a number, a variable, '(')"),
    "reserved listing": ("pi := {1}", "reserved name 'pi' cannot be declared at 1:1"),
    "keyword listing": (
        "if := {1} ; x' = 1 for 1",
        "unexpected token ':=' in expression at 1:4 "
        "(expected a number, a variable, '(')"),
    "duplicate listing": (
        "x := {1} ; x := {2} ; x' = 1 for 1",
        "variable 'x' has more than one variability listing at 1:12"),
    "empty": ("", "program body is empty at 1:1"),
    "semicolon": (
        ";", "unexpected token ';' at statement start at 1:1 "
        "(expected a variable, 'if', 'while')"),
    "two semicolons after a listing": (
        "x := {1, 2} ; ; x' = 1 for 1",
        "unexpected token ';' at statement start at 1:15 "
        "(expected a variable, 'if', 'while')"),
    "listing after a literal": (
        "x := 1 ; y := {1,2} ; x' = y for 1",
        ((("x", 1.0), ("y", (1.0, 2.0))), "x := 1.0 ; x' = y for 1.0")),
    "literal between listings": (
        "x := {1} ; y := 2 ; z := {3} ; x' = 1 for 1",
        ((("x", (1.0,)), ("y", 2.0), ("z", (3.0,))), "y := 2.0 ; x' = 1.0 for 1.0")),
    "negative values": (
        "x := -1 ; y := {-2, 3} ; y' = x for 1",
        ((("x", -1.0), ("y", (-2.0, 3.0))), "x := -1.0 ; y' = x for 1.0")),
    "repeated literal": (
        "x := 1 ; x := 2 ; x' = 1 for 1",
        ((("x", 1.0), ("x", 2.0)), "x := 1.0 ; x := 2.0 ; x' = 1.0 for 1.0")),
    "literal only": ("x := 1 ;", ((("x", 1.0),), "x := 1.0")),
    "literal without ';' only": ("x := 1", ((("x", 1.0),), "x := 1.0")),
    "listing in a loop body": (
        "x := 1 ; while tt do { x := {1} }",
        "unexpected token '{' in expression at 1:29 "
        "(expected a number, a variable, '(')"),
    "empty listing": (
        "x := {} ; x' = 1 for 1", "expected a numeric literal at 1:7 (expected a number)"),
    "listing out of range": (
        "x := {1e999} ; x' = 1 for 1", "numeric literal out of range at 1:7"),
    # a declaration's ';' is optional, and a declaration without it ends the
    # declaration section
    "literal without ';'": (
        "x := 1 x' = 1 for 1", ((("x", 1.0),), "x := 1.0 ; x' = 1.0 for 1.0")),
    "listing without ';'": (
        "x := {1,2} x' = 1 for 1", ((("x", (1.0, 2.0)),), "x' = 1.0 for 1.0")),
    "literal without ';', then a literal": (
        "x := 1 y := 2 ; x' = y for 1",
        ((("x", 1.0),), "x := 1.0 ; y := 2.0 ; x' = y for 1.0")),
    "listing without ';', then a listing": (
        "x := {1} y := {2} x' = 1 for 1",
        "unexpected token '{' in expression at 1:15 "
        "(expected a number, a variable, '(')"),
    "literal without ';', then '}'": (
        "x := 1 }", "unexpected token '}' at statement start at 1:8 "
        "(expected a variable, 'if', 'while')"),
}


@pytest.mark.parametrize("text, expected", DECLARATION_SECTION.values(),
                         ids=DECLARATION_SECTION.keys())
def test_declaration_section(text, expected):
    if isinstance(expected, str):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == expected
        return
    unit = parse(text)
    declared = tuple((d.var, d.values if isinstance(d, VarList) else d.expr.value)
                     for d in unit.declarations)
    assert (declared, pretty(unit.body)) == expected


# -- desugaring

def test_desugar_neq():
    b = desugar_bool(parse_boolean("x != 0"))
    assert b == Not(And(Leq(Var("x"), Const(0.0)), Leq(Const(0.0), Var("x"))))


def test_desugar_gt():
    assert desugar_bool(parse_boolean("x > 1")) == Not(Leq(Var("x"), Const(1.0)))


def test_desugar_lt_geq_eq():
    assert desugar_bool(parse_boolean("x < 1")) == Not(Leq(Const(1.0), Var("x")))
    assert desugar_bool(parse_boolean("x >= 1")) == Leq(Const(1.0), Var("x"))
    assert desugar_bool(parse_boolean("x == 1")) == And(
        Leq(Var("x"), Const(1.0)), Leq(Const(1.0), Var("x")))


def test_desugar_unary_minus():
    e = desugar_expr(Apply("-", (Var("x"),)))
    assert e == Apply("-", (Const(0.0), Var("x")))
    assert desugar_expr(Apply("-", (Const(2.0),))) == Const(-2.0)


def test_desugar_idempotent_on_generated_programs():
    from hybridsim.syntax import desugar_program
    for seed in range(50):
        program, _ = randprog.gen_program(seed)
        once = desugar_program(program)
        assert desugar_program(once) == once


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_pretty_parse_round_trip(seed):
    program, _ = randprog.gen_program(seed)
    assert parse_program(pretty(program)) == program


def test_pretty_examples():
    p = parse_program("x := 1 ; y := 2")
    assert pretty(p) == "x := 1.0 ; y := 2.0"
    q = parse_program("if tt then x := 1 else y := 2")
    assert pretty(q) == "if tt then { x := 1.0 } else { y := 2.0 }"


def test_pretty_unit_round_trip():
    text = "x := {1, 2} ;\ny := 3 ;\nx' = -1 for y"
    u = parse(text)
    again = parse(pretty_unit(u))
    assert again.declarations == u.declarations
    assert again.body == u.body


def test_desugar_unit_idempotent():
    u = parse("x := 0 ; while x != 3 do { x := x + 1 ; x' = -x + 4 for 0.5 }")
    assert desugar(desugar(u)) == desugar(u)


def test_ordered_vars_first_occurrence():
    u = parse("b := 1 ; a := b ; a' = c, c' = a for 1")
    assert ordered_vars(u) == ["b", "a", "c"]
    # a differential statement's variables interleave with its right-hand sides'
    u = parse("x' = z, y' = w for v ; if u <= 1 then t := 1 else s := 2")
    assert ordered_vars(u) == ["x", "z", "y", "w", "v", "u", "t", "s"]


def test_while_body_braces_and_trailing_semicolon():
    p = parse_program("while x <= 2 do { x := x + 1 ; }")
    assert isinstance(p, While)


# each form nests n levels; a condition sits inside an `if`, which is a
# level of its own
NESTING = {
    "parentheses": lambda n: "x := " + "(" * n + "1" + ")" * n,
    "call": lambda n: "x := " + "sqrt(" * n + "1" + ")" * n,
    "minus": lambda n: "x := " + "-" * n + "y",
    "not": lambda n: "if " + "!" * (n - 1) + "tt then x := 1 else x := 2",
    "condition-parentheses":
        lambda n: "if " + "(" * (n - 1) + "tt" + ")" * (n - 1) + " then x := 1 else x := 2",
    "operand-parentheses":
        lambda n: "if " + "(" * (n - 1) + "y" + ")" * (n - 1) + " <= 1 then x := 1 else x := 2",
    "while": lambda n: "while y <= 0 do { " * n + "x := 1" + " }" * n,
    "if-braced": lambda n: "if tt then { " * n + "x := 1" + " } else { x := 2 }" * n,
    "if-bare": lambda n: "if tt then " * n + "x := 1" + " else x := 2" * n,
    "mixed": lambda n: _mixed(n // 2, n // 4, n - n // 2 - n // 4),
}


def _mixed(loops, minus, parens):
    return ("while tt do { " * loops + "x := " + "-" * minus + "(" * parens + "1"
            + ")" * parens + " }" * loops)


@pytest.mark.parametrize("form", NESTING.values(), ids=NESTING.keys())
def test_nesting_up_to_the_limit_parses(form):
    # desugar and pretty walk an explicit stack; the parser that built the
    # tree is what recurses, and the limit keeps it within Python's
    unit = desugar(parse(form(MAX_NESTING)))
    assert pretty(unit.body)


@pytest.mark.parametrize("form", NESTING.values(), ids=NESTING.keys())
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_nesting_beyond_the_limit_is_a_parse_error(form, depth):
    with pytest.raises(ParseError) as exc:
        parse(form(depth))
    assert exc.value.message == f"nesting deeper than {MAX_NESTING} levels"


def test_nesting_limit_survives_backtracking():
    # a parenthesised operand is first tried as a condition and rewound;
    # the rewind must not leave levels counted
    ok = "if " + "(y) <= 1 && " * (2 * MAX_NESTING) + "tt then x := 1 else x := 2"
    assert isinstance(parse(ok).body, If)


@pytest.mark.parametrize("text", [
    "x := 0 ; if " + "!" * 99 + "tt then x := 1 else x := 2",
    "x := " + "-" * 99 + "y",
])
def test_prefix_chains_pretty_print_to_parseable_text(text):
    # one parenthesis level per prefix would push the printed text past
    # MAX_NESTING; prefixes print bare
    for body in (parse_program(text), desugar(parse(text)).body):
        assert parse_program(pretty(body)) == body


def test_prefix_operand_keeps_parentheses_only_when_binary():
    assert pretty(parse_program("x := -(a+b)")) == "x := -(a + b)"
    assert pretty(parse_program("x := -(a*b)")) == "x := -(a * b)"
    assert pretty(parse_program("x := -a * b")) == "x := -a * b"
    assert pretty(parse_program("x := --sqrt(y)")) == "x := --sqrt(y)"
    cond = "if !(a <= 1 && tt) || !!ff then x := 1 else x := 2"
    assert pretty(parse_program(cond)).startswith("if !(a <= 1.0 && tt) || !!ff then")
    for text in ("x := -(a+b)", "x := -a * b", cond):
        assert parse_program(pretty(parse_program(text))) == parse_program(text)


def test_long_chain_holds_its_text_once():
    # each node of the chain holds a span into the one parsed text, so the
    # tree grows linearly with the chain
    text = "x := 0 ;\nx' = x" + "+1" * 10_000 + " for 1\n"
    tracemalloc.start()
    try:
        unit = parse(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(unit.body, Seq)
    assert held < 16e6


# -- the front end, pinned input by input

GOLDEN_PARSE = Path(__file__).parent / "golden" / "parse.json"
ENTRIES = {"parse": parse, "parse_program": parse_program,
           "parse_expression": parse_expression, "parse_boolean": parse_boolean}
# what goes between words: whitespace of every kind and comments; in soups,
# also a comment that ends the line, or nothing
SPACES = (" ", " ", "  ", "\t", "\n", "\r\n", " // note\n")
SEPARATORS = SPACES + ("// end", "")
# characters of the vocabulary, and characters no token holds (one of them a
# digit that is not ASCII)
SOUP = "x1.5e+-*/(){},;:=<>!&|' \t\r\n@\u00e9\u0663_"
# declaration sections and surface forms that randprog, which writes core
# programs, never makes
DECLARATIONS = ("", "", "", "x := {1, -2.5, 3e2} ;\n", "y := 0.5 ; w := {-1} ;",
                "y := 2 ", "z := {1e999} ;", "x := {1} ; x := {2} ;", "pi := {1} ;",
                "x := {} ;")
SURFACE = ("x > 1", "!(y == 2)", "x != -w", "x >= (1)", "sqrt(1, 2)", "min(x)",
           "pow(x, 2)", "-(x + y)", "euler", "1e999", "tt && ff", ",", "x' = 1")


def _golden_inputs() -> list:
    """(entry point, text) pairs: the corpus, token and character soups, and
    random programs printed with random whitespace, comments, declaration
    sections and stray tokens."""
    rng = random.Random(15)
    corpus = sorted(corpus_path("eq1").parent.glob("*.lince"))
    inputs = [("parse", path.read_text(encoding="utf-8")) for path in corpus]
    for form in SURFACE:
        inputs += [("parse", f"x := 1 ; y := {form}"),
                   ("parse", f"if {form} then x := 1 else {{ x := 2 }}")]
    for _ in range(150):
        words = rng.choices(TOKENS, k=rng.randrange(1, 25))
        text = "".join(w + rng.choice(SEPARATORS) for w in words)
        inputs.append((rng.choice(list(ENTRIES)), text))
    for _ in range(100):
        inputs.append(("parse", "".join(rng.choices(SOUP, k=rng.randrange(1, 30)))))
    for seed in range(150):
        program, _ = randprog.gen_program(seed, depth=3)
        words = pretty(program).split(" ")
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            words[rng.randrange(len(words))] = rng.choice(TOKENS + list(SURFACE))
        text = "".join(w + rng.choice(SPACES) for w in words)
        inputs.append(("parse", rng.choice(DECLARATIONS) + text))
    return inputs


def _golden_record(entry: str, text: str) -> dict:
    """The ParseError's type, message, line, col, pos and expected; or the
    printed tree and every node's type and span."""
    try:
        tree = ENTRIES[entry](text)
    except ParseError as e:
        return {"entry": entry, "text": text, "error": [
            type(e).__name__, e.message, e.line, e.col, e.pos, list(e.expected)]}
    if entry == "parse":
        shown, roots = pretty_unit(tree), (tree.body, *tree.declarations)
    else:
        shown, roots = pretty(tree), (tree,)
    located = []
    for node in (n for root in roots for n in nodes(root)):
        if type(node) is tuple:  # a differential statement's pair has no span
            located.append(["pair"])
            continue
        loc = node.loc
        assert loc.text is text
        located.append([type(node).__name__, loc.line, loc.col, loc.start, loc.end])
    return {"entry": entry, "text": text, "pretty": shown, "nodes": located}


def test_front_end_matches_its_golden():
    """Every input parses to the same tree with the same spans, or fails
    with the same error, as when `tests/golden/parse.json` was written by
    `_golden_record` over `_golden_inputs()`."""
    golden = json.loads(GOLDEN_PARSE.read_text(encoding="utf-8"))
    inputs = _golden_inputs()
    assert len(golden) == len(inputs)
    for want, (entry, text) in zip(golden, inputs):
        assert _golden_record(entry, text) == want
