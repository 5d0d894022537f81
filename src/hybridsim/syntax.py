"""Concrete syntax for hybrid programs.

Grammar accepted by the parser (statements are ';'-separated, `//` starts a
line comment)::

    unit    : (decl ';'?)* program
    decl    : IDENT ':=' NUMBER               (scalar initial value)
            | IDENT ':=' '{' NUMBER (',' NUMBER)* '}'   (variability listing)
    program : stmt (';' stmt)*
    stmt    : IDENT ':=' expr
            | IDENT '\\'' '=' expr (',' IDENT '\\'' '=' expr)* 'for' expr
            | 'if' bexpr 'then' block 'else' block
            | 'while' bexpr 'do' '{' program '}'
    block   : '{' program '}' | stmt
    bexpr   : band ('||' band)*
    band    : bnot ('&&' bnot)*
    bnot    : '!' bnot | batom
    batom   : 'tt' | 'ff' | '(' bexpr ')' | expr RELOP expr
    expr    : term (('+'|'-') term)*
    term    : unary (('*'|'/') unary)*
    unary   : '-' unary | primary
    primary : NUMBER | 'pi' | 'euler' | FUNC '(' expr (',' expr)* ')'
            | IDENT | '(' expr ')'

Nesting is limited to `MAX_NESTING` levels, counted across parentheses
(a function call's included), prefix `-` and `!`, and `if`/`while`
statements; deeper input raises `ParseError`.  Length is bounded by memory
alone: statement sequences and operator chains are parsed in loops, and
every pass over the tree (desugaring, pretty-printing, the variable
inventory, the linearizer's folds) is a `fold` or a filter over `nodes`,
which walk an explicit stack instead of recursing.

A node is a frozen value (`_Frozen`, which `semantics.Config` shares): its
class names its fields in `_fields`, and it is built from them by position,
a parsed node's span `loc` by keyword.  `==`, `hash`, `repr` (a dataclass's
text, `Var(name='x')`) and pickling all go through one pre-order walk on an
explicit stack, `_walk`, so they need no recursion either; a pickle or a
copy holds the tree flat, spans included, and never its compiled code or
linearizations.  `!=` negates `==`, and a tuple never equals a frozen
value, since a Config is a tuple underneath.

The tokenizer is one `finditer` scan that skips whitespace and `//`
comments without building tokens for them (comments are tried before
operators, or `//` would scan as two `/`), counts lines at each newline, and
raises `ParseError` at any character no token holds.

The parser gives every node a `Loc`: a span into the parsed text, which
all nodes of one parse share, so the text is held once however long an
operator chain grows.  A node's source text is sliced from its span only
when an error is reported (`errors.fail`).

Variability listings (`x := {1, 2, 3}`) are only legal in the leading
declaration section.  A declaration's `;` is optional, but a declaration
without one ends the section.  Scalar declarations stay in the program body
as well (re-running an initial assignment consumes no time), so
pretty-printing a program and re-parsing it reproduces the same tree.

Surface comparisons `<`, `>`, `>=`, `==`, `!=` and unary minus are rewritten
away by `desugar`; after it only `Leq`/`And`/`Or`/`Not`/`BTrue`/`BFalse`
remain on the boolean side.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from operator import add, attrgetter, is_, mul, sub, truediv

__all__ = [
    "Loc", "Expr", "Var", "Const", "Apply",
    "BoolExpr", "Leq", "Cmp", "And", "Or", "Not", "BTrue", "BFalse",
    "Atomic", "Assign", "Diff", "Program", "Atom", "Seq", "If", "While",
    "VarList", "SourceUnit", "ParseError", "ArityError",
    "parse", "parse_program", "parse_expression", "parse_boolean",
    "desugar", "desugar_program", "desugar_bool", "desugar_expr",
    "pretty", "pretty_unit",
    "children", "nodes", "fold",
    "ordered_vars", "expr_vars", "FUNCTIONS", "MAX_NESTING",
]

# function symbol -> (arity, operation); '-' is also unary, as negation,
# which the evaluator applies on its own.  An undefined operation raises
# ZeroDivisionError (a zero divisor), ValueError or OverflowError (outside
# the domain).
FUNCTIONS = {
    "+": (2, add), "-": (2, sub), "*": (2, mul), "/": (2, truediv),
    "sqrt": (1, math.sqrt), "exp": (1, math.exp), "ln": (1, math.log),
    "sin": (1, math.sin), "cos": (1, math.cos), "tan": (1, math.tan),
    "min": (2, min), "max": (2, max), "pow": (2, math.pow),
}
NAMED_FUNCS = tuple(name for name in FUNCTIONS if name.isidentifier())
KEYWORDS = ("if", "then", "else", "while", "do", "for", "tt", "ff")
CONSTANTS = {"pi": math.pi, "euler": math.e}
RESERVED = set(KEYWORDS) | set(NAMED_FUNCS) | set(CONSTANTS)
# deepest nesting the parser accepts; it keeps the recursive-descent parser
# well inside Python's recursion limit (the semantics and the evaluator
# loop over explicit stacks and need no limit)
MAX_NESTING = 100


@dataclass(frozen=True)
class Loc:
    """A span of the parsed text: it starts at `line`:`col` (offset `start`)
    and ends before offset `end`.  Every node parsed from one text shares
    that text, so a node's source is `text[start:end]`, sliced on demand."""

    line: int
    col: int
    start: int
    end: int
    text: str = field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# Abstract syntax


class _Frozen:
    """Immutable, and compared, shown and pickled by the fields `_fields`
    names, as a frozen dataclass is, through one walk on an explicit stack
    (`_walk`), so that a value of any depth needs no recursion."""

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        """Both sides in lockstep on an explicit stack, past every pair whose
        sides are one object, so that shared subtrees cost nothing.  A
        tuple is unequal outright: it would compare a tuple-based value
        (`semantics.Config`) item by item."""
        if type(other) is not type(self):
            return False if isinstance(other, tuple) else NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if isinstance(a, _Frozen):
                if type(b) is not type(a):
                    return False
                todo += [(getattr(a, f), getattr(b, f)) for f in a._fields]
            elif type(a) is tuple:
                if type(b) is not tuple or len(b) != len(a):
                    return False
                todo += zip(a, b)
            elif isinstance(b, _Frozen) or type(b) is tuple or not a == b:
                return False
        return True

    def __ne__(self, other):  # not a tuple base's item-by-item `!=`
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self):
        """The dataclass text: each open value keeps, last first, what is
        written before each of its parts, above what closes it."""
        out, frames, items = [], [], iter(_walk(self))
        for item in items:
            if frames:
                out.append(frames[-1].pop())
            if item is tuple or isinstance(item, type):  # a value opens
                labels = [""] * next(items) if item is tuple else [f"{f}=" for f in item._fields]
                out.append("(" if item is tuple else item.__qualname__ + "(")
                close = ",)" if labels == [""] else ")"
                frames.append([close, *[", " + s for s in labels[:0:-1]], *labels[:1]])
            else:
                out.append(repr(item))
            while frames and len(frames[-1]) == 1:
                out.append(frames.pop()[0])
        return "".join(out)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class _Node(_Frozen):
    """A syntax node, built from its fields in order; its span in the parsed
    text, if it was parsed, is passed by keyword and neither compared nor shown."""

    _code = None  # an evaluated expression's or condition's compiled code (`_eval`)

    def __init__(self, *values, loc: Loc | None = None):
        fields, put = self._fields, object.__setattr__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} field(s)")
        for i, name in enumerate(fields):
            put(self, name, values[i])
        put(self, "loc", loc)

    def __hash__(self):
        return hash(tuple(_walk(self)))

    def __reduce__(self):
        """The tree flat, with its spans, for `_rebuild`: pickles and copies
        never hold compiled code or a statement's linearizations."""
        return _rebuild, (_walk(self, spans=True),)


def _walk(root, spans: bool = False) -> list:
    """`root` flat, in pre-order: a frozen value as its type (and, with
    `spans`, its `loc`), then its fields; a tuple as `tuple`, its length,
    then its items; anything else as itself."""
    out, todo = [], [root]
    while todo:
        item = todo.pop()
        if isinstance(item, _Frozen):
            out += (type(item), item.loc) if spans else (type(item),)
            todo += [getattr(item, f) for f in reversed(item._fields)]
        elif type(item) is tuple:
            out += (tuple, len(item))
            todo += reversed(item)
        else:
            out.append(item)
    return out


def _rebuild(items: list):
    """The tree that `_walk(root, spans=True)` flattened, built bottom-up."""
    values = []
    for item in reversed(items):
        if item is tuple:
            item = tuple([values.pop() for _ in range(values.pop())])
        elif isinstance(item, type):
            loc = values.pop()
            item = item(*[values.pop() for _ in item._fields], loc=loc)
        values.append(item)
    return values[0]


class Var(_Node):
    _fields = ("name",)


class Const(_Node):
    _fields = ("value",)


class Apply(_Node):
    _fields = ("fn", "args")  # a function symbol and a tuple of Exprs


Expr = Var | Const | Apply


class Leq(_Node):
    _fields = ("lhs", "rhs")


class Cmp(_Node):
    """Surface comparison ('<', '>', '>=', '==', '!='); removed by desugar."""

    _fields = ("op", "lhs", "rhs")


class And(_Node):
    _fields = ("lhs", "rhs")


class Or(_Node):
    _fields = ("lhs", "rhs")


class Not(_Node):
    _fields = ("arg",)


class BTrue(_Node):
    """`tt`, the condition that always holds."""


class BFalse(_Node):
    """`ff`, the condition that never holds."""


BoolExpr = Leq | Cmp | And | Or | Not | BTrue | BFalse


class Assign(_Node):
    _fields = ("var", "expr")


class Diff(_Node):
    """Differential statement: pairs of (variable, right-hand side), run
    for the duration given by `duration` (evaluated once, at entry)."""

    _fields = ("pairs", "duration")  # pairs: tuple[(str, Expr), ...]

    @cached_property
    def frozen(self) -> tuple:
        """The variables the right-hand sides read but the statement does
        not bind, sorted: constants for its duration."""
        read = set().union(*(expr_vars(e) for _, e in self.pairs))
        return tuple(sorted(read - {x for x, _ in self.pairs}))

    @cached_property
    def _systems(self) -> dict:
        """`linearize.to_affine`'s memo: frozen values -> system."""
        return {}


Atomic = Assign | Diff


class Atom(_Node):
    _fields = ("atomic",)


class Seq(_Node):
    _fields = ("first", "rest")


class If(_Node):
    _fields = ("cond", "then", "orelse")


class While(_Node):
    _fields = ("cond", "body")


Program = Atom | Seq | If | While


class VarList(_Node):
    """Variability listing `x := {v1, v2, ...}` in the declaration section."""

    _fields = ("var", "values")  # values: tuple[float, ...]


@dataclass(frozen=True)
class SourceUnit:
    declarations: tuple  # tuple[Assign | VarList, ...]
    body: Program


# ---------------------------------------------------------------------------
# Tokenizer


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, pos: int,
                 expected: tuple = ()):
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at {line}:{col}{suffix}")
        self.message = message
        self.line = line
        self.col = col
        self.pos = pos
        self.expected = tuple(expected)


class ArityError(ParseError):
    pass


# whitespace and comments are unnamed: `tokenize` skips them
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]+
  | //[^\n]*
  | (?P<NEWLINE>\n)
  | (?P<NUMBER>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>:=|==|!=|<=|>=|\|\||&&|[+\-*/(){},;<>=!'])
  | (?P<BAD>.)
    """,
    re.VERBOSE,
)

Token = namedtuple("Token", "kind text line col pos")  # kind: NUMBER, IDENT, KEYWORD, OP, EOF


def tokenize(text: str) -> list:
    """The tokens of `text`, in one scan, then an EOF token."""
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        pos = m.start()
        if kind == "NEWLINE":
            line, line_start = line + 1, pos + 1
            continue
        s = m.group()
        if kind == "BAD":
            raise ParseError(f"unexpected character {s!r}", line, pos - line_start + 1, pos)
        if kind == "IDENT" and s in KEYWORDS:
            kind = "KEYWORD"
        toks.append(Token(kind, s, line, pos - line_start + 1, pos))
    toks.append(Token("EOF", "", line, len(text) - line_start + 1, len(text)))
    return toks


# ---------------------------------------------------------------------------
# Parser


def _binary(op: str, lhs: Expr, rhs: Expr, loc: Loc) -> Apply:
    return Apply(op, (lhs, rhs), loc=loc)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing

    # no read passes EOF: every rule advances past a token it has checked,
    # which EOF never is, and `unit` looks ahead only past an IDENT and ':='
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def advance(self) -> Token:
        self.pos += 1
        return self.toks[self.pos - 1]

    def at(self, text: str) -> bool:
        """Whether the next token is the operator or keyword `text`."""
        return self.toks[self.pos].text == text

    def eat(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"unexpected token {self.peek().text!r}", (repr(text),))
        return self.advance()

    def fail(self, message: str, expected: tuple = (), at: Token | None = None,
             error: type = ParseError):
        """Raise `error` at token `at` (the next one by default), shown at `''`."""
        t = at or self.peek()
        shown = t.text if t.kind != "EOF" else "end of input"
        raise error(message.replace("''", f"{shown!r}"), t.line, t.col, t.pos, expected)

    @contextmanager
    def nested(self):
        """One nesting level, entered at its opening token, which is blamed
        past `MAX_NESTING` levels; the level is left however the body ends."""
        self.depth += 1
        try:
            if self.depth > MAX_NESTING:
                self.fail(f"nesting deeper than {MAX_NESTING} levels")
            yield
        finally:
            self.depth -= 1

    def span(self, start: Token) -> Loc:
        """The span from token `start` to the end of the last token taken."""
        last = self.toks[self.pos - 1]
        return Loc(start.line, start.col, start.pos, last.pos + len(last.text), self.text)

    def listing(self, item) -> list:
        """`item (',' item)*`."""
        items = [item()]
        while self.at(","):
            self.advance()
            items.append(item())
        return items

    def chain(self, operand, ops: tuple, build):
        """A left-associative chain `operand (op operand)*`, parsed in a loop;
        `build(op, lhs, rhs, loc)` makes each link, spanning from the
        chain's start."""
        start = self.peek()
        node = operand()
        while self.peek().text in ops:
            op = self.advance().text
            node = build(op, node, operand(), self.span(start))
        return node

    # -- expressions

    def expression(self) -> Expr:
        return self.chain(self.term, ("+", "-"), _binary)

    def term(self) -> Expr:
        return self.chain(self.unary, ("*", "/"), _binary)

    def unary(self) -> Expr:
        if self.at("-"):
            with self.nested():
                start = self.advance()
                arg = self.unary()
            loc = self.span(start)
            if isinstance(arg, Const):
                return Const(-arg.value, loc=loc)
            return Apply("-", (arg,), loc=loc)
        return self.primary()

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "NUMBER":
            self.advance()
            value = float(t.text)
            if not math.isfinite(value):
                self.fail("numeric literal out of range", at=t)
            return Const(value, loc=self.span(t))
        if t.kind == "IDENT":
            if t.text in CONSTANTS:
                self.advance()
                return Const(CONSTANTS[t.text], loc=self.span(t))
            if t.text in NAMED_FUNCS:
                with self.nested():
                    self.advance()
                    self.eat("(")
                    args = self.listing(self.expression)
                    self.eat(")")
                want = FUNCTIONS[t.text][0]
                if len(args) != want:
                    self.fail(f"the function '{t.text}' expects {want} argument(s), "
                              f"got {len(args)}", at=t, error=ArityError)
                return Apply(t.text, tuple(args), loc=self.span(t))
            self.advance()
            return Var(t.text, loc=self.span(t))
        if self.at("("):
            with self.nested():
                self.advance()
                e = self.expression()
                self.eat(")")
            return e
        self.fail("unexpected token '' in expression",
                  ("a number", "a variable", "'('"))

    # -- boolean expressions

    def boolean(self) -> BoolExpr:
        return self.chain(self.b_and, ("||",), lambda op, lhs, rhs, loc: Or(lhs, rhs, loc=loc))

    def b_and(self) -> BoolExpr:
        return self.chain(self.b_not, ("&&",), lambda op, lhs, rhs, loc: And(lhs, rhs, loc=loc))

    def b_not(self) -> BoolExpr:
        if self.at("!"):
            with self.nested():
                start = self.advance()
                arg = self.b_not()
            return Not(arg, loc=self.span(start))
        return self.b_atom()

    def b_atom(self) -> BoolExpr:
        t = self.peek()
        if self.at("tt") or self.at("ff"):
            self.advance()
            return (BTrue if t.text == "tt" else BFalse)(loc=self.span(t))
        if self.at("("):
            # '(' may open a parenthesised boolean or an arithmetic operand;
            # try the boolean reading first and rewind on failure.
            saved = self.pos
            try:
                with self.nested():
                    self.advance()
                    b = self.boolean()
                    self.eat(")")
                return b
            except ParseError:
                self.pos = saved
        return self.comparison()

    def comparison(self) -> BoolExpr:
        start = self.peek()
        lhs = self.expression()
        t = self.peek()
        if t.text not in ("<=", "<", ">", ">=", "==", "!="):
            self.fail("unexpected token '' in condition",
                      ("'<='", "'<'", "'>'", "'>='", "'=='", "'!='"))
        self.advance()
        rhs = self.expression()
        loc = self.span(start)
        if t.text == "<=":
            return Leq(lhs, rhs, loc=loc)
        return Cmp(t.text, lhs, rhs, loc=loc)

    # -- statements

    def statement(self) -> Program:
        t = self.peek()
        if self.at("if"):
            with self.nested():
                self.advance()
                cond = self.boolean()
                self.eat("then")
                then = self.block()
                self.eat("else")
                orelse = self.block()
            return If(cond, then, orelse, loc=self.span(t))
        if self.at("while"):
            with self.nested():
                self.advance()
                cond = self.boolean()
                self.eat("do")
                self.eat("{")
                body = self.statements()
                self.eat("}")
            return While(cond, body, loc=self.span(t))
        if t.kind == "IDENT":
            if t.text in RESERVED:
                self.fail(f"reserved name {t.text!r} cannot start a statement")
            name = self.advance().text
            if self.at("'"):
                return self.differential(t, name)
            self.eat(":=")
            e = self.expression()
            loc = self.span(t)
            return Atom(Assign(name, e, loc=loc), loc=loc)
        self.fail("unexpected token '' at statement start",
                  ("a variable", "'if'", "'while'"))

    def differential(self, start: Token, first_var: str) -> Program:
        pairs = []
        seen = set()
        name = first_var
        while True:
            if name in seen:
                self.fail(f"variable {name!r} bound twice in a differential statement")
            seen.add(name)
            self.eat("'")
            self.eat("=")
            pairs.append((name, self.expression()))
            if not self.at(","):
                break
            self.advance()
            t = self.peek()
            if t.kind != "IDENT" or t.text in RESERVED:
                self.fail("expected a variable after ',' in differential statement",
                          ("a variable",))
            name = self.advance().text
        self.eat("for")
        duration = self.expression()
        loc = self.span(start)
        return Atom(Diff(tuple(pairs), duration, loc=loc), loc=loc)

    def block(self) -> Program:
        if self.at("{"):
            self.advance()
            p = self.statements()
            self.eat("}")
            return p
        return self.statement()

    def statements(self) -> Program:
        stmts = [self.statement()]
        while self.at(";"):
            self.advance()
            if self.at("}") or self.peek().kind == "EOF":
                break  # tolerate a trailing ';'
            stmts.append(self.statement())
        return _seq(stmts)

    # -- declarations and the whole unit

    def varlist(self) -> VarList:
        start = self.peek()
        name = self.advance().text
        self.eat(":=")
        self.eat("{")
        values = self.listing(self.number)
        self.eat("}")
        return VarList(name, tuple(values), loc=self.span(start))

    def number(self) -> float:
        neg = self.at("-")
        if neg:
            self.advance()
        if self.peek().kind != "NUMBER":
            self.fail("expected a numeric literal", ("a number",))
        v = self.primary().value  # a finite literal, as in an expression
        return -v if neg else v

    def unit(self) -> SourceUnit:
        """Declarations, then the program body, in one statement loop.  While
        declaring, a listing is a declaration, and so is a literal initial
        value, which stays in the body too (it costs no time to re-run); any
        other statement, or a declaration without ';', ends the section."""
        declarations, stmts, listed = [], [], set()
        declaring = True
        while self.peek().kind != "EOF":
            t = self.peek()
            if declaring and t.kind == "IDENT" and self.peek(1).text == ":=" \
                    and self.peek(2).text == "{":
                if t.text in RESERVED:
                    self.fail(f"reserved name {t.text!r} cannot be declared")
                vl = self.varlist()
                if vl.var in listed:
                    self.fail(f"variable {vl.var!r} has more than one variability listing",
                              at=t)
                listed.add(vl.var)
                declarations.append(vl)
            else:
                stmt = self.statement()
                stmts.append(stmt)
                declaring = declaring and type(stmt) is Atom \
                    and type(stmt.atomic) is Assign and type(stmt.atomic.expr) is Const
                if declaring:
                    declarations.append(stmt.atomic)
            if self.at(";"):
                self.advance()
                if not declaring and self.at("}"):
                    break  # tolerate a trailing ';'
            elif declaring:
                declaring = False
            else:
                break
        if not stmts:
            self.fail("program body is empty")
        return SourceUnit(tuple(declarations), _seq(stmts))


def _seq(stmts: list) -> Program:
    """The statements as a right-nested `Seq`; each link is located at its
    first statement."""
    p = stmts[-1]
    for s in reversed(stmts[:-1]):
        p = Seq(s, p, loc=s.loc)
    return p


def _whole(text: str, rule, what: str, expected: tuple = ()):
    """`rule` of a parser over `text`, which must consume all of it."""
    p = _Parser(text)
    tree = rule(p)
    if p.peek().kind != "EOF":
        p.fail(f"unexpected token '' after {what}", expected)
    return tree


_AFTER_PROGRAM = ("program end", ("';'", "end of input"))


def parse(text: str) -> SourceUnit:
    """Parse a full source unit (declarations followed by the program body)."""
    return _whole(text, _Parser.unit, *_AFTER_PROGRAM)


def parse_program(text: str) -> Program:
    """Parse `text` as a bare program, with no declaration extraction."""
    return _whole(text, _Parser.statements, *_AFTER_PROGRAM)


def parse_expression(text: str) -> Expr:
    return _whole(text, _Parser.expression, "expression")


def parse_boolean(text: str) -> BoolExpr:
    return _whole(text, _Parser.boolean, "condition")


# ---------------------------------------------------------------------------
# Traversal: every pass over the tree is a fold or a filter over these

# node type -> its children, left to right.  A differential statement's
# children are its (variable, right-hand side) pairs and then its duration;
# a pair's one child is its right-hand side.  Leaves are absent.
_CHILDREN = {
    **dict.fromkeys((Leq, Cmp, And, Or), attrgetter("lhs", "rhs")),
    Apply: attrgetter("args"),
    Not: lambda n: (n.arg,),
    Assign: lambda n: (n.expr,),
    Diff: lambda n: (*n.pairs, n.duration),
    tuple: lambda pair: (pair[1],),
    Atom: lambda n: (n.atomic,),
    Seq: attrgetter("first", "rest"),
    If: attrgetter("cond", "then", "orelse"),
    While: attrgetter("cond", "body"),
}


def children(node) -> tuple:
    """The children of a syntax node (or of a differential statement's
    (variable, right-hand side) pair), left to right."""
    return _CHILDREN.get(type(node), _leaf)(node)


def _leaf(node) -> tuple:
    return ()


def nodes(root):
    """Every node under `root`, `root` first, in pre-order (left to right)."""
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(reversed(children(node)))


def fold(root, combine):
    """Fold the tree under `root` bottom-up and return the root's value:
    `combine(node, values)` gets the values of the node's children, left to
    right.  Like `nodes`, it loops over an explicit stack, so a tree's size
    is bounded by memory, not by the recursion limit."""
    kids_of = _CHILDREN.get  # `children`, inlined in the hottest loop
    order = []  # (node, number of children): parents first, right to left
    todo = [root]
    while todo:
        node = todo.pop()
        kids = kids_of(type(node), _leaf)(node)
        order.append((node, len(kids)))
        todo += kids
    values = []
    for node, n in reversed(order):  # children first, left to right
        if n:
            values[-n:] = [combine(node, values[-n:])]
        else:
            values.append(combine(node, ()))
    return values[0]


# ---------------------------------------------------------------------------
# Desugaring


def _desugar(node, kids):
    """`node` in the core language, over its desugared children; itself when
    it is core and they came back unchanged, so its caches stay valid."""
    t = type(node)
    if t is Var or t is Const or t is BTrue or t is BFalse:
        return node
    if t is Apply and node.fn == "-" and len(kids) == 1:
        loc, arg = node.loc, kids[0]
        if type(arg) is Const:
            return Const(-arg.value, loc=loc)
        return Apply("-", (Const(0.0, loc=loc), arg), loc=loc)
    if t is not Cmp and all(map(is_, kids, children(node))):
        return node
    if t is tuple:
        return node[0], kids[0]
    loc = node.loc
    if t is Apply:
        return Apply(node.fn, tuple(kids), loc=loc)
    if t is Cmp:
        lhs, rhs = kids
        le, ge = Leq(lhs, rhs, loc=loc), Leq(rhs, lhs, loc=loc)
        if node.op == ">=":
            return ge
        if node.op in (">", "<"):
            return Not(le if node.op == ">" else ge, loc=loc)
        eq = And(le, ge, loc=loc)
        return eq if node.op == "==" else Not(eq, loc=loc)  # '!='
    if t is Assign:
        return Assign(node.var, kids[0], loc=loc)
    if t is Diff:
        return Diff(tuple(kids[:-1]), kids[-1], loc=loc)
    # the remaining forms take their children as their leading fields
    return t(*kids, loc=loc)


def desugar_program(node):
    """Rewrite surface comparisons and unary minus into the core language,
    in a program, a condition or an expression alike."""
    return fold(node, _desugar)


desugar_expr = desugar_bool = desugar_program


def desugar(unit: SourceUnit) -> SourceUnit:
    """Rewrite surface comparisons and unary minus into the core language."""
    return SourceUnit(unit.declarations, desugar_program(unit.body))


# ---------------------------------------------------------------------------
# Pretty-printing

# binding strength of each infix operator; atoms, calls and prefixes bind
# tightest (_TIGHT), so a prefix's operand is parenthesised only when infix
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_TIGHT = 3


def _fmt(value: float) -> str:
    return repr(float(value))


def _operand(kid: tuple, below: int) -> str:
    """A child's text, parenthesised when it binds weaker than `below`."""
    text, strength = kid
    return f"({text})" if strength < below else text


def _infix(op: str, prec: int, kids: list) -> tuple:
    # left-associative: an equally strong right operand keeps its parentheses
    lhs, rhs = kids
    return f"{_operand(lhs, prec)} {op} {_operand(rhs, prec + 1)}", prec


# the other forms, over their children's texts ({0}, {1}, ...) and the node
# itself (n)
_TEMPLATES = {
    Leq: "{0} <= {1}", Cmp: "{0} {n.op} {1}", BTrue: "tt", BFalse: "ff",
    Assign: "{n.var} := {0}", tuple: "{n[0]}' = {0}", Atom: "{0}",
    Seq: "{0} ; {1}", If: "if {0} then {{ {1} }} else {{ {2} }}",
    While: "while {0} do {{ {1} }}",
}


def _pretty(node, kids) -> tuple:
    """(text, binding strength) of `node`, given its children's."""
    t = type(node)
    if t is Var:
        return node.name, _TIGHT
    if t is Const:
        return _fmt(node.value), _TIGHT
    if t is Apply:
        fn = node.fn
        if len(kids) == 2 and fn in _PREC:
            return _infix(fn, _PREC[fn], kids)
        if len(kids) == 1 and fn == "-":
            return "-" + _operand(kids[0], _TIGHT), _TIGHT
        return f"{fn}({', '.join(text for text, _ in kids)})", _TIGHT
    if t is And:
        return _infix("&&", 2, kids)
    if t is Or:
        return _infix("||", 1, kids)
    if t is Not:
        return "!" + _operand(kids[0], _TIGHT), _TIGHT
    texts = [text for text, _ in kids]
    if t is Diff:
        return f"{', '.join(texts[:-1])} for {texts[-1]}", _TIGHT
    return _TEMPLATES[t].format(*texts, n=node), _TIGHT


def pretty(node) -> str:
    """Render a program, a statement, a condition or an expression;
    `parse_program(pretty(p)) == p` for canonical (right-nested) programs."""
    return fold(node, _pretty)[0]


def pretty_unit(unit: SourceUnit) -> str:
    """Render a unit: variability listings first, then the body (scalar
    declarations reappear through the body, where the parser keeps them)."""
    lines = []
    for d in unit.declarations:
        if isinstance(d, VarList):
            vals = ", ".join(_fmt(v) for v in d.values)
            lines.append(f"{d.var} := {{{vals}}}")
    lines.append(pretty(unit.body))
    return " ;\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Variable inventory


def expr_vars(node) -> set:
    """The names of the variables read under `node`."""
    return {n.name for n in nodes(node) if type(n) is Var}


def ordered_vars(unit: SourceUnit) -> list:
    """All variable names in first-occurrence order (declarations, then body)."""
    names = [d.var for d in unit.declarations]
    for node in nodes(unit.body):
        t = type(node)
        if t is Var:
            names.append(node.name)
        elif t is Assign:
            names.append(node.var)
        elif t is tuple:
            names.append(node[0])
    return list(dict.fromkeys(names))
