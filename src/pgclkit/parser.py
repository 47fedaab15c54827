"""Tokeniser and recursive-descent parser for program text.

Program text may open with a header of domain declarations:

    var c1 in {H, T}
    var p in {0, 1/8, 1/4, 3/8, 1/2, 5/8, 3/4, 7/8, 1}

followed by the program itself.  A domain value is a token, or an integer
or decimal with an optional `/den` and an optional leading `-`; spaces
and tabs may separate any two parts, and newlines too inside the braces.
parse_source requires the header and builds the state space from it;
parse_program reads against a given space and accepts a header only if
it declares exactly that space.  Both read through ProgramText, which
tokenizes a text and reads its header once, and can then parse the
program with several sets of parameters.

The parser builds core statements only: `:in`, `:dist`, a numeric IF and
`{pred}` become the choices and conditionals they stand for (see
programs), as `x, y := e1, e2` becomes a sequence of assignments.

Newlines and semicolons both sequence statements.  Rational literals may
be written a/b or as exact decimals (0.25 means 1/4, converted without
rounding).  `#` starts a comment.

Named parameters can be substituted at parse time: occurrences of the
parameter name become rational literals before any semantic analysis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import DistError, PgclError, PgclSyntaxError
from .exprs import (
    And,
    BinOp,
    BoolLit,
    Bracket,
    Cmp,
    Expr,
    Lit,
    Neg,
    Not,
    Or,
    TokenLit,
    Var,
    eval_expr,
    free_vars,
    static_kind,
)
from .programs import (
    Abort,
    Assign,
    DemonChoice,
    GuardedIf,
    IfBool,
    ProbChoice,
    Program,
    Seq,
    Skip,
    SuchThat,
    While,
)
from .states import StateSpace, VarDomain

KEYWORDS = {
    "SKIP", "ABORT", "IF", "THEN", "ELSE", "FI", "WHILE", "DO", "OD",
    "var", "in", "true", "false",
}

# longest first, so `:=` is not read as `:` then `=`; `:in` also needs no
# letter or digit after it, or `:index` would read as `:in` then `dex`
_OPERATORS = (
    ":suchthat", ":dist", ":in", "|^|", ":=", "[]", "->", "<=", ">=", "!=",
    *";,(){}[]<>=!&|+-*/:",
)
# the operators a character can start, so a scan reads only those; each
# group ends with the character itself, so the scan always finds one
_OPERATORS_AT = {op[0]: tuple(o for o in _OPERATORS if o[0] == op[0])
                 for op in _OPERATORS}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r})"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    depth = 0  # newlines inside (), [], {} do not separate statements
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if depth == 0 and tokens and tokens[-1].kind != "NEWLINE":
                tokens.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            tokens.append(Token("NUMBER", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        if ch in _OPERATORS_AT:
            for op in _OPERATORS_AT[ch]:
                if source.startswith(op, i) and not (
                    op == ":in" and source[i + 3 : i + 4].isalnum()
                ):
                    break
            if op in ("(", "[", "{"):
                depth += 1
            elif op in (")", "]", "}"):
                depth = max(0, depth - 1)
            tokens.append(Token(op, op, line, col))
            i += len(op)
            col += len(op)
            continue
        raise PgclSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


_STMT_START = {"SKIP", "ABORT", "IF", "WHILE", "IDENT", "{", "("}


class _Parser:
    def __init__(self, tokens: list[Token], space: Optional[StateSpace],
                 params: Optional[dict[str, Fraction]] = None):
        self.tokens = tokens
        self.pos = 0
        self.space = space  # None until parse_header reads it
        self.params = dict(params or {})

    # --- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]  # next() never moves past the EOF

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.peek()
        if tok.kind != kind:
            wanted = what or f"'{kind}'"
            raise PgclSyntaxError(
                f"expected {wanted}, found {tok.text!r}", tok.line, tok.col
            )
        return self.next()

    def fail(self, message: str) -> PgclSyntaxError:
        tok = self.peek()
        return PgclSyntaxError(message, tok.line, tok.col)

    def skip_separators(self):
        while self.peek().kind in (";", "NEWLINE"):
            self.next()

    # --- declarations and files ---------------------------------------------

    def parse_header(self) -> None:
        """A `var` header.  With no space yet it declares it; with one, it
        may be left out, and if present must declare exactly that space."""
        start = self.peek()
        domains = self.parse_declarations()
        if self.space is None:
            if not domains:
                raise self.fail("expected `var` declarations")
            self.space = StateSpace(domains)
        elif domains and StateSpace(domains) != self.space:
            raise PgclSyntaxError(
                "the `var` header declares a different state space than the "
                "one given", start.line, start.col,
            )

    def parse_declarations(self) -> list[VarDomain]:
        """`var NAME in {v, ...}` lines, as many as there are (maybe none)."""
        domains = []
        while self.accept("var"):
            name = self.expect("IDENT", "a variable name after 'var'").text
            self.expect("in")
            self.expect("{")
            values = [self.parse_domain_value()]
            while self.accept(","):
                values.append(self.parse_domain_value())
            self.expect("}", "',' or '}'")
            domains.append(VarDomain(name, tuple(values)))
            self.accept("NEWLINE")
        return domains

    def parse_domain_value(self):
        """A token, or a number with an optional `/den` and leading `-`."""
        negate = self.accept("-")
        tok = self.next()
        if tok.kind == "IDENT" and not negate:
            return tok.text
        if tok.kind != "NUMBER":
            raise PgclSyntaxError(f"bad domain value {tok.text!r}", tok.line, tok.col)
        value = Fraction(tok.text)
        if self.accept("/"):
            den = self.expect("NUMBER", "a denominator")
            if Fraction(den.text) == 0:
                raise PgclSyntaxError("zero denominator", den.line, den.col)
            value /= Fraction(den.text)
        return -value if negate else value

    # --- programs -----------------------------------------------------

    def parse_seq(self) -> Program:
        """Statements and the separators around them, leading and trailing."""
        self.skip_separators()
        prog = self.parse_choice()
        while self.peek().kind in (";", "NEWLINE"):
            self.skip_separators()
            if self.peek().kind not in _STMT_START:
                break
            prog = Seq(prog, self.parse_choice())
        return prog

    def parse_choice(self) -> Program:
        prog = self.parse_unit()
        while True:
            if self.accept("|^|"):
                prog = DemonChoice(prog, self.parse_unit())
            elif self.accept("<"):
                prob = self.parse_arith()
                self.expect(">", "'>' closing the probability")
                prog = ProbChoice(prog, prob, self.parse_unit())
            else:
                return prog

    def parse_unit(self) -> Program:
        tok = self.peek()
        if tok.kind == "SKIP":
            self.next()
            return Skip()
        if tok.kind == "ABORT":
            self.next()
            return Abort()
        if tok.kind == "(":
            self.next()
            prog = self.parse_seq()
            self.expect(")")
            return prog
        if tok.kind == "{":
            self.next()
            pred = self.parse_expr()
            self.expect("}")
            return IfBool(self._as_bool(pred, tok), Skip(), Abort())
        if tok.kind == "WHILE":
            self.next()
            guard = self.parse_expr()
            if static_kind(guard, self.space) not in ("bool", "num"):
                raise PgclSyntaxError(
                    "WHILE condition must be boolean or numeric", tok.line, tok.col
                )
            self.expect("DO")
            body = self.parse_seq()
            self.expect("OD")
            return While(guard, body)
        if tok.kind == "IF":
            self.next()
            return self.parse_if(tok)
        if tok.kind == "IDENT":
            return self.parse_ident_stmt()
        raise self.fail(f"expected a statement, found {tok.text!r}")

    def parse_if(self, opening: Token) -> Program:
        cond = self.parse_expr()
        if self.peek().kind == "->":
            branches = []
            while True:
                self.expect("->")
                body = self.parse_seq()
                branches.append((self._as_bool(cond, opening), body))
                self.skip_separators()
                if self.accept("[]"):
                    cond = self.parse_expr()
                    continue
                self.expect("FI")
                return GuardedIf(tuple(branches))
        self.expect("THEN", "'THEN' or '->' after the IF condition")
        then = self.parse_choice()
        self.expect("ELSE")
        orelse = self.parse_choice()
        kind = static_kind(cond, self.space)
        if kind == "bool":
            return IfBool(cond, then, orelse)
        if kind == "num":
            return ProbChoice(then, cond, orelse)
        raise PgclSyntaxError(
            "IF condition must be boolean or numeric", opening.line, opening.col
        )

    def parse_ident_stmt(self) -> Program:
        names = [self._declared_name()]
        while self.accept(","):
            names.append(self._declared_name())
        op = self.peek()
        if op.kind == ":suchthat":
            self.next()
            pred = self.parse_expr()
            return SuchThat(tuple(names), self._as_bool(pred, op))
        if op.kind == ":=":
            self.next()
            exprs = [self.parse_arith()]
            while self.accept(","):
                exprs.append(self.parse_arith())
            if len(exprs) != len(names):
                raise PgclSyntaxError(
                    f"{len(names)} variables but {len(exprs)} expressions",
                    op.line, op.col,
                )
            # simultaneous assignment unrolls left to right, which is only
            # sound when later expressions do not read earlier targets
            for k, e in enumerate(exprs):
                if free_vars(e) & set(names[:k]):
                    raise PgclSyntaxError(
                        "simultaneous assignment where a later expression reads "
                        "an earlier target is not supported",
                        op.line, op.col,
                    )
            prog: Program = Assign(names[0], exprs[0])
            for name, e in zip(names[1:], exprs[1:]):
                prog = Seq(prog, Assign(name, e))
            return prog
        if len(names) != 1:
            raise PgclSyntaxError(
                "only := and :suchthat take several variables", op.line, op.col
            )
        name = names[0]
        if op.kind == ":in":
            self.next()
            if self.accept("{"):
                prog = Assign(name, self.parse_arith())
                while self.accept(","):
                    prog = DemonChoice(prog, Assign(name, self.parse_arith()))
                self.expect("}")
                return prog
            left = Assign(name, self.parse_arith())
            if self.accept("|^|"):
                return DemonChoice(left, Assign(name, self.parse_arith()))
            self.expect("<", "'<p>' or '|^|' in the choice assignment")
            prob = self.parse_arith()
            self.expect(">")
            return ProbChoice(left, prob, Assign(name, self.parse_arith()))
        if op.kind == ":dist":
            self.next()
            self.expect("[")
            items = []
            while True:
                e = self.parse_arith()
                self.expect(":", "':' between value and probability")
                p = self.parse_arith()
                items.append((e, self._const_prob(p, op)))
                if not self.accept(","):
                    break
            self.expect("]")
            return _dist_choice(name, items)
        raise self.fail(f"expected an assignment operator, found {op.text!r}")

    def _declared_name(self) -> str:
        tok = self.expect("IDENT", "a variable name")
        if tok.text in self.params:
            raise PgclSyntaxError(
                f"{tok.text} is a parameter, not an assignable variable",
                tok.line, tok.col,
            )
        if not self.space.has_var(tok.text):
            raise PgclSyntaxError(f"undeclared variable {tok.text}", tok.line, tok.col)
        return tok.text

    def _as_bool(self, e: Expr, tok: Token) -> Expr:
        if static_kind(e, self.space) != "bool":
            raise PgclSyntaxError("expected a boolean expression", tok.line, tok.col)
        return e

    def _const_prob(self, e: Expr, tok: Token) -> Fraction:
        if free_vars(e):
            raise PgclSyntaxError(
                "distribution probabilities must be constants", tok.line, tok.col
            )
        if isinstance(e, Lit):
            return e.value
        try:
            value = eval_expr(e, self.space.state_at(0))  # constant, any state works
        except PgclError as exc:
            raise PgclSyntaxError(f"bad probability: {exc}", tok.line, tok.col)
        if not isinstance(value, Fraction):
            raise PgclSyntaxError("probability must be numeric", tok.line, tok.col)
        return value

    # --- expressions ----------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        e = self.parse_and()
        while self.accept("|"):
            e = Or(e, self.parse_and())
        return e

    def parse_and(self) -> Expr:
        e = self.parse_not()
        while self.accept("&"):
            e = And(e, self.parse_not())
        return e

    def parse_not(self) -> Expr:
        if self.accept("!"):
            return Not(self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self) -> Expr:
        e = self.parse_arith()
        kind = self.peek().kind
        if kind in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return Cmp(kind, e, self.parse_arith())
        return e

    def parse_arith(self) -> Expr:
        e = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            e = BinOp(op, e, self.parse_term())
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            at = self.peek()
            right = self.parse_factor()
            if op == "/" and isinstance(e, Lit) and isinstance(right, Lit):
                if right.value == 0:
                    raise PgclSyntaxError("division by zero in literal", at.line, at.col)
                e = Lit(e.value / right.value)  # fold so 1/2 is one literal
            else:
                e = BinOp(op, e, right)
        return e

    def parse_factor(self) -> Expr:
        if self.accept("-"):
            inner = self.parse_factor()
            if isinstance(inner, Lit):
                return Lit(-inner.value)
            return Neg(inner)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            return Lit(Fraction(tok.text))
        if tok.kind == "true":
            self.next()
            return BoolLit(True)
        if tok.kind == "false":
            self.next()
            return BoolLit(False)
        if tok.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if tok.kind == "[":
            self.next()
            inner = self.parse_expr()
            self.expect("]")
            return Bracket(self._as_bool(inner, tok))
        if tok.kind == "IDENT":
            self.next()
            name = tok.text
            if name in self.params:
                return Lit(self.params[name])
            if self.space.has_var(name):
                return Var(name)
            if name in self.space.tokens():
                return TokenLit(name)
            raise PgclSyntaxError(f"undeclared variable {name}", tok.line, tok.col)
        raise self.fail(f"expected an expression, found {tok.text!r}")


def _dist_choice(name: str, items: list) -> Program:
    """`x :dist [e1: p1, ..., ek: pk]` as the binary choices it stands for,
    x := e1 <p1> (x := e2 <p2/(1-p1)> (... x := ek)), items of
    probability 0 left out."""
    if any(p < 0 for _, p in items):
        raise DistError("negative probability in distribution")
    total = sum(p for _, p in items)
    if total != 1:
        raise DistError(f"distribution probabilities sum to {total}, not 1")
    items = [(e, p) for e, p in items if p]
    prog: Program = Assign(name, items[-1][0])
    rest = items[-1][1]
    for e, p in reversed(items[:-1]):
        rest += p
        prog = ProbChoice(Assign(name, e), Lit(p / rest), prog)
    return prog


# --- public entry points ---------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'a/b', an integer, or a decimal string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PgclSyntaxError(f"bad rational {text!r}: {exc}", 1, 1) from None


class ProgramText:
    """Program text, tokenized and its `var` header read once (with no
    space given the header declares it; with one it may be left out, and
    if present must declare exactly that space), then parsed with each
    set of parameters asked for: a parameter becomes a literal, and a
    `:dist` is checked with its values."""

    def __init__(self, text: str, space: Optional[StateSpace] = None):
        parser = _Parser(tokenize(text), space)
        parser.parse_header()
        self.space = parser.space
        self._tokens, self._start = parser.tokens, parser.pos

    def program(self, params: Optional[dict[str, Fraction]] = None) -> Program:
        """The program after the header, up to the end of input."""
        parser = _Parser(self._tokens, self.space, params)
        parser.pos = self._start
        prog = parser.parse_seq()
        parser.expect("EOF", "end of input")
        return prog


def parse_program(text: str, space: StateSpace,
                  params: Optional[dict[str, Fraction]] = None) -> Program:
    """Parse program text against a previously built state space.  The
    text may open with a `var` header only if it declares that space."""
    return ProgramText(text, space).program(params)


def parse_expression(text: str, space: StateSpace,
                     params: Optional[dict[str, Fraction]] = None) -> Expr:
    parser = _Parser(tokenize(text), space, params)
    while parser.accept("NEWLINE"):
        pass
    e = parser.parse_expr()
    while parser.accept("NEWLINE"):
        pass
    parser.expect("EOF", "end of expression")
    return e


def parse_source(text: str,
                 params: Optional[dict[str, Fraction]] = None
                 ) -> tuple[StateSpace, Program]:
    """Parse a full source file: `var` declarations, then the program."""
    source = ProgramText(text)
    return source.space, source.program(params)
