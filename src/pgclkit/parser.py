"""Tokeniser and recursive-descent parser for program text.

Source files may open with domain declarations, one per line:

    var c1 in {H, T}
    var p in {0, 1/8, 1/4, 3/8, 1/2, 5/8, 3/4, 7/8, 1}

followed by the program itself.  Newlines and semicolons both sequence
statements.  Rational literals may be written a/b or as exact decimals
(0.25 means 1/4, converted without rounding).  `#` starts a comment.

Named parameters can be substituted at parse time: occurrences of the
parameter name become rational literals before any semantic analysis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import PgclError, PgclSyntaxError
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
    Assert,
    Assign,
    ChooseFromDist,
    ChooseFromSet,
    DemonAssign,
    DemonChoice,
    DistExpr,
    GuardedIf,
    IfBool,
    IfProb,
    ProbAssign,
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

_TWO_CHAR = (":=", "[]", "->", "<=", ">=", "!=", "|^|")
_ONE_CHAR = ";,(){}[]<>=!&|+-*/:"


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
        if source.startswith(":suchthat", i):
            tokens.append(Token(":suchthat", ":suchthat", line, col))
            i += 9
            col += 9
            continue
        if source.startswith(":dist", i):
            tokens.append(Token(":dist", ":dist", line, col))
            i += 5
            col += 5
            continue
        if source.startswith(":in", i) and not source[i + 3 : i + 4].isalnum():
            tokens.append(Token(":in", ":in", line, col))
            i += 3
            col += 3
            continue
        two = source[i : i + 3] if source.startswith("|^|", i) else source[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token(two, two, line, col))
            i += len(two)
            col += len(two)
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
        if ch in _ONE_CHAR:
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth = max(0, depth - 1)
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise PgclSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


_STMT_START = {"SKIP", "ABORT", "IF", "WHILE", "IDENT", "{", "("}


class _Parser:
    def __init__(self, tokens: list[Token], space: StateSpace,
                 params: Optional[dict[str, Fraction]] = None):
        self.tokens = tokens
        self.pos = 0
        self.space = space
        self.params = dict(params or {})
        self.tokens_known = space.tokens()

    # --- token plumbing ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

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

    # --- programs -----------------------------------------------------

    def parse_program(self) -> Program:
        self.skip_separators()
        prog = self.parse_seq()
        self.skip_separators()
        return prog

    def parse_seq(self) -> Program:
        self.skip_separators()
        prog = self.parse_choice()
        while True:
            if self.peek().kind not in (";", "NEWLINE"):
                break
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
            elif self.peek().kind == "<":
                self.next()
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
            return Assert(self._as_bool(pred, tok))
        if tok.kind == "WHILE":
            self.next()
            guard = self.parse_expr()
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
            return IfProb(cond, then, orelse)
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
                choices = [self.parse_arith()]
                while self.accept(","):
                    choices.append(self.parse_arith())
                self.expect("}")
                return ChooseFromSet(name, tuple(choices))
            left = self.parse_arith()
            if self.accept("|^|"):
                return DemonAssign(name, left, self.parse_arith())
            self.expect("<", "'<p>' or '|^|' in the choice assignment")
            prob = self.parse_arith()
            self.expect(">")
            right = self.parse_arith()
            return ProbAssign(name, left, prob, right)
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
            return ChooseFromDist(name, DistExpr(tuple(items)))
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
            right = self.parse_factor()
            if op == "/" and isinstance(e, Lit) and isinstance(right, Lit):
                if right.value == 0:
                    tok = self.peek()
                    raise PgclSyntaxError("division by zero in literal", tok.line, tok.col)
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
            if name in self.tokens_known:
                return TokenLit(name)
            raise PgclSyntaxError(f"undeclared variable {name}", tok.line, tok.col)
        raise self.fail(f"expected an expression, found {tok.text!r}")


# --- public entry points ---------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'a/b', an integer, or a decimal string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PgclSyntaxError(f"bad rational {text!r}: {exc}", 1, 1) from None


def parse_program(text: str, space: StateSpace,
                  params: Optional[dict[str, Fraction]] = None) -> Program:
    """Parse program text against a previously built state space."""
    parser = _Parser(tokenize(text), space, params)
    prog = parser.parse_program()
    parser.expect("EOF", "end of input")
    return prog


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
    tokens = tokenize(text)
    pos = 0
    domains: list[VarDomain] = []

    def bump():
        nonlocal pos
        tok = tokens[pos]
        if tok.kind != "EOF":
            pos += 1
        return tok

    while True:
        while tokens[pos].kind == "NEWLINE":
            pos += 1
        if tokens[pos].kind != "var":
            break
        bump()
        name_tok = tokens[pos]
        if name_tok.kind != "IDENT":
            raise PgclSyntaxError("expected a variable name after 'var'",
                                  name_tok.line, name_tok.col)
        bump()
        in_tok = bump()
        if in_tok.kind != "in":
            raise PgclSyntaxError("expected 'in'", in_tok.line, in_tok.col)
        brace = bump()
        if brace.kind != "{":
            raise PgclSyntaxError("expected '{'", brace.line, brace.col)
        values = []
        while True:
            tok = bump()
            negate = False
            if tok.kind == "-":
                negate = True
                tok = bump()
            if tok.kind == "NUMBER":
                value = Fraction(tok.text)
                if tokens[pos].kind == "/":
                    bump()
                    den_tok = bump()
                    if den_tok.kind != "NUMBER":
                        raise PgclSyntaxError("expected a denominator",
                                              den_tok.line, den_tok.col)
                    den = Fraction(den_tok.text)
                    if den == 0:
                        raise PgclSyntaxError("zero denominator", den_tok.line, den_tok.col)
                    value = value / den
                values.append(-value if negate else value)
            elif tok.kind == "IDENT" and not negate:
                values.append(tok.text)
            else:
                raise PgclSyntaxError(f"bad domain value {tok.text!r}",
                                      tok.line, tok.col)
            sep = bump()
            if sep.kind == ",":
                continue
            if sep.kind == "}":
                break
            raise PgclSyntaxError("expected ',' or '}'", sep.line, sep.col)
        domains.append(VarDomain(name_tok.text, tuple(values)))

    space = StateSpace(domains)
    parser = _Parser(tokens, space, params)
    parser.pos = pos
    prog = parser.parse_program()
    parser.expect("EOF", "end of input")
    return space, prog
