"""Concrete syntax: lexer, term parser, type parser.

One token stream serves both calculi and the type language. Input may
reuse binder names. Each definition is certified linear as written;
binder names matter only to printed text, so `parse` names its term,
`parse_defs` splices an earlier definition as written, and a caller
that prints names the whole program once with `freshen`.

References resolve during parsing. An untyped `@name` names an earlier
definition of its file, or else a stdlib catalog entry; a typed one,
`@Y[Nat]`, names a catalog entry at the type parsed between the
brackets.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable

from .stdlib import catalog_lookup, catalog_misuse
from .terms import (App, Iter, Lam, LetPair, Min, Rec, Suc, Term, Var,
                    Violation, check_linear, freshen, mk_tuple, numeral)
from .types import LinType, Lolli, NAT, Tensor, type_pretty


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class LinearityError(Exception):
    # the message names the first few violations; .violations has them all
    SHOWN = 3

    def __init__(self, violations: list[Violation]):
        msg = "; ".join(str(v) for v in violations[:self.SHOWN])
        if len(violations) > self.SHOWN:
            msg += f" (and {len(violations) - self.SHOWN} more)"
        super().__init__(msg)
        self.violations = violations


Token = namedtuple("Token", "kind text line col")  # str, str, int, int


# One alternative per token kind, named after it and tried in this order
# (most frequent first). A numeral is a run of decimal digits, exactly
# what int() reads. An identifier goes on with letters, digits, "_" and
# "'", and starts with a letter or "_": its class [^\W\d] also admits
# numeric characters such as "²", which lex rejects after the match.
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("space", r"[ \t\r\n]+"),
    ("ident", r"[^\W\dλ][\w']*"),
    ("lparen", r"\("),
    ("rparen", r"\)"),
    ("nat", r"\d+"),
    ("lambda", r"[\\λ]"),
    ("dot", r"\."),
    ("at", r"@"),
    ("langle", r"<"),
    ("rangle", r">"),
    ("comma", r","),
    ("eq", r"="),
    ("semi", r";"),
    ("lbracket", r"\["),
    ("rbracket", r"\]"),
    ("colon", r":"),
    ("star", r"[*⊗]"),
    ("comment", r"--[^\n]*"),
    ("lolli", r"-o|⊸"),
    ("arrow", r"->"),
    ("bad", r"."),
)), re.DOTALL)

# The largest numeral literal, in both languages. A numeral is a chain
# of S nodes, so a literal's value bounds the term every command builds
# from it; a longer run of digits is refused before int() reads it.
MAX_NAT = 100_000
_NAT_DIGITS = len(str(MAX_NAT))

_new_token = tuple.__new__  # Token(...) without namedtuple's Python-level __new__


def lex(src: str) -> list[Token]:
    out: list[Token] = []
    append = out.append
    line, start = 1, 0  # start: the index where the current line begins
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "space":
            text = m.group()
            k = text.count("\n")
            if k:
                line += k
                start = m.start() + text.rindex("\n") + 1
            continue
        if kind == "comment":
            continue
        text = m.group()
        col = m.start() - start + 1
        if kind == "ident":
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", line, col)
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        elif kind == "nat" and len(text) >= _NAT_DIGITS:
            text = text.lstrip("0") or "0"  # so int() reads a short run
            if len(text) > _NAT_DIGITS or int(text) > MAX_NAT:
                raise ParseError(f"numeral literal larger than {MAX_NAT}",
                                 line, col)
        append(_new_token(Token, (kind, text, line, col)))
    append(Token("eof", "", line, len(src) - start + 1))
    return out


_KEYWORDS = {"let", "in", "rec", "iter", "min", "S"}

# the call-shaped constructors: keyword -> (calculus, arity, class)
_CALLS = {"rec": ("lrec", 4, Rec), "iter": ("llcim", 3, Iter),
          "min": ("llcim", 3, Min)}

class TokenStream:
    """Cursor over a token list, shared by the term, type and PCF parsers."""

    def __init__(self, tokens: list[Token], resolve=None):
        self.toks = tokens
        self.pos = 0
        self.resolve = resolve

    def peek(self, ahead: int = 0) -> Token:
        # the list ends with "eof", which next() never passes; the one
        # look-ahead, in definitions(), is made from an identifier
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            got = t.text or "end of input"
            raise ParseError(f"expected {what}, found {got!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)


class _Parser(TokenStream):
    def __init__(self, tokens: list[Token], calculus: str,
                 resolve: Callable[[str], Term | None] = {}.get):
        if calculus not in ("lrec", "llcim"):
            raise ValueError(f"unknown calculus {calculus!r}")
        super().__init__(tokens, resolve)
        self.calculus = calculus

    # -- terms -------------------------------------------------------------

    def binder(self, what: str) -> str:
        """A binder or pattern variable, refused at its token if a keyword."""
        t = self.expect("ident", what)
        if t.text in _KEYWORDS:
            raise ParseError(f"{t.text!r} is a keyword", t.line, t.col)
        return t.text

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "lambda":
            self.next()
            binders = [self.binder("a binder name")]
            while self.peek().kind == "ident":
                binders.append(self.binder("a binder name"))
            self.expect("dot", "'.'")
            body = self.term()
            for b in reversed(binders):
                body = Lam(b, body)
            return body
        return self.app()

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind in ("nat", "langle", "lparen", "at"):
            return True
        return t.kind == "ident" and t.text != "in"

    def app(self) -> Term:
        out = self.atom()
        while self._starts_atom():
            out = App(out, self.atom())
        return out

    def _call_args(self, keyword: str, count: int) -> list[Term]:
        self.expect("lparen", f"'(' after {keyword}")
        args = [self.term()]
        while self.peek().kind == "comma":
            self.next()
            args.append(self.term())
        self.expect("rparen", "')'")
        if len(args) != count:
            self.fail(f"{keyword} takes {count} arguments, found {len(args)}")
        return args

    def atom(self) -> Term:
        t = self.peek()
        if t.kind == "nat":
            self.next()
            return numeral(int(t.text))
        if t.kind == "lparen":
            self.next()
            inner = self.term()
            self.expect("rparen", "')'")
            return inner
        if t.kind == "langle":
            self.next()
            parts = [self.term()]
            while self.peek().kind == "comma":
                self.next()
                parts.append(self.term())
            self.expect("rangle", "'>'")
            if len(parts) < 2:
                raise ParseError("a pair needs at least two components",
                                 t.line, t.col)
            return mk_tuple(parts)
        if t.kind == "at":
            self.next()
            name = self.expect("ident", "a reference name").text
            a = None
            if self.peek().kind == "lbracket":
                self.next()
                a = self.type_()
                self.expect("rbracket", "']'")
            # an untyped reference names an earlier definition first
            term = self.resolve(name) if a is None else None
            if term is None:
                term = catalog_lookup(name, a)
            if term is None:
                # an earlier definition, like a plain entry, takes no type
                typed = a is not None
                misuse = ("takes no" if typed and self.resolve(name) is not None
                          else catalog_misuse(name, typed))
                if misuse == "needs":
                    msg = f"@{name} needs a type argument"
                elif misuse == "takes no":
                    msg = f"@{name} takes no type argument"
                else:
                    shown = name if a is None else f"{name}[{type_pretty(a)}]"
                    msg = f"unknown reference @{shown}"
                raise ParseError(msg, t.line, t.col)
            return term
        if t.kind == "ident":
            word = t.text
            if word == "S":
                self.next()
                return Suc(self.atom())
            if word == "let":
                self.next()
                self.expect("langle", "'<'")
                x = self.binder("a pattern variable")
                self.expect("comma", "','")
                if self.peek().text == x:
                    self.fail(f"pattern binds {x} twice")
                y = self.binder("a pattern variable")
                self.expect("rangle", "'>'")
                self.expect("eq", "'='")
                scrut = self.term()
                # term() stops only before 'in' among identifiers
                self.expect("ident", "'in'")
                body = self.term()
                return LetPair(scrut, x, y, body)
            if word in _CALLS:
                calculus, arity, cls = _CALLS[word]
                if self.calculus != calculus:
                    self.fail(f"{word} is not part of this calculus")
                self.next()
                return cls(*self._call_args(word, arity))
            if word == "in":
                self.fail("unexpected 'in'")
            self.next()
            return Var(word)
        self.fail("expected a term")
        raise AssertionError

    # -- types -------------------------------------------------------------

    def type_(self) -> LinType:
        left = self.type_prod()
        if self.peek().kind == "lolli":
            self.next()
            return Lolli(left, self.type_())
        return left

    def type_prod(self) -> LinType:
        left = self.type_atom()
        if self.peek().kind == "star":
            self.next()
            return Tensor(left, self.type_prod())
        return left

    def type_atom(self) -> LinType:
        t = self.peek()
        if t.kind == "lparen":
            self.next()
            inner = self.type_()
            self.expect("rparen", "')'")
            return inner
        if t.kind == "ident" and t.text == "Nat":
            self.next()
            return NAT
        self.fail("expected a type")
        raise AssertionError


def _certify(t: Term) -> Term:
    """Certify one definition as written, by its `linear` flag. A
    violation is reported on the named term, so its message shows the
    binders as printed."""
    if not t.linear:
        raise LinearityError(check_linear(freshen(t)))
    return t


def parse(text: str, calculus: str = "lrec") -> Term:
    """Parse one term and name it; non-linear terms are rejected."""
    p = _Parser(lex(text), calculus)
    t = p.term()
    p.expect("eof", "end of input")
    return freshen(_certify(t))


def parse_type(text: str) -> LinType:
    p = _Parser(lex(text), "lrec")
    a = p.type_()
    p.expect("eof", "end of input")
    return a


def definitions(p: TokenStream, term: Callable[[], object],
                local: dict[str, object]) -> object:
    """The definition-file loop shared by both languages: `name = term;`
    entries, stored in order in `local` (which the parser's references
    read, so later entries can refer to earlier ones), the last one
    being the program; or else a single bare term."""
    if not (p.peek().kind == "ident" and p.peek(1).kind == "eq"):
        t = term()
        p.expect("eof", "end of input")
        return t
    while p.peek().kind != "eof":
        name = p.expect("ident", "a definition name").text
        p.expect("eq", "'='")
        t = term()
        if p.peek().kind == "semi":
            p.next()
        elif p.peek().kind != "eof":
            p.expect("semi", "';'")
        if name in local:
            p.fail(f"duplicate definition {name}")
        local[name] = t
    return t


def parse_defs(text: str, calculus: str = "lrec"
               ) -> tuple[list[tuple[str, Term]], Term]:
    """Parse a definition file: `name = term;` entries, the last one being
    the program, or a single bare term. An untyped reference resolves
    against earlier definitions before the catalog. Each definition is
    certified and kept as written, and an earlier one is spliced as
    written, so `freshen(program)` names the whole program in one pass."""
    local: dict[str, Term] = {}
    p = _Parser(lex(text), calculus, local.get)
    program = definitions(p, lambda: _certify(p.term()), local)
    return list(local.items()), program
