package accltl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"accltl/internal/fo"
	"accltl/internal/instance"
)

// Parse reads an AccLTL formula from its textual syntax:
//
//	temporal  :=  until
//	until     :=  or ('U' or)*                        (right associative)
//	or        :=  and ('|' and)*
//	and       :=  unary ('&' unary)*
//	unary     :=  '!' unary | 'X' unary | 'F' unary | 'G' unary
//	           |  '(' temporal ')' | 'true' | 'false' | '[' fo ']'
//
// and first-order sentences inside [...]:
//
//	fo        :=  'exists' var (',' var)* '.' fo | foOr
//	foOr      :=  foAnd ('|' foAnd)*
//	foAnd     :=  foUnary ('&' foUnary)*
//	foUnary   :=  '!' foUnary | '(' fo ')' | atom
//	atom      :=  'pre' Rel '(' terms ')' | 'post' Rel '(' terms ')'
//	           |  'bind' Meth ['(' terms ')'] | term ('='|'!=') term
//	term      :=  ident | "string" | integer | 'true' | 'false'
//
// The input is UTF-8. An identifier is a letter, '_' or '#', then letters,
// digits, '_' and '#' (IsIdent). Unquoted identifiers in term position are
// variables; constants are quoted strings, integers, or the booleans #t/#f
// (since bare true/false read as formulas).
//
// Example (the introduction's query):
//
//	(![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])
//	  U [exists n,s,pc,h. bind AcM1(n) & pre Address(s,pc,n,h)]
func Parse(input string) (Formula, error) {
	p := &parser{toks: lex(input)}
	f, err := p.temporal()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("accltl: trailing input at %q", p.peek().text)
	}
	return f, nil
}

// ParseFO reads a bare first-order sentence (the [...] payload syntax).
// Unlike the sentences embedded in Parse formulas, it additionally admits
// plain (stage-less) atoms "Rel(terms)" — the query syntax of the
// containment and relevance front-ends, which stage the predicates
// themselves.
func ParseFO(input string) (fo.Formula, error) {
	p := &parser{toks: lex(input), allowPlain: true}
	f, err := p.fo()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("accltl: trailing input at %q", p.peek().text)
	}
	return f, nil
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokInt
	tokPunct // one of ( ) [ ] , . = ! & | and the two-char !=
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// IsIdent reports whether s lexes as exactly one identifier. Every
// relation and method name a parsed schema holds obeys it, so a formula
// can name each of them.
func IsIdent(s string) bool { return s != "" && identEnd(s, 0) == len(s) }

// identEnd returns the end of the identifier starting at s[i], or i if
// none starts there: a letter, '_' or '#', then letters, digits, '_' or
// '#'.
func identEnd(s string, i int) int {
	j := i
	for j < len(s) {
		r, n := rune(s[j]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s[j:])
		}
		if !unicode.IsLetter(r) && r != '_' && r != '#' && (j == i || !unicode.IsDigit(r)) {
			break
		}
		j += n
	}
	return j
}

func lex(s string) []token {
	var toks []token
	i := 0
	for i < len(s) {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		switch {
		case unicode.IsSpace(c):
			i += size
		case c == '"':
			j := i + 1
			var b strings.Builder
			for j < len(s) && s[j] != '"' {
				b.WriteByte(s[j])
				j++
			}
			toks = append(toks, token{kind: tokString, text: b.String(), pos: i})
			i = j + 1
		case c == '!' && i+1 < len(s) && s[i+1] == '=':
			toks = append(toks, token{kind: tokPunct, text: "!=", pos: i})
			i += 2
		case strings.ContainsRune("()[],.=!&|", c):
			toks = append(toks, token{kind: tokPunct, text: string(c), pos: i})
			i++
		case c == '-' || '0' <= c && c <= '9':
			j := i + 1
			for j < len(s) && '0' <= s[j] && s[j] <= '9' {
				j++
			}
			toks = append(toks, token{kind: tokInt, text: s[i:j], pos: i})
			i = j
		default:
			if j := identEnd(s, i); j > i {
				toks = append(toks, token{kind: tokIdent, text: s[i:j], pos: i})
				i = j
			} else {
				toks = append(toks, token{kind: tokPunct, text: s[i : i+size], pos: i})
				i += size
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(s)})
	return toks
}

type parser struct {
	toks []token
	i    int
	// allowPlain admits stage-less atoms "Rel(terms)" (ParseFO only): the
	// solvers evaluate sentences over access structures, where a plain
	// predicate has no extension, so accepting one in a Parse formula would
	// turn a pre/post typo into a silently-false atom.
	allowPlain bool
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) eof() bool   { return p.peek().kind == tokEOF }

func (p *parser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("accltl: expected %q at offset %d, got %q", text, t.pos, t.text)
	}
	return nil
}

func (p *parser) acceptPunct(text string) bool {
	if p.peek().kind == tokPunct && p.peek().text == text {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptIdent(text string) bool {
	if p.peek().kind == tokIdent && p.peek().text == text {
		p.i++
		return true
	}
	return false
}

// temporal parses with U at the lowest precedence (right associative).
func (p *parser) temporal() (Formula, error) {
	l, err := p.tOr()
	if err != nil {
		return nil, err
	}
	if p.acceptIdent("U") {
		r, err := p.temporal()
		if err != nil {
			return nil, err
		}
		return Until{L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) tOr() (Formula, error) {
	l, err := p.tAnd()
	if err != nil {
		return nil, err
	}
	out := []Formula{l}
	for p.acceptPunct("|") {
		r, err := p.tAnd()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 1 {
		return out[0], nil
	}
	return Disj(out...), nil
}

func (p *parser) tAnd() (Formula, error) {
	l, err := p.tUnary()
	if err != nil {
		return nil, err
	}
	out := []Formula{l}
	for p.acceptPunct("&") {
		r, err := p.tUnary()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 1 {
		return out[0], nil
	}
	return Conj(out...), nil
}

func (p *parser) tUnary() (Formula, error) {
	switch {
	case p.acceptPunct("!"):
		f, err := p.tUnary()
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	case p.acceptIdent("X"):
		f, err := p.tUnary()
		if err != nil {
			return nil, err
		}
		return Next{F: f}, nil
	case p.acceptIdent("F"):
		f, err := p.tUnary()
		if err != nil {
			return nil, err
		}
		return F(f), nil
	case p.acceptIdent("G"):
		f, err := p.tUnary()
		if err != nil {
			return nil, err
		}
		return G(f), nil
	case p.acceptIdent("true"):
		return True(), nil
	case p.acceptIdent("false"):
		return False(), nil
	case p.acceptPunct("("):
		f, err := p.temporal()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return f, nil
	case p.acceptPunct("["):
		s, err := p.fo()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return Atom{Sentence: s}, nil
	default:
		t := p.peek()
		return nil, fmt.Errorf("accltl: unexpected %q at offset %d", t.text, t.pos)
	}
}

// fo parses a first-order formula.
func (p *parser) fo() (fo.Formula, error) {
	if p.acceptIdent("exists") {
		var vars []string
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("accltl: expected variable at offset %d, got %q", t.pos, t.text)
			}
			vars = append(vars, t.text)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expect("."); err != nil {
			return nil, err
		}
		body, err := p.fo()
		if err != nil {
			return nil, err
		}
		return fo.Ex(vars, body), nil
	}
	return p.foOr()
}

func (p *parser) foOr() (fo.Formula, error) {
	l, err := p.foAnd()
	if err != nil {
		return nil, err
	}
	out := []fo.Formula{l}
	for p.acceptPunct("|") {
		r, err := p.foAnd()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 1 {
		return out[0], nil
	}
	return fo.Disj(out...), nil
}

func (p *parser) foAnd() (fo.Formula, error) {
	l, err := p.foUnary()
	if err != nil {
		return nil, err
	}
	out := []fo.Formula{l}
	for p.acceptPunct("&") {
		r, err := p.foUnary()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 1 {
		return out[0], nil
	}
	return fo.Conj(out...), nil
}

func (p *parser) foUnary() (fo.Formula, error) {
	switch {
	case p.acceptPunct("!"):
		f, err := p.foUnary()
		if err != nil {
			return nil, err
		}
		return fo.Not{F: f}, nil
	case p.acceptPunct("("):
		f, err := p.fo()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return f, nil
	case p.acceptIdent("true"):
		return fo.Truth{Val: true}, nil
	case p.acceptIdent("false"):
		return fo.Truth{Val: false}, nil
	case p.acceptIdent("pre"):
		return p.relAtom(fo.Pre)
	case p.acceptIdent("post"):
		return p.relAtom(fo.Post)
	case p.acceptIdent("bind"):
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("accltl: expected method name at offset %d", t.pos)
		}
		if !p.acceptPunct("(") {
			return fo.Atom{Pred: fo.IsBindPred(t.text)}, nil
		}
		args, err := p.terms()
		if err != nil {
			return nil, err
		}
		return fo.Atom{Pred: fo.IsBindPred(t.text), Args: args}, nil
	default:
		// Bare Rel(terms) is a plain (stage-less) atom.
		if t := p.peek(); t.kind == tokIdent && p.toks[p.i+1].kind == tokPunct && p.toks[p.i+1].text == "(" {
			if !p.allowPlain {
				return nil, fmt.Errorf("accltl: unstaged atom %q at offset %d (prefix with 'pre', 'post' or 'bind')", t.text, t.pos)
			}
			p.next()
			p.next()
			args, err := p.terms()
			if err != nil {
				return nil, err
			}
			return fo.Atom{Pred: fo.PlainPred(t.text), Args: args}, nil
		}
		// term (= | !=) term
		l, err := p.term()
		if err != nil {
			return nil, err
		}
		if p.acceptPunct("=") {
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			return fo.Eq{L: l, R: r}, nil
		}
		if p.acceptPunct("!=") {
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			return fo.Neq{L: l, R: r}, nil
		}
		t := p.peek()
		return nil, fmt.Errorf("accltl: expected '=' or '!=' at offset %d, got %q", t.pos, t.text)
	}
}

func (p *parser) relAtom(stage fo.Stage) (fo.Formula, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("accltl: expected relation name at offset %d", t.pos)
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	args, err := p.terms()
	if err != nil {
		return nil, err
	}
	return fo.Atom{Pred: fo.Pred{Name: t.text, Stage: stage}, Args: args}, nil
}

// terms parses a comma-separated term list up to the closing paren.
func (p *parser) terms() ([]fo.Term, error) {
	var out []fo.Term
	if p.acceptPunct(")") {
		return out, nil
	}
	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if p.acceptPunct(")") {
			return out, nil
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
	}
}

func (p *parser) term() (fo.Term, error) {
	t := p.next()
	switch t.kind {
	case tokString:
		return fo.Const(instance.Str(t.text)), nil
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return fo.Term{}, fmt.Errorf("accltl: bad integer %q at offset %d", t.text, t.pos)
		}
		return fo.Const(instance.Int(n)), nil
	case tokIdent:
		switch t.text {
		case "#t":
			return fo.Const(instance.Bool(true)), nil
		case "#f":
			return fo.Const(instance.Bool(false)), nil
		}
		return fo.Var(t.text), nil
	default:
		return fo.Term{}, fmt.Errorf("accltl: expected term at offset %d, got %q", t.pos, t.text)
	}
}
