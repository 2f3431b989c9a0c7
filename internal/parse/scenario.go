package parse

import (
	"fmt"
	"strconv"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// Scenario is a parsed merge scenario: an origin state plus the tentative
// and base histories raced from it.
type Scenario struct {
	Origin model.State
	Mobile []*tx.Transaction
	Base   []*tx.Transaction
}

// ScenarioFile parses a scenario source:
//
//	# Section 3's example
//	origin { x = 1; y = 7; z = 2 }
//
//	mobile tx B1 { if x > 0 { y := y + z + 3 } }
//	mobile tx G2 { x := x - 1 }
//
//	base tx TB1 type deposit (amt = 100) { d5 := d5 + $amt }
//
// Transactions appear in history order within each tier.
func ScenarioFile(src string) (*Scenario, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{Origin: model.NewState()}
	seenIDs := make(map[string]bool)
	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent {
			return nil, p.errf(t, "expected 'origin', 'mobile' or 'base', found %q", t.text)
		}
		switch t.text {
		case "origin":
			p.next()
			if err := p.originBlock(sc.Origin); err != nil {
				return nil, err
			}
		case "mobile", "base":
			kind := tx.Tentative
			if t.text == "base" {
				kind = tx.Base
			}
			p.next()
			txn, err := p.txDecl(kind)
			if err != nil {
				return nil, err
			}
			if seenIDs[txn.ID] {
				return nil, p.errf(t, "duplicate transaction id %q", txn.ID)
			}
			seenIDs[txn.ID] = true
			if kind == tx.Tentative {
				sc.Mobile = append(sc.Mobile, txn)
			} else {
				sc.Base = append(sc.Base, txn)
			}
		default:
			return nil, p.errf(t, "expected 'origin', 'mobile' or 'base', found %q", t.text)
		}
	}
	return sc, nil
}

// originBlock parses '{ item = value; ... }' into dst.
func (p *parser) originBlock(dst model.State) error {
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	for {
		for p.peek().kind == tokSemi || p.peek().kind == tokComma {
			p.next()
		}
		if p.peek().kind == tokRBrace {
			p.next()
			return nil
		}
		it, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tokEq); err != nil {
			return err
		}
		v, err := p.signedNumber()
		if err != nil {
			return err
		}
		dst.Set(model.Item(it.text), v)
	}
}

// txDecl parses: tx <id> [type <name>] [( params )] { stmts }.
func (p *parser) txDecl(kind tx.Kind) (*tx.Transaction, error) {
	if err := p.keyword("tx"); err != nil {
		return nil, err
	}
	id, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	typ := ""
	if p.atKeyword("type") {
		p.next()
		tt, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		typ = tt.text
	}
	var params map[string]model.Value
	if p.peek().kind == tokLParen {
		p.next()
		params = make(map[string]model.Value)
		for {
			if p.peek().kind == tokRParen {
				p.next()
				break
			}
			name, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokEq); err != nil {
				return nil, err
			}
			v, err := p.signedNumber()
			if err != nil {
				return nil, err
			}
			params[name.text] = v
			if p.peek().kind == tokComma || p.peek().kind == tokSemi {
				p.next()
			}
		}
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	body, err := p.stmts(tokRBrace)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	txn, err := tx.New(id.text, kind, body...)
	if err != nil {
		return nil, fmt.Errorf("parse: tx %s: %w", id.text, err)
	}
	if typ != "" {
		txn.WithType(typ)
	}
	if params != nil {
		txn.WithParams(params)
	}
	return txn, nil
}

// signedNumber parses an optionally negated integer literal.
func (p *parser) signedNumber() (model.Value, error) {
	neg := false
	if t := p.peek(); t.kind == tokOp && t.text == "-" {
		neg = true
		p.next()
	}
	numTok, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(numTok.text, 10, 64)
	if err != nil {
		return 0, p.errf(numTok, "bad number %q: %v", numTok.text, err)
	}
	if neg {
		v = -v
	}
	return model.Value(v), nil
}
