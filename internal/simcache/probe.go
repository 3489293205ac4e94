package simcache

import (
	"slices"
	"strings"

	"github.com/snaps/snaps/internal/strsim"
)

// Probe is one name prepared for scoring against many others: a match
// table (strsim.Pattern) of the whole value and one per token, so both arms
// of the name kernel — Jaro-Winkler and Monge-Elkan — run on tables built
// once per probe instead of once per pair. p.Sim(o) is NameSimFeatures(o,
// p's value) bit for bit, and NameSimFeatures is symmetric, so callers need
// not care which side of a pair is the probe.
//
// A Probe is reusable (Set again for the next value; the tables clear only
// what the last value set) but not safe for concurrent use: the index keeps
// one per worker.
type Probe struct {
	value    strsim.Pattern
	tokens   []strsim.Pattern // tables past len keep their storage for reuse
	hasSpace bool
}

// Set makes p the probe of an indexed value.
func (p *Probe) Set(f *Features) { p.set(f.Str, f.Tokens, f.HasSpace) }

// SetString makes p the probe of an arbitrary string. Nothing is interned
// and no Features are published: a query stream of unknown names must not
// grow process-wide tables. Scores equal strsim.NameSim(s, other) bit for
// bit.
func (p *Probe) SetString(s string) {
	var buf [8]string // a name's tokens, on the stack
	p.set(s, strsim.AppendFields(buf[:0], s), strings.IndexByte(s, ' ') >= 0)
}

func (p *Probe) set(s string, tokens []string, hasSpace bool) {
	p.value.Set(s)
	p.hasSpace = hasSpace
	p.tokens = slices.Grow(p.tokens[:0], len(tokens))[:len(tokens)]
	for i, t := range tokens {
		p.tokens[i].Set(t)
	}
}

// Sim scores the probe against an indexed value.
func (p *Probe) Sim(o *Features) float64 {
	s := p.value.JaroWinkler(o.Str)
	if o.HasSpace || p.hasSpace {
		if me := strsim.SymMongeElkanPatterns(o.Tokens, p.tokens); me > s {
			s = me
		}
	}
	return s
}
