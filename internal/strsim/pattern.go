package strsim

import "math/bits"

// matchTable maps a byte to the positions holding it in one string of at
// most 64 bytes: bit j of matchTable[c] is set iff s[j] == c.
type matchTable [256]uint64

func (t *matchTable) add(s string) {
	for j := 0; j < len(s); j++ {
		t[s[j]] |= 1 << uint(j)
	}
}

// Pattern is one string prepared for scoring against many others: its match
// table is built once by Set and every Jaro/JaroWinkler call against it is
// a table lookup per byte of the other string instead of a window scan,
// with the result of the two-string function bit for bit. The zero Pattern
// holds the empty string. Set must not run concurrently with anything.
type Pattern struct {
	s     string
	table matchTable
}

// Set makes p the pattern of s. It clears only the table entries the
// previous string set, so re-setting costs the two strings' lengths, not
// the table's size. Strings over 64 bytes get no table: scoring against
// them takes the scratch path.
func (p *Pattern) Set(s string) {
	for i := 0; i < len(p.s); i++ {
		p.table[p.s[i]] = 0
	}
	p.s = s
	if len(s) <= 64 {
		p.table.add(s)
	}
}

// Jaro returns Jaro(a, s) for the s of the last Set.
func (p *Pattern) Jaro(a string) float64 { return jaro(a, p.s, &p.table) }

// JaroWinkler returns JaroWinkler(a, s) for the s of the last Set.
func (p *Pattern) JaroWinkler(a string) float64 { return winkler(p.Jaro(a), a, p.s) }

// jaro dispatches one Jaro comparison. tb is b's match table when the
// caller keeps one (used only if both strings fit 64 bytes); nil builds it
// on the stack.
func jaro(a, b string, tb *matchTable) float64 {
	if a == b {
		if a == "" {
			return 0 // the paper treats missing-vs-missing as no evidence
		}
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	if la > 64 || lb > 64 {
		return jaroScratch(a, b)
	}
	if tb == nil {
		var local matchTable
		local.add(b)
		tb = &local
	}
	return jaroTable(a, b, tb)
}

// jaroTable is the ≤64-byte kernel. It runs the classic greedy schedule —
// each byte of a, in order, takes the lowest unmatched position of b inside
// its window that holds the same byte — but finds that position with one
// table lookup and one lowest-set-bit instead of scanning the window:
// tb[a[i]] are b's positions holding the byte, the window and the
// already-matched positions are masks. The matched flags of both strings
// live in two registers.
func jaroTable(a, b string, tb *matchTable) float64 {
	la, lb := len(a), len(b)
	matchDist := max(la, lb)/2 - 1
	if matchDist < 0 {
		matchDist = 0
	}
	// The window of a[i] is bits i-matchDist..i+matchDist: a run of
	// 2*matchDist+1 ones (at most 63) shifted to centre on i. Bits it loses
	// off either end of the word are positions b does not have.
	span := uint64(1)<<(uint(2*matchDist+1)&63) - 1
	var aMatched, bMatched uint64
	for i := 0; i < la; i++ {
		window := span << (uint(i-matchDist) & 63)
		if i < matchDist {
			window = span >> (uint(matchDist-i) & 63)
		}
		if free := tb[a[i]] & window &^ bMatched; free != 0 {
			bMatched |= free & -free
			aMatched |= 1 << (uint(i) & 63)
		}
	}
	if aMatched == 0 {
		return 0
	}
	// Count transpositions: the k-th matched byte of a against the k-th
	// matched byte of b.
	transposes := 0
	for x, y := aMatched, bMatched; x != 0; x, y = x&(x-1), y&(y-1) {
		if a[bits.TrailingZeros64(x)] != b[bits.TrailingZeros64(y)] {
			transposes++
		}
	}
	m := float64(bits.OnesCount64(aMatched))
	t := float64(transposes) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}
