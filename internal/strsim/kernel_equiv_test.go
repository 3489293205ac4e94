// Equivalence tests pinning the allocation-free kernels to verbatim
// copies of the classic implementations they replaced. The optimised
// kernels must be bit-for-bit identical — their outputs feed the golden
// determinism suites, so even a last-ulp drift would show up as a
// byte-level diff in resolved clusters.
package strsim

import (
	"math/rand"
	"strings"
	"testing"
)

// jaroReferenceClassic is the pre-optimisation Jaro kernel, kept verbatim:
// two freshly allocated []bool matched-flag slices, a window scan per
// byte, no tables, no pooling. Every optimised kernel is tested against it.
func jaroReferenceClassic(a, b string) float64 {
	if a == b {
		if a == "" {
			return 0
		}
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	matchDist := max(la, lb)/2 - 1
	if matchDist < 0 {
		matchDist = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-matchDist)
		hi := min(lb-1, i+matchDist)
		for j := lo; j <= hi; j++ {
			if bMatched[j] || a[i] != b[j] {
				continue
			}
			aMatched[i] = true
			bMatched[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transposes := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if a[i] != b[j] {
			transposes++
		}
		j++
	}
	m := float64(matches)
	t := float64(transposes) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// FuzzJaroBitmaskEquivalence fuzzes the dispatching Jaro (match-table
// kernel up to 64 bytes, pooled-scratch path above) against the classic
// reference. Seeds
// cover the dispatch boundaries: empty strings, sub-bigram strings,
// non-ASCII bytes (the kernels operate on bytes, so multi-byte runes must
// behave identically in both), exactly 64 bytes, and beyond 64 bytes
// where the scratch path takes over.
func FuzzJaroBitmaskEquivalence(f *testing.F) {
	long64 := strings.Repeat("abcdefgh", 8)        // exactly 64 bytes
	long65 := long64 + "x"                         // first scratch-path length
	long200 := strings.Repeat("van den berg ", 16) // deep scratch path
	seeds := [][2]string{
		{"", ""},
		{"", "a"},
		{"martha", "marhta"},
		{"dixon", "dicksonx"},
		{"jellyfish", "smellyfish"},
		{"jörg", "jürgen"}, // non-ASCII: ö and ü are two bytes each
		{"Ødegård", "Odegard"},
		{long64, long64[:63] + "y"},
		{long64, long65},
		{long65, long200},
		{"a", long200},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		got := Jaro(a, b)
		want := jaroReferenceClassic(a, b)
		if got != want {
			t.Fatalf("Jaro(%q, %q) = %v, classic reference = %v", a, b, got, want)
		}
	})
}

// FuzzPatternJaroEquivalence fuzzes the match-table kernel as the
// similarity index uses it — one Pattern re-Set from value to value — against
// the classic reference. prev is what the Pattern held before b: a table
// that kept one of its bits would match positions b does not have. Seeds
// cover empty and one-byte strings, non-ASCII bytes, the 64/65-byte
// boundary on either side, and a re-Set from a longer string to a shorter.
func FuzzPatternJaroEquivalence(f *testing.F) {
	long64 := strings.Repeat("abcdefgh", 8)
	long65 := long64 + "x"
	seeds := [][3]string{
		{"", "", ""},
		{"", "a", ""},
		{"a", "", "a"},
		{"a", "a", "b"},
		{"a", "b", "a"},
		{"martha", "marhta", ""},
		{"jörg", "jürgen", "Ødegård"},
		{long64, long64[:63] + "y", "martha"},
		{long64, long65, long64},
		{long65, long64, long65},
		{"dixon", "dicksonx", long64},
		{"ab", "ba", "abababababababab"},
		{"jellyfish", "smellyfish", strings.Repeat("van den berg ", 16)},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, a, b, prev string) {
		var p Pattern
		p.Set(prev)
		p.Set(b)
		want := jaroReferenceClassic(a, b)
		if got := p.Jaro(a); got != want {
			t.Fatalf("Pattern(%q after %q).Jaro(%q) = %v, classic reference = %v", b, prev, a, got, want)
		}
		if got, want := p.JaroWinkler(a), winkler(want, a, b); got != want {
			t.Fatalf("Pattern(%q after %q).JaroWinkler(%q) = %v, reference = %v", b, prev, a, got, want)
		}
	})
}

// TestPatternMatchesTwoStringKernels is the deterministic form of the
// Pattern fuzz target: one Pattern, and one Pattern per token, re-Set from
// pair to pair the way a worker of the similarity index reuses them.
func TestPatternMatchesTwoStringKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var p Pattern
	var toks []Pattern
	for i := 0; i < 20000; i++ {
		a, b := randomName(rng), randomName(rng)
		p.Set(b)
		if got, want := p.Jaro(a), jaroReferenceClassic(a, b); got != want {
			t.Fatalf("Pattern(%q).Jaro(%q) = %v, classic reference = %v", b, a, got, want)
		}
		if got, want := p.JaroWinkler(a), JaroWinkler(a, b); got != want {
			t.Fatalf("Pattern(%q).JaroWinkler(%q) = %v, JaroWinkler = %v", b, a, got, want)
		}
		ta, tb := Fields(a), Fields(b)
		for len(toks) < len(tb) {
			toks = append(toks, Pattern{})
		}
		for j, tok := range tb {
			toks[j].Set(tok)
		}
		if got, want := SymMongeElkanPatterns(ta, toks[:len(tb)]), SymMongeElkanTokens(ta, tb); got != want {
			t.Fatalf("SymMongeElkanPatterns(%q, %q) = %v, token form = %v", a, b, got, want)
		}
	}
}

// randomName draws a random byte string biased towards the name alphabet
// but with occasional high bytes and spaces, length 0..79 so both Jaro
// paths and the sub-bigram edge cases are exercised.
func randomName(rng *rand.Rand) string {
	n := rng.Intn(80)
	buf := make([]byte, n)
	for i := range buf {
		switch rng.Intn(10) {
		case 0:
			buf[i] = ' '
		case 1:
			buf[i] = byte(rng.Intn(256)) // arbitrary byte, incl. non-ASCII
		default:
			buf[i] = byte('a' + rng.Intn(26))
		}
	}
	return string(buf)
}

// TestJaroKernelPathsAgree is the deterministic form of the fuzz target,
// so the equivalence is checked on every plain `go test` run, not only
// when the fuzz engine executes.
func TestJaroKernelPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a, b := randomName(rng), randomName(rng)
		if got, want := Jaro(a, b), jaroReferenceClassic(a, b); got != want {
			t.Fatalf("Jaro(%q, %q) = %v, classic reference = %v", a, b, got, want)
		}
	}
}

// TestJaccardBigramIDsMatchesMapJaccard pins the sorted-merge Jaccard over
// packed bigram IDs to the map-based Jaccard for distinct strings. (The
// a == b fast path of Jaccard is intentionally NOT part of the merge
// kernel's contract — callers dispatch equality before comparing
// signatures — so equal inputs are skipped.)
func TestJaccardBigramIDsMatchesMapJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		a, b := randomName(rng), randomName(rng)
		if a == b {
			continue
		}
		ga := AppendBigramIDs(nil, a)
		gb := AppendBigramIDs(nil, b)
		if got, want := JaccardBigramIDs(ga, gb), Jaccard(a, b); got != want {
			t.Fatalf("JaccardBigramIDs(%q, %q) = %v, map Jaccard = %v", a, b, got, want)
		}
	}
}

// TestAppendBigramIDsMatchesBigramSet checks that the packed signature is
// exactly the sorted integer form of BigramSet: same distinct bigrams,
// ascending, no duplicates.
func TestAppendBigramIDsMatchesBigramSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		s := randomName(rng)
		ids := AppendBigramIDs(nil, s)
		set := map[BigramID]bool{}
		for _, bg := range BigramSet(s) {
			set[MakeBigramID(bg[0], bg[1])] = true
		}
		if len(ids) != len(set) {
			t.Fatalf("AppendBigramIDs(%q) has %d ids, BigramSet has %d", s, len(ids), len(set))
		}
		for j, id := range ids {
			if !set[id] {
				t.Fatalf("AppendBigramIDs(%q) contains %v not in BigramSet", s, id)
			}
			if j > 0 && ids[j-1] >= id {
				t.Fatalf("AppendBigramIDs(%q) not strictly ascending at %d: %v", s, j, ids)
			}
		}
	}
}

// TestSymMongeElkanTokensMatchesString pins the pre-tokenised entry point
// (fed by the per-symbol feature slab) to the string form, including the
// tab-vs-space asymmetry: Fields splits on both, so the token slices must
// reproduce exactly what SymMongeElkan computes internally.
func TestSymMongeElkanTokensMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		a, b := randomName(rng), randomName(rng)
		got := SymMongeElkanTokens(Fields(a), Fields(b))
		want := SymMongeElkan(a, b)
		if got != want {
			t.Fatalf("SymMongeElkanTokens(%q, %q) = %v, string form = %v", a, b, got, want)
		}
	}
}

// BenchmarkJaroKernel measures the Jaro paths: the ≤64-byte kernel
// (virtually all names) entered with two strings, as the streamed scorer
// does — on near-identical pairs ("bitmask": the table is built per call)
// and on the cross product of common names, mostly dissimilar, which is
// what a memo miss in ER looks like ("mixed") — and against a Pattern set
// once, as the similarity index does ("table"); and the pooled-scratch
// fallback.
func BenchmarkJaroKernel(b *testing.B) {
	short := [][2]string{
		{"jonathan", "johnathan"},
		{"margaret", "margret"},
		{"van den berg", "van der berg"},
		{"elisabeth", "elizabeth"},
	}
	long := strings.Repeat("wilhelmina jacoba ", 5) // 90 bytes: scratch path
	b.Run("bitmask", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := short[i&3]
			Jaro(p[0], p[1])
		}
	})
	b.Run("mixed", func(b *testing.B) {
		names := []string{"john", "mary", "william", "margaret", "james", "ann", "donald", "catherine",
			"alexander", "christina", "macdonald", "macleod", "mackinnon", "nicolson", "campbell", "robertson"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Jaro(names[i&15], names[(i>>4)&15])
		}
	})
	b.Run("table", func(b *testing.B) {
		var pats [4]Pattern
		for i := range pats {
			pats[i].Set(short[i][1])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pats[i&3].Jaro(short[i&3][0])
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Jaro(long, long[:len(long)-3])
		}
	})
}
