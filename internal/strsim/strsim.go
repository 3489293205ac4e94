// Package strsim provides the approximate string comparison functions used
// throughout SNAPS: Jaro and Jaro-Winkler for personal names, bigram
// extraction and Jaccard similarity for longer strings,
// maximum-absolute-difference similarity for years, and a haversine-based
// similarity for geocoded addresses.
//
// All similarities are normalised to [0, 1], where 1 means identical and 0
// means completely different, matching the convention of the paper.
package strsim

import (
	"math"
	"sync"
)

// Jaro returns the Jaro similarity between two strings. It operates on
// bytes, which is adequate for the ASCII historical-records domain.
//
// The kernel is allocation-free: strings up to 64 bytes (virtually every
// name in the vital-records domain) are scored by the match-table kernel
// (pattern.go) over a table of b built on the stack; longer strings fall
// back to pooled []bool scratch. Both paths run the identical
// match/transposition schedule, so the returned float is bit-for-bit the
// classic implementation's (locked in by FuzzJaroBitmaskEquivalence).
func Jaro(a, b string) float64 { return jaro(a, b, nil) }

// jaroPool recycles the matched-flag scratch of the >64-byte path.
var jaroPool = sync.Pool{New: func() any { s := make([]bool, 256); return &s }}

// jaroScratch is the long-string path, identical to the classic
// implementation except that the matched-flag slices are pooled.
func jaroScratch(a, b string) float64 {
	la, lb := len(a), len(b)
	matchDist := max(la, lb)/2 - 1
	if matchDist < 0 {
		matchDist = 0
	}
	sp := jaroPool.Get().(*[]bool)
	scratch := *sp
	if cap(scratch) < la+lb {
		scratch = make([]bool, la+lb)
	}
	scratch = scratch[:cap(scratch)]
	for i := range scratch[:la+lb] {
		scratch[i] = false
	}
	aMatched := scratch[:la]
	bMatched := scratch[la : la+lb]
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
		*sp = scratch
		jaroPool.Put(sp)
		return 0
	}
	// Count transpositions among matched characters.
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
	*sp = scratch
	jaroPool.Put(sp)
	m := float64(matches)
	t := float64(transposes) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// winklerPrefixScale is the standard Winkler prefix scaling factor.
const winklerPrefixScale = 0.1

// JaroWinkler returns the Jaro-Winkler similarity, which boosts the Jaro
// similarity of strings sharing a common prefix of up to four characters.
func JaroWinkler(a, b string) float64 { return winkler(Jaro(a, b), a, b) }

// winkler applies the common-prefix boost to the Jaro score j of a and b.
func winkler(j float64, a, b string) float64 {
	if j == 0 {
		return 0
	}
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*winklerPrefixScale*(1-j)
}

// Bigrams returns the multiset of two-character substrings of s as a
// sorted-insertion map from bigram to count. A string shorter than two
// characters yields an empty map.
func Bigrams(s string) map[string]int {
	out := make(map[string]int, max(0, len(s)-1))
	for i := 0; i+2 <= len(s); i++ {
		out[s[i:i+2]]++
	}
	return out
}

// BigramSet returns the set of distinct bigrams of s.
func BigramSet(s string) []string {
	seen := Bigrams(s)
	out := make([]string, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	return out
}

// BigramID packs a two-byte substring into an integer: the first byte in
// the high bits. Working over IDs instead of two-byte strings keeps bigram
// signatures allocation-free and makes set operations a linear merge over
// sorted integer slices.
type BigramID uint16

// MakeBigramID packs two bytes into a BigramID.
func MakeBigramID(a, b byte) BigramID { return BigramID(a)<<8 | BigramID(b) }

// AppendBigramIDs appends the distinct bigram IDs of s to dst, sorted
// ascending, and returns the extended slice. A string shorter than two
// bytes contributes nothing. The result is the integer form of BigramSet.
func AppendBigramIDs(dst []BigramID, s string) []BigramID {
	start := len(dst)
	for i := 0; i+2 <= len(s); i++ {
		dst = append(dst, MakeBigramID(s[i], s[i+1]))
	}
	tail := dst[start:]
	if len(tail) < 2 {
		return dst
	}
	// Insertion sort: bigram signatures are short (one per input byte).
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j] < tail[j-1]; j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	// Deduplicate in place.
	out := tail[:1]
	for _, g := range tail[1:] {
		if g != out[len(out)-1] {
			out = append(out, g)
		}
	}
	return dst[:start+len(out)]
}

// JaccardBigramIDs returns |A ∩ B| / |A ∪ B| over two sorted distinct
// bigram-ID slices — the merge-based form of Jaccard's map intersection.
// Either side empty yields 0, matching Jaccard on sub-bigram strings.
func JaccardBigramIDs(a, b []BigramID) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Jaccard returns the Jaccard coefficient of the bigram sets of two strings:
// |A ∩ B| / |A ∪ B|. Strings shorter than two characters fall back to exact
// comparison.
func Jaccard(a, b string) float64 {
	if a == b {
		if a == "" {
			return 0
		}
		return 1
	}
	ga, gb := Bigrams(a), Bigrams(b)
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	inter := 0
	for g := range ga {
		if gb[g] > 0 {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	return float64(inter) / float64(union)
}

// TokenJaccard returns the Jaccard coefficient over whitespace-separated
// tokens, used for multi-word strings such as occupations and causes of
// death.
func TokenJaccard(a, b string) float64 {
	ta, tb := fields(a), fields(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	seen := map[string]bool{}
	for _, t := range ta {
		seen[t] = true
	}
	inter := 0
	interSeen := map[string]bool{}
	for _, t := range tb {
		if seen[t] && !interSeen[t] {
			inter++
			interSeen[t] = true
		}
	}
	// Union of distinct tokens.
	for _, t := range tb {
		seen[t] = true
	}
	return float64(inter) / float64(len(seen))
}

func fields(s string) []string { return AppendFields(nil, s) }

// AppendFields appends the tokens of s, as Fields splits them, to out.
func AppendFields(out []string, s string) []string {
	start := -1
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// YearSim returns a maximum-absolute-difference similarity for two years:
// 1 when equal, falling linearly to 0 at a difference of maxDiff years.
func YearSim(a, b, maxDiff int) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	if d >= maxDiff {
		return 0
	}
	return 1 - float64(d)/float64(maxDiff)
}

// earthRadius is the mean Earth radius in kilometres.
const earthRadius = 6371.0

// GeoDistanceKm returns the haversine distance in kilometres between two
// geocoded points.
func GeoDistanceKm(lat1, lon1, lat2, lon2 float64) float64 {
	const degToRad = math.Pi / 180
	dLat := (lat2 - lat1) * degToRad
	dLon := (lon2 - lon1) * degToRad
	sLat := math.Sin(dLat / 2)
	sLon := math.Sin(dLon / 2)
	h := sLat*sLat + math.Cos(lat1*degToRad)*math.Cos(lat2*degToRad)*sLon*sLon
	return 2 * earthRadius * math.Asin(math.Sqrt(h))
}

// GeoSim converts a geodesic distance to a similarity: 1 at zero distance,
// decaying linearly to 0 at maxKm.
func GeoSim(lat1, lon1, lat2, lon2, maxKm float64) float64 {
	if (lat1 == 0 && lon1 == 0) || (lat2 == 0 && lon2 == 0) {
		return 0
	}
	d := GeoDistanceKm(lat1, lon1, lat2, lon2)
	if d >= maxKm {
		return 0
	}
	return 1 - d/maxKm
}

// SymMongeElkan returns the symmetric Monge-Elkan similarity: the minimum
// of the two directed scores, so extra unmatched tokens on either side
// lower it. It handles transposed double forenames ("jane elizabeth" vs
// "elizabeth jane") that character-level measures miss.
func SymMongeElkan(a, b string) float64 {
	return SymMongeElkanTokens(fields(a), fields(b))
}

// SymMongeElkanTokens is SymMongeElkan over pre-split token slices, the
// entry point for callers (internal/simcache) that cache token splits per
// interned value and must not pay the re-tokenisation.
func SymMongeElkanTokens(ta, tb []string) float64 {
	return symMongeElkan(ta, len(tb), func(x string, j int) float64 { return JaroWinkler(x, tb[j]) })
}

// SymMongeElkanPatterns is SymMongeElkanTokens(ta, tb) with tb given as one
// Pattern per token, for a value scored against many others.
func SymMongeElkanPatterns(ta []string, tb []Pattern) float64 {
	return symMongeElkan(ta, len(tb), func(x string, j int) float64 { return tb[j].JaroWinkler(x) })
}

// Fields splits s on spaces and tabs, the tokenisation used by the token-
// level similarities. The returned substrings share s's backing bytes.
func Fields(s string) []string { return fields(s) }

// symMongeElkan computes both directed Monge-Elkan scores from one pass
// over the token similarity matrix (Jaro-Winkler is symmetric, so JW(x,y)
// serves both directions) and returns their minimum. jw(x, j) scores token
// x of the first value against token j of the second, which has nb tokens.
func symMongeElkan(ta []string, nb int, jw func(x string, j int) float64) float64 {
	if len(ta) == 0 || nb == 0 {
		return 0
	}
	// Multi-token names rarely exceed a handful of tokens; a stack buffer
	// keeps the per-call column maxima allocation-free.
	var colBuf [8]float64
	var colBest []float64
	if nb <= len(colBuf) {
		colBest = colBuf[:nb]
	} else {
		colBest = make([]float64, nb)
	}
	sumRow := 0.0
	for _, x := range ta {
		rowBest := 0.0
		for j := range colBest {
			s := jw(x, j)
			if s > rowBest {
				rowBest = s
			}
			if s > colBest[j] {
				colBest[j] = s
			}
		}
		sumRow += rowBest
	}
	sumCol := 0.0
	for _, s := range colBest {
		sumCol += s
	}
	ab := sumRow / float64(len(ta))
	ba := sumCol / float64(nb)
	if ba < ab {
		return ba
	}
	return ab
}

// NameSim is the first-name comparison used by SNAPS: plain Jaro-Winkler
// for single tokens, raised to the symmetric Monge-Elkan score when either
// name has multiple tokens (so re-ordered or partially recorded double
// forenames still match).
func NameSim(a, b string) float64 {
	if a == b {
		// Identical names score 1 under both Jaro-Winkler and symmetric
		// Monge-Elkan (every token matches itself), so skip the token
		// split entirely. Propagated entity values repeat the same
		// strings constantly, making this the most common call shape.
		if a == "" {
			return 0
		}
		return 1
	}
	s := JaroWinkler(a, b)
	if hasSpace(a) || hasSpace(b) {
		if me := SymMongeElkan(a, b); me > s {
			s = me
		}
	}
	return s
}

func hasSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return true
		}
	}
	return false
}
