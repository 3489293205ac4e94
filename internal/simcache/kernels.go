package simcache

import (
	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

// NameSimFeatures is the one definition of name similarity over cached
// features: Jaro-Winkler raised to the symmetric Monge-Elkan score when
// either value is multi-token. It is unmemoised, symmetric bit for bit
// (so a pair may be scored from either side), and scores a value against
// itself as 1. NameSim memoises it for ER, whose Zipf-repeated record
// pairs pay for the memo; the similarity index calls it directly because
// it scores each distinct pair once (DESIGN §4.9).
func NameSimFeatures(fa, fb *Features) float64 {
	s := strsim.JaroWinkler(fa.Str, fb.Str)
	if fa.HasSpace || fb.HasSpace {
		if me := strsim.SymMongeElkanTokens(fa.Tokens, fb.Tokens); me > s {
			s = me
		}
	}
	return s
}

// NameSim is strsim.NameSim over symbols: NameSimFeatures memoised
// process-wide per distinct symbol pair.
func NameSim(a, b symbol.ID) float64 {
	if a == b {
		if a == symbol.None {
			return 0
		}
		return 1
	}
	if a == symbol.None || b == symbol.None {
		// One side empty: Jaro-Winkler and Monge-Elkan both score 0, no
		// need to touch the memo.
		return 0
	}
	key := PackKey(a, b)
	if v, ok := nameMemo.get(key); ok {
		return v
	}
	s := NameSimFeatures(Feat(a), Feat(b))
	nameMemo.put(key, s)
	return s
}

// Jaccard is strsim.Jaccard over symbols: the Jaccard coefficient of the
// two values' distinct bigram sets, computed as a linear merge over the
// cached sorted bigram-ID signatures and memoised per distinct pair.
func Jaccard(a, b symbol.ID) float64 {
	if a == b {
		if a == symbol.None {
			return 0
		}
		return 1 // strsim.Jaccard's a==b fast path, including sub-bigram strings
	}
	if a == symbol.None || b == symbol.None {
		return 0 // one side has no bigrams
	}
	key := PackKey(a, b)
	if v, ok := jacMemo.get(key); ok {
		return v
	}
	s := strsim.JaccardBigramIDs(Feat(a).Bigrams, Feat(b).Bigrams)
	jacMemo.put(key, s)
	return s
}

// TokenJaccard is strsim.TokenJaccard over symbols: the Jaccard coefficient
// of the two values' distinct whitespace-token sets, computed as a linear
// merge over the cached sorted token symbols and memoised per distinct pair.
func TokenJaccard(a, b symbol.ID) float64 {
	if a == b {
		if len(Feat(a).TokenSyms) == 0 {
			return 0 // whitespace-only value: no tokens, no evidence
		}
		return 1
	}
	if a == symbol.None || b == symbol.None {
		return 0
	}
	key := PackKey(a, b)
	if v, ok := tokenMemo.get(key); ok {
		return v
	}
	ta, tb := Feat(a).TokenSyms, Feat(b).TokenSyms
	s := tokenJaccardMerge(ta, tb)
	tokenMemo.put(key, s)
	return s
}

func tokenJaccardMerge(a, b []symbol.ID) float64 {
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
