package simcache

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

// kernelCorpus exercises every dispatch edge the symbol kernels share with
// their string counterparts: empty, sub-bigram, whitespace-only, tab-vs-
// space tokenisation (HasSpace checks only ' ', Fields splits on both),
// non-ASCII bytes, and >64-byte strings that push Jaro onto its scratch
// path.
var kernelCorpus = []string{
	"",
	"x",
	"jo",
	"john",
	"jon",
	"johnathan",
	"mary ann",
	"maryann",
	"ann mary",
	"van den berg",
	"van der berg",
	"  ",
	" leading",
	"trailing ",
	"a\tb",
	"a b",
	"jörg",
	"jürgen",
	"Ødegård",
	"farm labourer",
	"labourer farm",
	"farm  labourer",
	strings.Repeat("wilhelmina jacoba ", 5),
	strings.Repeat("x", 70),
}

// TestKernelsMatchStringForms pins each symbol kernel to the strsim
// function it replaces, over the full corpus cross product (both argument
// orders, including equal pairs, so the fast paths are covered too).
func TestKernelsMatchStringForms(t *testing.T) {
	ids := make([]symbol.ID, len(kernelCorpus))
	for i, s := range kernelCorpus {
		ids[i] = symbol.Intern(s)
	}
	for i, a := range kernelCorpus {
		for j, b := range kernelCorpus {
			if got, want := NameSim(ids[i], ids[j]), strsim.NameSim(a, b); got != want {
				t.Errorf("NameSim(%q, %q) = %v, strsim = %v", a, b, got, want)
			}
			// The unmemoised kernel is the index's scorer: same float as
			// the string form, from either side of the pair.
			fa, fb := Feat(ids[i]), Feat(ids[j])
			if got, want := NameSimFeatures(fa, fb), strsim.NameSim(a, b); got != want || NameSimFeatures(fb, fa) != want {
				t.Errorf("NameSimFeatures(%q, %q) = %v / %v swapped, strsim = %v", a, b, got, NameSimFeatures(fb, fa), want)
			}
			if got, want := Jaccard(ids[i], ids[j]), strsim.Jaccard(a, b); got != want {
				t.Errorf("Jaccard(%q, %q) = %v, strsim = %v", a, b, got, want)
			}
			if got, want := TokenJaccard(ids[i], ids[j]), strsim.TokenJaccard(a, b); got != want {
				t.Errorf("TokenJaccard(%q, %q) = %v, strsim = %v", a, b, got, want)
			}
		}
	}
}

// TestKernelsMatchStringFormsRandom repeats the equivalence over random
// strings so the memo's open-addressed probing is exercised well past one
// slot per shard.
func TestKernelsMatchStringFormsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomVal := func() string {
		n := rng.Intn(30)
		buf := make([]byte, n)
		for i := range buf {
			switch rng.Intn(8) {
			case 0:
				buf[i] = ' '
			default:
				buf[i] = byte('a' + rng.Intn(6)) // tiny alphabet: frequent repeats
			}
		}
		return string(buf)
	}
	for i := 0; i < 5000; i++ {
		a, b := randomVal(), randomVal()
		ia, ib := symbol.Intern(a), symbol.Intern(b)
		if got, want := NameSim(ia, ib), strsim.NameSim(a, b); got != want {
			t.Fatalf("NameSim(%q, %q) = %v, strsim = %v", a, b, got, want)
		}
		fa, fb := Feat(ia), Feat(ib)
		if got, want := NameSimFeatures(fa, fb), strsim.NameSim(a, b); got != want || NameSimFeatures(fb, fa) != want {
			t.Fatalf("NameSimFeatures(%q, %q) = %v / %v swapped, strsim = %v", a, b, got, NameSimFeatures(fb, fa), want)
		}
		if got, want := Jaccard(ia, ib), strsim.Jaccard(a, b); got != want {
			t.Fatalf("Jaccard(%q, %q) = %v, strsim = %v", a, b, got, want)
		}
		if got, want := TokenJaccard(ia, ib), strsim.TokenJaccard(a, b); got != want {
			t.Fatalf("TokenJaccard(%q, %q) = %v, strsim = %v", a, b, got, want)
		}
	}
}

// TestMemoStableUnderRepeats checks that the memo answers repeated calls
// with the identical value (a corrupted slot would silently skew scores
// everywhere) and that it actually stores entries.
func TestMemoStableUnderRepeats(t *testing.T) {
	a := symbol.Intern("memorepeat alpha")
	b := symbol.Intern("memorepeat beta")
	first := NameSim(a, b)
	for i := 0; i < 100; i++ {
		if got := NameSim(a, b); got != first {
			t.Fatalf("NameSim repeat %d = %v, first = %v", i, got, first)
		}
	}
	if MemoEntries() == 0 {
		t.Fatal("MemoEntries() = 0 after memoised comparisons")
	}
}

// TestFeatConcurrent hammers the feature slab and the memo from many
// goroutines; racing CAS fills must all observe one immutable Features
// value per symbol. Run under -race in CI.
func TestFeatConcurrent(t *testing.T) {
	vals := make([]symbol.ID, 512)
	for i := range vals {
		vals[i] = symbol.Intern("concurrent value " + string(rune('a'+i%26)) + string(rune('0'+i%10)))
	}
	want := make([]float64, len(vals))
	for i := range vals {
		want[i] = NameSim(vals[i], vals[(i+1)%len(vals)])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range vals {
				fa, fb := Feat(vals[i]), Feat(vals[(i+1)%len(vals)])
				if fa == nil || fb == nil {
					t.Error("Feat returned nil")
					return
				}
				if got := NameSim(vals[i], vals[(i+1)%len(vals)]); got != want[i] {
					t.Errorf("concurrent NameSim %d = %v, want %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPackKeyCanonical checks the unordered-pair packing: symmetric,
// never zero for valid pairs, injective over swapped pairs.
func TestPackKeyCanonical(t *testing.T) {
	if PackKey(3, 7) != PackKey(7, 3) {
		t.Fatal("PackKey is not symmetric")
	}
	if PackKey(1, 1) == 0 {
		t.Fatal("PackKey of a valid pair must be nonzero (zero is the empty-slot sentinel)")
	}
	if PackKey(3, 7) == PackKey(3, 8) {
		t.Fatal("PackKey collides on distinct pairs")
	}
}

// TestProbeMatchesNameSim pins the match-table probe to the kernels it
// stands in for, over the corpus cross product and random values, with one
// Probe re-Set from value to value (so a table or a token slot that kept
// state from a longer or many-token predecessor would show): set from
// features it is NameSimFeatures from either side, set from the raw string
// it is strsim.NameSim — and neither path touches the memo.
func TestProbeMatchesNameSim(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals := append([]string(nil), kernelCorpus...)
	for i := 0; i < 300; i++ {
		buf := make([]byte, rng.Intn(30))
		for j := range buf {
			buf[j] = " \tabcdef"[rng.Intn(8)]
		}
		vals = append(vals, string(buf))
	}
	feats := make([]*Features, len(vals))
	for i, v := range vals {
		feats[i] = Feat(symbol.Intern(v))
	}
	memo := MemoEntries()
	var p, raw Probe
	for i, b := range vals {
		p.Set(feats[i])
		raw.SetString(b)
		for j, a := range vals {
			want := NameSimFeatures(feats[j], feats[i])
			if got := p.Sim(feats[j]); got != want || NameSimFeatures(feats[i], feats[j]) != want {
				t.Fatalf("Probe(%q).Sim(%q) = %v, NameSimFeatures = %v / %v swapped",
					b, a, got, want, NameSimFeatures(feats[i], feats[j]))
			}
			if got, want := raw.Sim(feats[j]), strsim.NameSim(b, a); got != want {
				t.Fatalf("raw Probe(%q).Sim(%q) = %v, strsim.NameSim = %v", b, a, got, want)
			}
		}
	}
	if got := MemoEntries(); got != memo {
		t.Fatalf("probes moved MemoEntries() from %d to %d", memo, got)
	}
}
