package strsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaroKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"martha", "marhta", 0.9444444444444445},
		{"dixon", "dicksonx", 0.7666666666666666},
		{"jellyfish", "smellyfish", 0.8962962962962964},
		{"abc", "abc", 1},
		{"", "", 0},
		{"abc", "", 0},
		{"", "abc", 0},
		{"a", "b", 0},
	}
	for _, c := range cases {
		if got := Jaro(c.a, c.b); !almost(got, c.want) {
			t.Errorf("Jaro(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"martha", "marhta", 0.9611111111111111},
		{"dixon", "dicksonx", 0.8133333333333332},
		{"smith", "smith", 1},
		{"tayler", "taylor", 8.0/9.0 + 4*0.1*(1-8.0/9.0)},
	}
	for _, c := range cases {
		if got := JaroWinkler(c.a, c.b); !almost(got, c.want) {
			t.Errorf("JaroWinkler(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestJaroSymmetry pins the symmetry the similarity index is built on: it
// scores a pair once, from whichever side holds the match tables, and
// writes the one float into both values' lists. The greedy match schedule
// is not symmetric by construction, so the check is exact (==) and drawn
// where the schedules could disagree — tiny alphabets, where every byte
// has several candidate positions — plus long strings across the 64-byte
// boundary between the table and the scratch kernels.
func TestJaroSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	letters := func(alphabet, maxLen int) string {
		b := make([]byte, 1+rng.Intn(maxLen))
		for i := range b {
			b[i] = byte('a' + rng.Intn(alphabet))
		}
		return string(b)
	}
	check := func(a, b string) {
		t.Helper()
		if x, y := Jaro(a, b), Jaro(b, a); x != y {
			t.Fatalf("Jaro(%q, %q) = %v, swapped = %v", a, b, x, y)
		}
		if x, y := JaroWinkler(a, b), JaroWinkler(b, a); x != y {
			t.Fatalf("JaroWinkler(%q, %q) = %v, swapped = %v", a, b, x, y)
		}
	}
	for i := 0; i < 1_000_000; i++ {
		alphabet := 3 + rng.Intn(3)
		check(letters(alphabet, 12), letters(alphabet, 12))
	}
	for i := 0; i < 100_000; i++ {
		alphabet := 3 + rng.Intn(3)
		ta := []string{letters(alphabet, 6), letters(alphabet, 6), letters(alphabet, 6)}[:1+rng.Intn(3)]
		tb := []string{letters(alphabet, 6), letters(alphabet, 6), letters(alphabet, 6)}[:1+rng.Intn(3)]
		if x, y := SymMongeElkanTokens(ta, tb), SymMongeElkanTokens(tb, ta); x != y {
			t.Fatalf("SymMongeElkanTokens(%q, %q) = %v, swapped = %v", ta, tb, x, y)
		}
	}
	for i := 0; i < 50_000; i++ {
		// randomName runs 0..79 bytes; padding one side lands pairs on
		// both sides of the boundary and across it.
		a, b := randomName(rng), randomName(rng)
		if i%2 == 0 {
			a += "abcdefghijklmnopqrstuvwxyz abcdefghijklmnopqrstuvwxyz"[:rng.Intn(50)]
		}
		check(a, b)
		if x, y := SymMongeElkanTokens(Fields(a), Fields(b)), SymMongeElkanTokens(Fields(b), Fields(a)); x != y {
			t.Fatalf("SymMongeElkanTokens(%q, %q) = %v, swapped = %v", a, b, x, y)
		}
	}
}

func TestJaroWinklerBounds(t *testing.T) {
	f := func(a, b string) bool {
		s := JaroWinkler(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestJaroWinklerAtLeastJaro(t *testing.T) {
	f := func(a, b string) bool {
		return JaroWinkler(a, b) >= Jaro(a, b)-1e-12
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestBigrams(t *testing.T) {
	g := Bigrams("banana")
	want := map[string]int{"ba": 1, "an": 2, "na": 2}
	if len(g) != len(want) {
		t.Fatalf("Bigrams(banana) = %v, want %v", g, want)
	}
	for k, v := range want {
		if g[k] != v {
			t.Errorf("Bigrams(banana)[%q] = %d, want %d", k, g[k], v)
		}
	}
	if len(Bigrams("a")) != 0 {
		t.Error("Bigrams of single char should be empty")
	}
	if len(Bigrams("")) != 0 {
		t.Error("Bigrams of empty string should be empty")
	}
}

func TestJaccardKnownValues(t *testing.T) {
	// bigrams("night") = {ni ig gh ht}, bigrams("nacht") = {na ac ch ht}
	// intersection {ht} = 1, union = 7
	if got := Jaccard("night", "nacht"); !almost(got, 1.0/7.0) {
		t.Errorf("Jaccard(night, nacht) = %v, want 1/7", got)
	}
	if got := Jaccard("same", "same"); got != 1 {
		t.Errorf("Jaccard identical = %v, want 1", got)
	}
	if got := Jaccard("", ""); got != 0 {
		t.Errorf("Jaccard empty = %v, want 0", got)
	}
}

func TestJaccardSymmetricBounded(t *testing.T) {
	f := func(a, b string) bool {
		s := Jaccard(a, b)
		return s >= 0 && s <= 1 && almost(s, Jaccard(b, a))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestTokenJaccard(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"farm servant", "farm labourer", 1.0 / 3.0},
		{"farmer", "farmer", 1},
		{"a b c", "a b c", 1},
		{"", "farmer", 0},
		{"  spaced   out  ", "spaced out", 1},
	}
	for _, c := range cases {
		if got := TokenJaccard(c.a, c.b); !almost(got, c.want) {
			t.Errorf("TokenJaccard(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestYearSim(t *testing.T) {
	cases := []struct {
		a, b, maxDiff int
		want          float64
	}{
		{1880, 1880, 5, 1},
		{1880, 1882, 5, 0.6},
		{1880, 1885, 5, 0},
		{1880, 1900, 5, 0},
		{0, 1880, 5, 0},
		{1882, 1880, 5, 0.6},
	}
	for _, c := range cases {
		if got := YearSim(c.a, c.b, c.maxDiff); !almost(got, c.want) {
			t.Errorf("YearSim(%d, %d, %d) = %v, want %v", c.a, c.b, c.maxDiff, got, c.want)
		}
	}
}

func TestGeoDistance(t *testing.T) {
	// Portree (57.4125, -6.1964) to Kilmore (57.24, -5.90) should be ~25 km.
	d := GeoDistanceKm(57.4125, -6.1964, 57.24, -5.90)
	if d < 20 || d > 35 {
		t.Errorf("GeoDistanceKm Portree-Kilmore = %v, want ~25", d)
	}
	if got := GeoDistanceKm(57, -6, 57, -6); !almost(got, 0) {
		t.Errorf("distance to self = %v, want 0", got)
	}
	if d := GeoDistanceKm(57.4125, -6.1964, 57.5876, -6.3637); d < 15 || d > 30 {
		t.Errorf("GeoDistanceKm Portree-Uig = %v, want ~22", d)
	}
}

func TestGeoSim(t *testing.T) {
	if got := GeoSim(57, -6, 57, -6, 50); got != 1 {
		t.Errorf("GeoSim same point = %v, want 1", got)
	}
	if got := GeoSim(0, 0, 57, -6, 50); got != 0 {
		t.Errorf("GeoSim missing geocode = %v, want 0", got)
	}
	far := GeoSim(57, -6, 55, -4, 50)
	if far != 0 {
		t.Errorf("GeoSim far points = %v, want 0", far)
	}
}

// quickCfg constrains generated strings to short lowercase ASCII, the domain
// strsim operates on, keeping property tests fast and meaningful.
func quickCfg() *quick.Config {
	r := rand.New(rand.NewSource(42))
	return &quick.Config{
		MaxCount: 300,
		Rand:     r,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				n := r.Intn(12)
				b := make([]byte, n)
				for j := range b {
					b[j] = byte('a' + r.Intn(26))
				}
				vals[i] = reflect.ValueOf(string(b))
			}
		},
	}
}

func TestMongeElkan(t *testing.T) {
	// The symmetric score is the minimum of the two directed scores, so the
	// unmatched "ann" lowers it whichever side it is on.
	for _, p := range [][2]string{{"mary", "mary ann"}, {"mary ann", "mary"}} {
		if got := SymMongeElkan(p[0], p[1]); got >= 1 || got < 0.5 {
			t.Errorf("ME(%q, %q) = %v, want mid-range (ann unmatched)", p[0], p[1], got)
		}
	}
	if got := SymMongeElkan("", "mary"); got != 0 {
		t.Errorf("empty ME = %v", got)
	}
}

func TestSymMongeElkanTransposedNames(t *testing.T) {
	got := SymMongeElkan("jane elizabeth", "elizabeth jane")
	if got != 1 {
		t.Errorf("transposed double forenames = %v, want 1", got)
	}
	partial := SymMongeElkan("mary ann", "mary")
	if partial >= 1 || partial < 0.5 {
		t.Errorf("partial double forename = %v, want mid-range", partial)
	}
}

func TestSymMongeElkanSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return almost(SymMongeElkan(a, b), SymMongeElkan(b, a))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestNameSim(t *testing.T) {
	// Single tokens: identical to Jaro-Winkler.
	if NameSim("mary", "marry") != JaroWinkler("mary", "marry") {
		t.Error("single-token NameSim should equal Jaro-Winkler")
	}
	// Transposed doubles: rescued by Monge-Elkan.
	if got := NameSim("jane elizabeth", "elizabeth jane"); got != 1 {
		t.Errorf("NameSim transposed = %v, want 1", got)
	}
	// NameSim never scores below Jaro-Winkler.
	f := func(a, b string) bool {
		return NameSim(a, b) >= JaroWinkler(a, b)-1e-12
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
