package anonymize

import (
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/eval"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/strsim"
)

func sample(t *testing.T) *model.Dataset {
	t.Helper()
	return dataset.Generate(dataset.IOS().Scaled(0.12)).Dataset
}

func TestAnonymizeDoesNotModifyOriginal(t *testing.T) {
	d := sample(t)
	before := append([]model.Record(nil), d.Records...)
	Anonymize(d, -37)
	for i := range d.Records {
		if d.Records[i] != before[i] {
			t.Fatal("original data set modified")
		}
	}
}

func TestAnonymizeReplacesAllNames(t *testing.T) {
	d := sample(t)
	anon, mapping := Anonymize(d, -37)
	if len(mapping) == 0 {
		t.Fatal("empty name mapping")
	}
	// The privacy property is that no name maps to itself: a record's
	// anonymised name must always differ from its sensitive original.
	// (A replacement may coincide with a *different* person's sensitive
	// name when the corpora overlap; that does not identify anyone.)
	for i := range anon.Records {
		orig, got := d.Records[i].FirstName(), anon.Records[i].FirstName()
		if orig != "" && got == orig {
			t.Fatalf("record %d: first name %q survived anonymisation", i, orig)
		}
		orig, got = d.Records[i].Surname(), anon.Records[i].Surname()
		if orig != "" && got == orig {
			t.Fatalf("record %d: surname %q survived anonymisation", i, orig)
		}
	}
}

func TestAnonymizeConsistentMapping(t *testing.T) {
	d := sample(t)
	anon, mapping := Anonymize(d, -37)
	// The same sensitive value must always map to the same public value.
	for i := range d.Records {
		orig := d.Records[i].Surname()
		if orig == "" {
			continue
		}
		got := anon.Records[i].Surname()
		if want := mapping[orig]; got != want {
			t.Fatalf("record %d: surname %q mapped to %q, mapping says %q", i, orig, got, want)
		}
	}
}

func TestAnonymizeYearShift(t *testing.T) {
	d := sample(t)
	anon, _ := Anonymize(d, -37)
	for i := range d.Records {
		if d.Records[i].Year == 0 {
			continue
		}
		if anon.Records[i].Year != d.Records[i].Year-37 {
			t.Fatalf("record %d: year %d -> %d, want offset -37", i, d.Records[i].Year, anon.Records[i].Year)
		}
	}
	// Temporal distances are preserved exactly.
	if len(d.Records) >= 2 {
		d0, d1 := d.Records[0].Year, d.Records[1].Year
		a0, a1 := anon.Records[0].Year, anon.Records[1].Year
		if d0 != 0 && d1 != 0 && (d1-d0) != (a1-a0) {
			t.Error("temporal distance not preserved")
		}
	}
}

func TestCauseKAnonymity(t *testing.T) {
	d := sample(t)
	anon, _ := Anonymize(d, -37)
	// Every cause in the anonymised data must occur at least K times within
	// its gender-age stratum, or be "not known".
	type stratum struct {
		g model.Gender
		a int
	}
	counts := map[stratum]map[string]int{}
	for i := range anon.Certificates {
		c := &anon.Certificates[i]
		if c.Type != model.Death || c.Cause == "" {
			continue
		}
		rid := c.Roles[model.Dd]
		st := stratum{anon.Record(rid).Gender, ageStratum(c.Age)}
		if counts[st] == nil {
			counts[st] = map[string]int{}
		}
		counts[st][c.Cause]++
	}
	for st, m := range counts {
		for cause, n := range m {
			if cause == "not known" {
				continue
			}
			// A frequent original cause stays; a rare cause was replaced by
			// a frequent one, increasing its count. Counts below K can only
			// remain if the stratum had no frequent cause at all.
			if n < kAnonymity {
				hasFrequent := false
				for _, cn := range m {
					if cn >= kAnonymity {
						hasFrequent = true
					}
				}
				if hasFrequent {
					t.Errorf("stratum %+v: cause %q occurs %d < K=%d times", st, cause, n, kAnonymity)
				}
			}
		}
	}
}

// TestCauseKAnonymityExactK pins k at 10, not merely at the invariant
// TestCauseKAnonymity checks: in one stratum (women dying under 20) a cause
// recorded 10 times survives, in another (men dying at 40 or over) a cause
// recorded 9 times, the stratum's only cause, becomes "not known". Any k
// below 10 keeps the second, any above drops the first.
func TestCauseKAnonymityExactK(t *testing.T) {
	d := &model.Dataset{Name: "k"}
	death := func(g model.Gender, age int, cause string) {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: model.CertID(len(d.Certificates)), Role: model.Dd, Gender: g,
			First: model.Intern("ann"), Sur: model.Intern("ross"), Year: 1880, Truth: model.NoPerson,
		})
		d.Certificates = append(d.Certificates, model.Certificate{
			ID: model.CertID(len(d.Certificates)), Type: model.Death, Year: 1880, Age: age, Cause: cause,
			Roles: map[model.Role]model.RecordID{model.Dd: id},
		})
	}
	for i := 0; i < 10; i++ {
		death(model.Female, 12, "phthisis")
	}
	for i := 0; i < 9; i++ {
		death(model.Male, 61, "bronchitis")
	}
	anon, _ := Anonymize(d, 0)
	for i, c := range anon.Certificates {
		want := "phthisis"
		if i >= 10 {
			want = "not known"
		}
		if c.Cause != want {
			t.Fatalf("certificate %d (%s, recorded %d times in its stratum): cause %q, want %q", i, d.Certificates[i].Cause, 10-i/10, c.Cause, want)
		}
	}
}

func TestNameMappingPreservesSimilarityStructure(t *testing.T) {
	d := sample(t)
	_, mapping := Anonymize(d, -37)
	// Highly similar sensitive names should map into the same public
	// cluster, hence remain similar, in most cases. We check the aggregate:
	// among sensitive pairs with JW >= 0.92, at least half of the mapped
	// pairs keep JW >= 0.7.
	var names []string
	seen := map[string]bool{}
	for i := range d.Records {
		if v := d.Records[i].Surname(); v != "" && !seen[v] {
			seen[v] = true
			names = append(names, v)
		}
		if len(names) > 150 {
			break
		}
	}
	similarPairs, preserved := 0, 0
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if strsim.JaroWinkler(names[i], names[j]) < 0.92 {
				continue
			}
			similarPairs++
			ma, mb := mapping[names[i]], mapping[names[j]]
			if ma != "" && mb != "" && strsim.JaroWinkler(ma, mb) >= 0.7 {
				preserved++
			}
		}
	}
	if similarPairs == 0 {
		t.Skip("no similar surname pairs in sample")
	}
	if float64(preserved) < 0.5*float64(similarPairs) {
		t.Errorf("similarity structure preserved for %d/%d similar pairs; want >= 50%%", preserved, similarPairs)
	}
}

func TestClusterNames(t *testing.T) {
	freq := map[string]int{"macdonald": 100, "macdonld": 5, "smith": 50, "smyth": 8}
	clusters := clusterNames([]string{"macdonald", "macdonld", "smith", "smyth"}, freq, 0.85)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
	// Most frequent member is the centre.
	if clusters[0].centre != "macdonald" {
		t.Errorf("first cluster centre = %q", clusters[0].centre)
	}
}

func TestVariantSuffix(t *testing.T) {
	if variantSuffix(0) != "a" || variantSuffix(25) != "z" || variantSuffix(26) != "aa" {
		t.Errorf("variantSuffix sequence wrong: %q %q %q",
			variantSuffix(0), variantSuffix(25), variantSuffix(26))
	}
}

func TestAgeStratum(t *testing.T) {
	cases := map[int]int{-1: 3, 0: 0, 19: 0, 20: 1, 39: 1, 40: 2, 90: 2}
	for age, want := range cases {
		if got := ageStratum(age); got != want {
			t.Errorf("ageStratum(%d) = %d, want %d", age, got, want)
		}
	}
}

func TestAnonymizeDeterministic(t *testing.T) {
	d := sample(t)
	a1, m1 := Anonymize(d, -37)
	a2, m2 := Anonymize(d, -37)
	if len(m1) != len(m2) {
		t.Fatal("mapping sizes differ between runs")
	}
	for k, v := range m1 {
		if m2[k] != v {
			t.Fatalf("mapping for %q differs: %q vs %q", k, v, m2[k])
		}
	}
	for i := range a1.Records {
		if a1.Records[i] != a2.Records[i] {
			t.Fatal("anonymised records differ between runs")
		}
	}
}

func TestAnonymizedDataStillResolvable(t *testing.T) {
	// The headline promise of Sec. 9: the anonymised data keeps the
	// similarity structure, so the ER pipeline still works on it.
	d := sample(t)
	anon, _ := Anonymize(d, -37)
	// Truth survives anonymisation (same person ids), so quality is
	// measurable.
	pr := er.Run(anon, depgraph.DefaultConfig(), er.DefaultConfig())
	rp := model.MakeRolePair(model.Bm, model.Bm)
	q := eval.QualityOf(eval.Compare(pr.Result.Store.MatchPairs(rp), anon.TruePairs(rp)))
	// The rank-based cluster mapping flattens name frequencies and maps
	// some distinct sensitive names onto similar public ones, so the
	// anonymised data is measurably harder than the original (the paper
	// offers it for training and demos, not benchmark replication). It
	// must remain clearly resolvable though.
	if q.Precision < 70 || q.Recall < 60 {
		t.Errorf("anonymised data lost too much structure: %v", q)
	}
}
