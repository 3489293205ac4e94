package mlmatch

import (
	"math/rand"
	"sort"

	"github.com/snaps/snaps/internal/model"
)

// Regime selects how training data is assembled, mirroring the paper's two
// Magellan settings (Sec. 10).
type Regime uint8

// Training regimes.
const (
	// RolePairSpecific trains on labelled pairs of the evaluated role pair
	// only — the setting where Magellan can beat SNAPS but which requires
	// per-role-pair ground truth.
	RolePairSpecific Regime = iota
	// AllRolePairs trains on labelled pairs of every role pair — the
	// realistic setting with incomplete ground truth, where quality drops.
	AllRolePairs
)

// String returns "specific" or "all".
func (r Regime) String() string {
	if r == RolePairSpecific {
		return "specific"
	}
	return "all"
}

// LabelledPair is a candidate pair with its ground-truth label.
type LabelledPair struct {
	A, B model.RecordID
	Y    bool
}

// SplitPairs partitions candidate pairs into train and test sets with the
// given train fraction, deterministically by seed. Labels come from record
// ground truth.
func SplitPairs(d *model.Dataset, cands [][2]model.RecordID, trainFrac float64, seed int64) (train, test []LabelledPair) {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]LabelledPair, 0, len(cands))
	for _, c := range cands {
		a, b := d.Record(c[0]), d.Record(c[1])
		y := a.Truth != model.NoPerson && a.Truth == b.Truth
		pairs = append(pairs, LabelledPair{A: c[0], B: c[1], Y: y})
	}
	sort.Slice(pairs, func(i, j int) bool {
		return model.MakePairKey(pairs[i].A, pairs[i].B) < model.MakePairKey(pairs[j].A, pairs[j].B)
	})
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	cut := int(float64(len(pairs)) * trainFrac)
	return pairs[:cut], pairs[cut:]
}

// Examples converts labelled pairs to feature examples.
func Examples(d *model.Dataset, pairs []LabelledPair) []Example {
	out := make([]Example, len(pairs))
	for i, p := range pairs {
		out[i] = Example{X: Features(d.Record(p.A), d.Record(p.B)), Y: p.Y}
	}
	return out
}

// Predict classifies candidate pairs with a trained classifier and returns
// the predicted match pair set.
func Predict(d *model.Dataset, c Classifier, pairs []LabelledPair) map[model.PairKey]bool {
	out := map[model.PairKey]bool{}
	for _, p := range pairs {
		if c.Predict(Features(d.Record(p.A), d.Record(p.B))) {
			out[model.MakePairKey(p.A, p.B)] = true
		}
	}
	return out
}

// TruthOf extracts the truth pair set of labelled pairs (for scoring the
// classifier on exactly the pairs it saw).
func TruthOf(pairs []LabelledPair) map[model.PairKey]bool {
	out := map[model.PairKey]bool{}
	for _, p := range pairs {
		if p.Y {
			out[model.MakePairKey(p.A, p.B)] = true
		}
	}
	return out
}

// DefaultTrainers returns the four classifier families the paper averages
// over: SVM, random forest, logistic regression, decision tree.
func DefaultTrainers() []Trainer {
	return []Trainer{
		LinearSVM{},
		RandomForest{},
		LogisticRegression{},
		NewDecisionTree(),
	}
}

// FilterRolePair keeps only the labelled pairs with the given role pair.
func FilterRolePair(d *model.Dataset, pairs []LabelledPair, rp model.RolePair) []LabelledPair {
	var out []LabelledPair
	for _, p := range pairs {
		if model.MakeRolePair(d.Record(p.A).Role, d.Record(p.B).Role) == rp {
			out = append(out, p)
		}
	}
	return out
}
