// Package mlmatch is the supervised entity-matching baseline standing in
// for Magellan in Table 4 of the paper. Magellan itself is a Python
// toolkit; what the paper uses from it is four standard classifiers
// (an SVM, a random forest, a logistic regression, and a decision tree)
// trained on pairwise similarity features. This package implements those
// four classifier families from scratch on the Go standard library, plus
// the feature extraction, training-regime handling (role-pair-specific
// versus all-role-pairs training data), and evaluation plumbing.
package mlmatch

import (
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/strsim"
)

// NumFeatures is the dimensionality of the pairwise feature vector.
const NumFeatures = 12

// FeatureNames documents the feature vector layout.
var FeatureNames = [NumFeatures]string{
	"first_jw", "first_exact", "surname_jw", "surname_exact",
	"address_jaccard", "address_exact", "occupation_jaccard",
	"year_sim", "year_diff_norm", "gender_match", "first_missing", "addr_missing",
}

// Features extracts the pairwise similarity feature vector used by every
// classifier.
func Features(a, b *model.Record) [NumFeatures]float64 {
	var f [NumFeatures]float64
	if a.FirstName() != "" && b.FirstName() != "" {
		f[0] = strsim.JaroWinkler(a.FirstName(), b.FirstName())
		if a.FirstName() == b.FirstName() {
			f[1] = 1
		}
	} else {
		f[10] = 1
	}
	if a.Surname() != "" && b.Surname() != "" {
		f[2] = strsim.JaroWinkler(a.Surname(), b.Surname())
		if a.Surname() == b.Surname() {
			f[3] = 1
		}
	}
	if a.Address() != "" && b.Address() != "" {
		f[4] = strsim.Jaccard(a.Address(), b.Address())
		if a.Address() == b.Address() {
			f[5] = 1
		}
	} else {
		f[11] = 1
	}
	if a.Occupation() != "" && b.Occupation() != "" {
		f[6] = strsim.TokenJaccard(a.Occupation(), b.Occupation())
	}
	f[7] = strsim.YearSim(a.Year, b.Year, 40)
	dy := a.Year - b.Year
	if dy < 0 {
		dy = -dy
	}
	f[8] = float64(dy) / 100
	if f[8] > 1 {
		f[8] = 1
	}
	if g := a.EffectiveGender(); g != model.GenderUnknown && g == b.EffectiveGender() {
		f[9] = 1
	}
	return f
}

// Example is one labelled training pair.
type Example struct {
	X [NumFeatures]float64
	Y bool // true = match
}

// Classifier is a trained binary matcher over pair feature vectors.
type Classifier interface {
	// Name identifies the classifier family ("svm", "rf", "logreg", "dt").
	Name() string
	// Predict reports whether the feature vector is classified a match.
	Predict(x [NumFeatures]float64) bool
}

// Trainer fits a classifier on labelled examples.
type Trainer interface {
	Train(examples []Example) Classifier
}
