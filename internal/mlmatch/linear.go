package mlmatch

import (
	"math"
	"math/rand"
)

// linearModel is a weight vector plus bias shared by the logistic
// regression and linear SVM.
type linearModel struct {
	name string
	w    [NumFeatures]float64
	b    float64
}

func (m *linearModel) Name() string { return m.name }

func (m *linearModel) score(x [NumFeatures]float64) float64 {
	s := m.b
	for i := range x {
		s += m.w[i] * x[i]
	}
	return s
}

// Predict implements Classifier.
func (m *linearModel) Predict(x [NumFeatures]float64) bool { return m.score(x) > 0 }

// LogisticRegression trains a binary logistic-regression matcher with
// mini-batch SGD and L2 regularisation, at fixed hyperparameters.
type LogisticRegression struct{}

// The logistic regression's hyperparameters.
const (
	logRegEpochs       = 60
	logRegLearningRate = 0.3
	logRegL2           = 1e-4
	logRegSeed         = 1
)

// Train implements Trainer.
func (LogisticRegression) Train(examples []Example) Classifier {
	m := &linearModel{name: "logreg"}
	if len(examples) == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(logRegSeed))
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	// Class weighting compensates the heavy non-match majority.
	pos := 0
	for _, e := range examples {
		if e.Y {
			pos++
		}
	}
	posW, negW := 1.0, 1.0
	if pos > 0 && pos < len(examples) {
		posW = float64(len(examples)) / (2 * float64(pos))
		negW = float64(len(examples)) / (2 * float64(len(examples)-pos))
	}
	for epoch := 0; epoch < logRegEpochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		lr := logRegLearningRate / (1 + 0.05*float64(epoch))
		for _, i := range idx {
			e := &examples[i]
			y := 0.0
			weight := negW
			if e.Y {
				y = 1
				weight = posW
			}
			p := sigmoid(m.score(e.X))
			g := weight * (p - y)
			for j := range m.w {
				m.w[j] -= lr * (g*e.X[j] + logRegL2*m.w[j])
			}
			m.b -= lr * g
		}
	}
	return m
}

func sigmoid(z float64) float64 {
	if z > 30 {
		return 1
	}
	if z < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// LinearSVM trains a linear soft-margin SVM with the Pegasos-style
// subgradient method on the hinge loss, at fixed hyperparameters.
type LinearSVM struct{}

// The linear SVM's hyperparameters.
const (
	svmEpochs = 60
	svmLambda = 1e-4
	svmSeed   = 2
)

// Train implements Trainer.
func (LinearSVM) Train(examples []Example) Classifier {
	m := &linearModel{name: "svm"}
	if len(examples) == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(svmSeed))
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	pos := 0
	for _, e := range examples {
		if e.Y {
			pos++
		}
	}
	posW, negW := 1.0, 1.0
	if pos > 0 && pos < len(examples) {
		posW = float64(len(examples)) / (2 * float64(pos))
		negW = float64(len(examples)) / (2 * float64(len(examples)-pos))
	}
	step := 0
	for epoch := 0; epoch < svmEpochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			step++
			e := &examples[i]
			y := -1.0
			weight := negW
			if e.Y {
				y = 1
				weight = posW
			}
			lr := 1 / (svmLambda * float64(step))
			if lr > 10 {
				lr = 10
			}
			margin := y * m.score(e.X)
			for j := range m.w {
				m.w[j] *= 1 - lr*svmLambda
			}
			if margin < 1 {
				for j := range m.w {
					m.w[j] += lr * weight * y * e.X[j]
				}
				m.b += lr * weight * y * 0.1
			}
		}
	}
	return m
}
