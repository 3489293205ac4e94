package mlmatch

import (
	"math/rand"
	"sort"
)

// treeNode is one node of a CART decision tree.
type treeNode struct {
	// leaf fields
	isLeaf bool
	label  bool
	// split fields
	feature     int
	threshold   float64
	left, right *treeNode
}

// DecisionTreeModel is a trained CART classifier.
type DecisionTreeModel struct {
	root *treeNode
	name string
}

// Name implements Classifier.
func (m *DecisionTreeModel) Name() string { return m.name }

// Predict implements Classifier.
func (m *DecisionTreeModel) Predict(x [NumFeatures]float64) bool {
	n := m.root
	for n != nil && !n.isLeaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return false
	}
	return n.label
}

// DecisionTree trains a CART tree with Gini impurity.
type DecisionTree struct {
	MaxDepth    int
	MinLeafSize int
	// FeatureSubset, when positive, restricts each split to a random subset
	// of features (used by the random forest).
	FeatureSubset int
	Seed          int64
}

// NewDecisionTree returns defaults suitable for pair matching.
func NewDecisionTree() *DecisionTree {
	return &DecisionTree{MaxDepth: 8, MinLeafSize: 4, Seed: 3}
}

// Train implements Trainer.
func (t *DecisionTree) Train(examples []Example) Classifier {
	rng := rand.New(rand.NewSource(t.Seed))
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	root := t.grow(examples, idx, 0, rng)
	return &DecisionTreeModel{root: root, name: "dt"}
}

func (t *DecisionTree) grow(ex []Example, idx []int, depth int, rng *rand.Rand) *treeNode {
	pos := 0
	for _, i := range idx {
		if ex[i].Y {
			pos++
		}
	}
	majority := pos*2 >= len(idx)
	if depth >= t.MaxDepth || len(idx) <= t.MinLeafSize || pos == 0 || pos == len(idx) {
		return &treeNode{isLeaf: true, label: majority}
	}
	feat, thr, ok := t.bestSplit(ex, idx, rng)
	if !ok {
		return &treeNode{isLeaf: true, label: majority}
	}
	var li, ri []int
	for _, i := range idx {
		if ex[i].X[feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &treeNode{isLeaf: true, label: majority}
	}
	return &treeNode{
		feature: feat, threshold: thr,
		left:  t.grow(ex, li, depth+1, rng),
		right: t.grow(ex, ri, depth+1, rng),
	}
}

// bestSplit finds the (feature, threshold) pair minimising weighted Gini
// impurity over candidate thresholds at value midpoints.
func (t *DecisionTree) bestSplit(ex []Example, idx []int, rng *rand.Rand) (int, float64, bool) {
	features := make([]int, NumFeatures)
	for i := range features {
		features[i] = i
	}
	if t.FeatureSubset > 0 && t.FeatureSubset < NumFeatures {
		rng.Shuffle(len(features), func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:t.FeatureSubset]
	}
	bestGini := 2.0
	bestFeat, bestThr := -1, 0.0
	type fv struct {
		v float64
		y bool
	}
	for _, f := range features {
		vals := make([]fv, 0, len(idx))
		for _, i := range idx {
			vals = append(vals, fv{ex[i].X[f], ex[i].Y})
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		totalPos := 0
		for _, v := range vals {
			if v.y {
				totalPos++
			}
		}
		leftPos, leftN := 0, 0
		for k := 0; k < len(vals)-1; k++ {
			if vals[k].y {
				leftPos++
			}
			leftN++
			if vals[k].v == vals[k+1].v {
				continue
			}
			rightPos := totalPos - leftPos
			rightN := len(vals) - leftN
			g := weightedGini(leftPos, leftN, rightPos, rightN)
			if g < bestGini {
				bestGini = g
				bestFeat = f
				bestThr = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	return bestFeat, bestThr, bestFeat >= 0
}

func weightedGini(lp, ln, rp, rn int) float64 {
	gini := func(p, n int) float64 {
		if n == 0 {
			return 0
		}
		q := float64(p) / float64(n)
		return 2 * q * (1 - q)
	}
	total := float64(ln + rn)
	return float64(ln)/total*gini(lp, ln) + float64(rn)/total*gini(rp, rn)
}

// RandomForestModel is a majority-vote ensemble of CART trees.
type RandomForestModel struct {
	trees []*DecisionTreeModel
}

// Name implements Classifier.
func (m *RandomForestModel) Name() string { return "rf" }

// Predict implements Classifier.
func (m *RandomForestModel) Predict(x [NumFeatures]float64) bool {
	votes := 0
	for _, t := range m.trees {
		if t.Predict(x) {
			votes++
		}
	}
	return votes*2 > len(m.trees)
}

// RandomForest trains a bagged ensemble of feature-subsampled trees, at
// fixed hyperparameters.
type RandomForest struct{}

// The random forest's hyperparameters: the ensemble size, and the settings
// of each tree it grows.
const (
	forestSeed          = 4
	forestTrees         = 15
	forestMaxDepth      = 8
	forestMinLeafSize   = 3
	forestFeatureSubset = 4
)

// Train implements Trainer.
func (RandomForest) Train(examples []Example) Classifier {
	m := &RandomForestModel{}
	if len(examples) == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(forestSeed))
	for k := 0; k < forestTrees; k++ {
		// Bootstrap sample.
		sample := make([]Example, len(examples))
		for i := range sample {
			sample[i] = examples[rng.Intn(len(examples))]
		}
		dt := &DecisionTree{
			MaxDepth: forestMaxDepth, MinLeafSize: forestMinLeafSize,
			FeatureSubset: forestFeatureSubset, Seed: rng.Int63(),
		}
		m.trees = append(m.trees, dt.Train(sample).(*DecisionTreeModel))
	}
	return m
}
