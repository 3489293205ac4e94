// Package snaps is a from-scratch Go reproduction of SNAPS — the
// unsupervised graph-based entity-resolution system for accurate and
// efficient family pedigree search of Kirielle et al. (EDBT 2022).
//
// The implementation lives under internal/ (see DESIGN.md for the module
// map); cmd/snaps is the end-to-end CLI and web interface, cmd/experiments
// regenerates every table and figure of the paper's evaluation, the
// benchmarks in bench_test.go wrap each experiment in a testing.B target,
// and examples/quickstart is the smallest complete program. Time and memory
// are measured by one instrument, the bench/ module (BENCHMARK.json).
package snaps
