module github.com/snaps/snaps/bench

go 1.22

require github.com/snaps/snaps v0.0.0

replace github.com/snaps/snaps => ../
