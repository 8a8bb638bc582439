//go:build mutants

package numerics

// HasLanes reports whether this machine runs the AVX2 lane bodies of the
// *_amd64.s files. The mutants runner (the root package's TestMutants, built
// under the same tag) skips a recorded mutant of those bodies where it is
// false: there no test can reach the mutated code.
func HasLanes() bool { return hasAVX2 }
