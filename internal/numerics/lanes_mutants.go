//go:build mutants

package numerics

// HasLanes reports whether this machine runs the lane bodies of the
// *_amd64.s files written for isa, "avx2", "avx512" or "avx512fp16". The
// mutants runner (the root package's TestMutants, built under the same tag)
// skips a recorded mutant of such a body, or of code its tests reach only
// through one, where it is false: there no test can reach the mutated code.
func HasLanes(isa string) bool {
	switch isa {
	case "avx2":
		return hasAVX2
	case "avx512":
		return hasAVX512
	case "avx512fp16":
		return hasAVX512FP16
	}
	return false
}
