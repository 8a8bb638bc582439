//go:build race

package rtlsim

func init() { raceEnabled = true }
