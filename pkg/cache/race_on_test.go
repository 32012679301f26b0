//go:build race

package cache

// raceEnabled mirrors the -race build flag; see race_off_test.go.
const raceEnabled = true
