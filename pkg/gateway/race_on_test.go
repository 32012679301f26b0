//go:build race

package gateway

// raceEnabled mirrors the -race build flag; see race_off_test.go.
const raceEnabled = true
