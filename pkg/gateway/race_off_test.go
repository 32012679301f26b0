//go:build !race

package gateway

// raceEnabled mirrors the -race build flag so allocation guards can skip
// themselves: the race runtime adds per-access bookkeeping that breaks
// AllocsPerRun counts.
const raceEnabled = false
