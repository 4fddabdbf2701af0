//go:build race

package main

// raceEnabled reports a race-built test binary; TestMain then builds
// numabench with the race detector too.
const raceEnabled = true
