//go:build race

package main

// raceEnabled lets the smoke test skip the full report grid under the race
// detector, as internal/experiments does.
const raceEnabled = true
