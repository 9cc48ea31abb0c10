//go:build !race

package racetest

// Enabled reports whether this is a -race build.
const Enabled = false
