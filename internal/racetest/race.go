//go:build race

// Package racetest tells tests whether the race detector instruments the
// build: allocation budgets skip themselves under it, since it allocates on
// its own account.
package racetest

// Enabled reports whether this is a -race build.
const Enabled = true
