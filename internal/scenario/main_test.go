package scenario

import (
	"testing"

	"repro/internal/racetest"
)

// TestMain fails the package when a goroutine of this repository outlives
// its tests by more than a second (SPEC guarantee 8).
func TestMain(m *testing.M) { racetest.Main(m) }
