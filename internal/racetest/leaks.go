package racetest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main is a test package's TestMain: it runs the tests, and then fails the
// package when a goroutine with a frame of this repository is still alive a
// second after they passed (SPEC guarantee 8: nothing is left after Close).
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := lingering(time.Second); left != nil {
			fmt.Fprintf(os.Stderr, "%d goroutines outlived the tests by more than 1s:\n\n%s\n", len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// lingering returns the stacks of the other goroutines with a frame of
// this module (repro/...), their creator's included, once none is left or
// grace has passed.
func lingering(grace time.Duration) []string {
	buf := make([]byte, 8<<20)
	for deadline := time.Now().Add(grace); ; time.Sleep(10 * time.Millisecond) {
		var left []string
		// The first stack is this goroutine's.
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")[1:] {
			if strings.Contains(g, "repro/") {
				left = append(left, g)
			}
		}
		if left == nil || time.Now().After(deadline) {
			return left
		}
	}
}
