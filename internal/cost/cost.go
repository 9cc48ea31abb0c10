// Package cost defines the endpoint software-cost model shared by the three
// communication stacks. The reproduction cannot run 2005-era managed
// runtimes (Mono 1.x JIT, Sun JVM 1.4, MPICH 1.2 on GNU toolchains), whose
// per-call and per-byte software costs dominate the paper's latency table
// (MPI 100 µs, Mono 273 µs, Java RMI 520 µs round trips on the same wire).
// Instead each stack charges a calibrated Model at its endpoints; package
// profile holds the calibrated constants and EXPERIMENTS.md documents the
// calibration against the paper's numbers.
package cost

import (
	"time"

	"repro/internal/netsim"
)

// Model is charged at message endpoints.
type Model struct {
	// PerMessage is charged once per message sent and once per message
	// received (marshalling, dispatch, protocol bookkeeping).
	PerMessage time.Duration
	// PerKB is charged per KiB of message body at each endpoint; it is
	// the term that caps large-message bandwidth below link rate.
	PerKB time.Duration
	// PerConnect is charged when a new connection is established.
	PerConnect time.Duration
}

// Zero reports whether the model charges nothing.
func (m Model) Zero() bool {
	return m.PerMessage == 0 && m.PerKB == 0 && m.PerConnect == 0
}

// Charge sleeps for the endpoint cost of an n-byte message.
func (m Model) Charge(n int) {
	if d := m.MessageCost(n); d > 0 {
		netsim.PreciseSleep(d)
	}
}

// ChargeConnect sleeps for the connection-establishment cost.
func (m Model) ChargeConnect() {
	if m.PerConnect > 0 {
		netsim.PreciseSleep(m.PerConnect)
	}
}

// MessageCost returns the analytic per-endpoint cost of an n-byte message
// without sleeping; the bench package's closed-form model uses it.
func (m Model) MessageCost(n int) time.Duration {
	return m.PerMessage + time.Duration(float64(m.PerKB)*float64(n)/1024.0)
}
