package cost

import (
	"testing"
	"time"
)

func TestZero(t *testing.T) {
	if !(Model{}).Zero() {
		t.Error("zero model not Zero")
	}
	if (Model{PerMessage: 1}).Zero() {
		t.Error("non-zero model reported Zero")
	}
}

func TestMessageCost(t *testing.T) {
	m := Model{PerMessage: 100 * time.Microsecond, PerKB: 10 * time.Microsecond}
	if got := m.MessageCost(0); got != 100*time.Microsecond {
		t.Errorf("MessageCost(0) = %v", got)
	}
	if got := m.MessageCost(2048); got != 120*time.Microsecond {
		t.Errorf("MessageCost(2048) = %v", got)
	}
}

func TestChargeZeroIsFree(t *testing.T) {
	start := time.Now()
	Model{}.Charge(1 << 20)
	Model{}.ChargeConnect()
	if time.Since(start) > 10*time.Millisecond {
		t.Error("zero model slept")
	}
}

func TestChargeSleepsAccurately(t *testing.T) {
	m := Model{PerMessage: 200 * time.Microsecond}
	best := time.Duration(1 << 62)
	for i := 0; i < 7; i++ {
		start := time.Now()
		m.Charge(0)
		if got := time.Since(start); got < best {
			best = got
		}
	}
	if best < 200*time.Microsecond || best > 2*time.Millisecond {
		t.Errorf("Charge slept %v, want ≈200 µs", best)
	}
}
