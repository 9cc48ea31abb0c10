package dispatch

import (
	"errors"
	"strings"
	"testing"
)

type svc struct{ n int }

func (s *svc) Void()                          { s.n++ }
func (s *svc) Value() int                     { return 42 }
func (s *svc) ErrOnly(fail bool) error        { return failIf(fail) }
func (s *svc) Both(fail bool) (string, error) { return "ok", failIf(fail) }
func (s *svc) Sum(a, b int) int               { return a + b }
func (s *svc) Variadic(xs ...int) int         { return len(xs) }
func (s *svc) TooMany() (int, int, int)       { return 1, 2, 3 }
func (s *svc) BadPair() (int, int)            { return 1, 2 }
func (s *svc) unexported()                    {}

func failIf(b bool) error {
	if b {
		return errors.New("failed")
	}
	return nil
}

func TestInvokeVoid(t *testing.T) {
	s := &svc{}
	got, err := Invoke(s, "Void", nil)
	if err != nil || got != nil {
		t.Errorf("Void = %v, %v", got, err)
	}
	if s.n != 1 {
		t.Error("method body did not run")
	}
}

func TestInvokeValue(t *testing.T) {
	got, err := Invoke(&svc{}, "Value", nil)
	if err != nil || got != 42 {
		t.Errorf("Value = %v, %v", got, err)
	}
}

func TestInvokeErrOnly(t *testing.T) {
	if _, err := Invoke(&svc{}, "ErrOnly", []any{false}); err != nil {
		t.Errorf("ErrOnly(false) = %v", err)
	}
	if _, err := Invoke(&svc{}, "ErrOnly", []any{true}); err == nil {
		t.Error("ErrOnly(true) should fail")
	}
}

func TestInvokeValueAndError(t *testing.T) {
	got, err := Invoke(&svc{}, "Both", []any{false})
	if err != nil || got != "ok" {
		t.Errorf("Both = %v, %v", got, err)
	}
	if _, err := Invoke(&svc{}, "Both", []any{true}); err == nil {
		t.Error("Both(true) should fail")
	}
}

func TestInvokeArgConversion(t *testing.T) {
	got, err := Invoke(&svc{}, "Sum", []any{int64(2), int32(3)})
	if err != nil || got != 5 {
		t.Errorf("Sum = %v, %v", got, err)
	}
}

func TestInvokeUnknownMethod(t *testing.T) {
	if _, err := Invoke(&svc{}, "Nope", nil); err == nil || !strings.Contains(err.Error(), "no method") {
		t.Errorf("err = %v", err)
	}
}

func TestInvokeVariadicRejected(t *testing.T) {
	if _, err := Invoke(&svc{}, "Variadic", []any{1}); err == nil {
		t.Error("variadic should be rejected")
	}
}

func TestInvokeBadResultShapes(t *testing.T) {
	if _, err := Invoke(&svc{}, "TooMany", nil); err == nil {
		t.Error("3 results should be rejected")
	}
	if _, err := Invoke(&svc{}, "BadPair", nil); err == nil {
		t.Error("(int, int) should be rejected")
	}
}

func TestInvokeArityError(t *testing.T) {
	if _, err := Invoke(&svc{}, "Sum", []any{1}); err == nil {
		t.Error("wrong arity should fail")
	}
}
