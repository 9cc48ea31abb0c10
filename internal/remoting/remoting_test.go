package remoting

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// divideServer mirrors the paper's Fig. 1/2 example service.
type divideServer struct {
	calls atomic.Int64
}

func (d *divideServer) Divide(a, b float64) (float64, error) {
	d.calls.Add(1)
	if b == 0 {
		return 0, errors.New("division by zero")
	}
	return a / b, nil
}

func (d *divideServer) Calls() int { return int(d.calls.Load()) }

func (d *divideServer) Echo(nums []int32) []int32 { return nums }

func (d *divideServer) Noop() {}

func (d *divideServer) Fail() error { return errors.New("always fails") }

type statefulCounter struct {
	mu sync.Mutex
	n  int
}

func (c *statefulCounter) Incr() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

func newTestServer(t *testing.T) (*Channel, *Server) {
	t.Helper()
	ch := NewMultiplexedChannel(transport.NewMemNetwork())
	srv, err := ch.ListenAndServe("mem://server")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Cleanup(ch.Close)
	return ch, srv
}

func TestParseURL(t *testing.T) {
	cases := []struct {
		url                  string
		scheme, netaddr, uri string
		wantErr              bool
	}{
		{url: "tcp://127.0.0.1:4000/DivideServer", scheme: "tcp", netaddr: "127.0.0.1:4000", uri: "DivideServer"},
		{url: "mem://node0/factory", scheme: "mem", netaddr: "mem://node0", uri: "factory"},
		{url: "http://h:1/a/b", scheme: "http", netaddr: "h:1", uri: "a/b"},
		{url: "nonsense", wantErr: true},
		{url: "tcp://hostonly", wantErr: true},
		{url: "tcp:///nouri", wantErr: true},
	}
	for _, c := range cases {
		scheme, netaddr, uri, err := parseURL(c.url)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseURL(%q): expected error", c.url)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseURL(%q): %v", c.url, err)
			continue
		}
		if scheme != c.scheme || netaddr != c.netaddr || uri != c.uri {
			t.Errorf("parseURL(%q) = %q,%q,%q", c.url, scheme, netaddr, uri)
		}
	}
}

func TestBuildURLRoundtrip(t *testing.T) {
	url := buildURL("tcp", "mem://node3", "om")
	_, netaddr, uri, err := parseURL(url)
	if err != nil {
		t.Fatal(err)
	}
	// The scheme is advisory; the mem transport address must survive.
	if netaddr != "mem://node3" || uri != "om" {
		t.Errorf("roundtrip = %q %q", netaddr, uri)
	}
}

func TestSingletonInvoke(t *testing.T) {
	ch, srv := newTestServer(t)
	shared := &divideServer{}
	srv.Marshal("DivideServer", shared)
	ref, err := GetObject(ch, srv.URLFor("DivideServer"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ref.Invoke("Divide", 10.0, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("Divide = %v", got)
	}
	if _, err := ref.Invoke("Divide", 1.0, 0.0); err == nil {
		t.Error("expected division by zero error")
	} else {
		var re *remoteError
		if !errors.As(err, &re) {
			t.Errorf("error type %T, want *remoteError", err)
		}
	}
}

func TestSingletonSharesState(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("counter", &statefulCounter{})
	ref, _ := GetObject(ch, srv.URLFor("counter"))
	for want := 1; want <= 3; want++ {
		got, err := ref.Invoke("Incr")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Incr = %v, want %d", got, want)
		}
	}
}

func TestEchoArrays(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("d", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("d"))
	payload := make([]int32, 5000)
	for i := range payload {
		payload[i] = int32(i)
	}
	got, err := ref.Invoke("Echo", payload)
	if err != nil {
		t.Fatal(err)
	}
	gs, ok := got.([]int32)
	if !ok || len(gs) != len(payload) || gs[4999] != 4999 {
		t.Errorf("Echo returned %T len %d", got, len(gs))
	}
}

func TestVoidMethod(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("d", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("d"))
	got, err := ref.Invoke("Noop")
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("Noop = %v, want nil", got)
	}
}

func TestErrorOnlyMethod(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("d", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("d"))
	if _, err := ref.Invoke("Fail"); err == nil || !strings.Contains(err.Error(), "always fails") {
		t.Errorf("Fail error = %v", err)
	}
}

func TestUnknownURIAndMethod(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("d", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("missing"))
	if _, err := ref.Invoke("Divide", 1.0, 1.0); err == nil {
		t.Error("expected unknown-URI error")
	}
	ref2, _ := GetObject(ch, srv.URLFor("d"))
	if _, err := ref2.Invoke("NoSuchMethod"); err == nil {
		t.Error("expected unknown-method error")
	}
}

func TestArgumentMismatch(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("d", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("d"))
	if _, err := ref.Invoke("Divide", 1.0); err == nil {
		t.Error("expected arity error")
	}
	if _, err := ref.Invoke("Divide", "x", "y"); err == nil {
		t.Error("expected type error")
	}
}

func TestNumericArgumentWidening(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("d", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("d"))
	// ints convert to the float64 parameters.
	got, err := ref.Invoke("Divide", 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Errorf("Divide(9,3) = %v", got)
	}
}

// outcome is one call's (result, error) pair.
type outcome struct {
	v   any
	err error
}

// goInvoke runs a blocking call on a goroutine of its own and returns the
// channel its outcome arrives on.
func goInvoke(ref *ObjRef, method string, args ...any) <-chan outcome {
	out := make(chan outcome, 1)
	go func() {
		v, err := ref.Invoke(method, args...)
		out <- outcome{v, err}
	}()
	return out
}

func TestConcurrentInvokes(t *testing.T) {
	ch, srv := newTestServer(t)
	shared := &divideServer{}
	srv.Marshal("d", shared)
	ref, _ := GetObject(ch, srv.URLFor("d"))
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 1; j <= 10; j++ {
				got, err := ref.Invoke("Divide", float64(j*2), float64(j))
				if err != nil {
					errs <- err
					return
				}
				if got != 2.0 {
					errs <- errors.New("wrong result")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if shared.Calls() != 200 {
		t.Errorf("calls = %d, want 200", shared.Calls())
	}
}

// TestMarshaledObjectStaysWhileIdle: a Marshal'ed object left idle for
// 600 ms still answers. Nothing but Marshal and Unregister takes a
// published object away.
func TestMarshaledObjectStaysWhileIdle(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("obj", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("obj"))
	if _, err := ref.Invoke("Noop"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	if _, err := ref.Invoke("Noop"); err != nil {
		t.Fatalf("call after 600 ms idle: %v", err)
	}
}

// TestCallResolvedBeforeMarshalReachesItsObject: a call that read a URI's
// object from the table just before a Marshal replaced it (a
// migration swapping in its forward) runs on the object it resolved. The
// runtime's moved actor answers it with the forward.
func TestCallResolvedBeforeMarshalReachesItsObject(t *testing.T) {
	_, srv := newTestServer(t)
	moved, forward := &divideServer{}, &divideServer{}
	srv.Marshal("obj", moved)
	srv.mu.Lock()
	got := srv.objects["obj"]
	srv.mu.Unlock()
	srv.Marshal("obj", forward)
	if got != moved {
		t.Fatalf("the resolved object is %p, want the one published (%p)", got, moved)
	}
	srv.mu.Lock()
	now := srv.objects["obj"]
	srv.mu.Unlock()
	if now != forward {
		t.Fatalf("a new lookup reached %p, want the replacement (%p)", now, forward)
	}
}

// TestUnregisterIfKeepsNewcomer: removing by the published object removes
// only that object; one that replaced it at the URI stays.
func TestUnregisterIfKeepsNewcomer(t *testing.T) {
	ch, srv := newTestServer(t)
	old, newcomer := &divideServer{}, &divideServer{}
	srv.Marshal("obj", old)
	srv.Marshal("obj", newcomer)
	if srv.UnregisterIf("obj", old) {
		t.Fatal("UnregisterIf removed a newcomer keyed by the object it replaced")
	}
	ref, _ := GetObject(ch, srv.URLFor("obj"))
	if _, err := ref.Invoke("Noop"); err != nil {
		t.Fatalf("newcomer after a stale UnregisterIf: %v", err)
	}
	if !srv.UnregisterIf("obj", newcomer) {
		t.Fatal("UnregisterIf did not remove the object published at the URI")
	}
	if _, err := ref.Invoke("Noop"); !errors.Is(err, errs.ErrObjectDestroyed) {
		t.Fatalf("call after UnregisterIf: %v, want ErrObjectDestroyed", err)
	}
}

func TestUnregister(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("obj", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("obj"))
	if _, err := ref.Invoke("Noop"); err != nil {
		t.Fatal(err)
	}
	srv.Unregister("obj")
	if _, err := ref.Invoke("Noop"); err == nil {
		t.Error("call after Unregister should fail")
	}
	srv.Unregister("obj") // idempotent
}

type blockingService struct {
	cur, peak *atomic.Int64
	dur       time.Duration
}

func (b *blockingService) Work() {
	c := b.cur.Add(1)
	for {
		p := b.peak.Load()
		if c <= p || b.peak.CompareAndSwap(p, c) {
			break
		}
	}
	time.Sleep(b.dur)
	b.cur.Add(-1)
}

func TestTCPTransportIntegration(t *testing.T) {
	ch := NewMultiplexedChannel(transport.TCPNetwork{})
	srv, err := ch.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Marshal("d", &divideServer{})
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ref.Invoke("Divide", 10.0, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.0 {
		t.Errorf("Divide over TCP = %v", got)
	}
}

func TestStructArguments(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("s", &structService{})
	ref, _ := GetObject(ch, srv.URLFor("s"))
	got, err := ref.Invoke("Sum", wirePoint{X: 3, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("Sum = %v", got)
	}
	got2, err := ref.Invoke("Mirror", &wirePoint{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := got2.(*wirePoint)
	if !ok || p.X != 2 || p.Y != 1 {
		t.Errorf("Mirror = %#v", got2)
	}
}

type wirePoint struct{ X, Y int }

func init() { wire.Register(wirePoint{}) }

type structService struct{}

func (structService) Sum(p wirePoint) int { return p.X + p.Y }

func (structService) Mirror(p *wirePoint) *wirePoint { return &wirePoint{X: p.Y, Y: p.X} }

func TestServerCloseStopsAccepting(t *testing.T) {
	ch, srv := newTestServer(t)
	srv.Marshal("d", &divideServer{})
	srv.Close()
	srv.Close() // idempotent
	ref, _ := GetObject(ch, srv.URLFor("d"))
	if _, err := ref.Invoke("Noop"); err == nil {
		t.Error("invoke after server close should fail")
	}
}
