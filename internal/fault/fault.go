// Package fault injects deterministic transport faults for chaos testing:
// symmetric and asymmetric partitions, node crashes (full isolation plus
// connection kills), frame corruption and truncation, and send stalls.
//
// An Injector is the single switchboard for one test network. Every node
// wraps its transport through Injector.Node(inner, addr) — the per-node
// view records which node is dialing, which the underlying address scheme
// cannot (in-process pipes carry no dialer identity) — and the injector
// enforces faults on the dialer-side connection wrapper, which sees both
// directions of the conversation: Send is the local→remote half, Recv the
// remote→local half. Faults are therefore directional (from, to) pairs of
// listener addresses.
//
// Semantics are chosen to exercise distinct failure classes of the RPC
// stack above:
//
//   - partition: frames silently dropped (both or one direction) — calls
//     hang until their deadline, exactly like a blackholed network path.
//     Existing connections stay "up"; nothing errors.
//   - crash: the node is fully isolated, its existing connections are
//     closed (callers see connection errors — the fast-failure class that
//     the retry loop acts on), and new dials to or from it are refused.
//     Restart heals it; the node itself never knew.
//   - corruption/truncation: a sampled fraction of frames is mutated,
//     driving the decoder/framing error paths.
//   - stall: sends on a path block (without erroring) until healed —
//     the slow-network half-failure that is neither up nor down.
//
// All randomness (corruption sampling, mutation positions) comes from one
// seeded generator, so a failing schedule replays from its seed.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// path is one direction of traffic between two listener addresses.
type path struct{ from, to string }

// Injector is the fault switchboard shared by every node view of one test
// network. All methods are safe for concurrent use, including from a
// schedule goroutine while traffic flows.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	blocked  map[path]bool
	corrupt  map[path]float64
	truncate map[path]float64
	stalls   map[path]chan struct{}
	crashed  map[string]bool
	conns    map[*faultConn]struct{}
}

// NewInjector returns an injector whose sampling decisions derive from
// seed — the same seed and schedule reproduce the same fault pattern.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:      rand.New(rand.NewSource(seed)),
		blocked:  make(map[path]bool),
		corrupt:  make(map[path]float64),
		truncate: make(map[path]float64),
		stalls:   make(map[path]chan struct{}),
		crashed:  make(map[string]bool),
		conns:    make(map[*faultConn]struct{}),
	}
}

// Node returns the network view of the node listening at addr: Listen
// passes through, Dial tags outbound connections with (addr → target) so
// the injector can match directional faults. Every node of the cluster
// under test must route its dials through its own view.
func (inj *Injector) Node(inner transport.Network, addr string) transport.Network {
	return &nodeNet{inj: inj, inner: inner, local: addr}
}

// PartitionOneWay blackholes frames from→to. Frames the other way still
// flow — the asymmetric partition that makes failure detectors disagree.
func (inj *Injector) PartitionOneWay(from, to string) {
	inj.mu.Lock()
	inj.blocked[path{from, to}] = true
	inj.mu.Unlock()
}

// Partition blackholes both directions between a and b.
func (inj *Injector) Partition(a, b string) {
	inj.mu.Lock()
	inj.blocked[path{a, b}] = true
	inj.blocked[path{b, a}] = true
	inj.mu.Unlock()
}

// Heal removes the partition between a and b (both directions).
func (inj *Injector) Heal(a, b string) {
	inj.mu.Lock()
	delete(inj.blocked, path{a, b})
	delete(inj.blocked, path{b, a})
	inj.mu.Unlock()
}

// Crash fully isolates addr: every live connection touching it is closed
// (connection-reset class failures), and until Restart all its traffic is
// dropped and new dials to or from it are refused.
func (inj *Injector) Crash(addr string) {
	inj.mu.Lock()
	inj.crashed[addr] = true
	var victims []*faultConn
	for c := range inj.conns {
		if c.local == addr || c.remote == addr {
			victims = append(victims, c)
		}
	}
	inj.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// Restart heals a crashed node.
func (inj *Injector) Restart(addr string) {
	inj.mu.Lock()
	delete(inj.crashed, addr)
	inj.mu.Unlock()
}

// Corrupt sets the probability (0..1) that a frame from→to has one byte
// flipped. 0 clears it.
func (inj *Injector) Corrupt(from, to string, p float64) {
	inj.setProb(inj.corrupt, path{from, to}, p)
}

// Truncate sets the probability (0..1) that a frame from→to is cut short
// at a sampled offset. 0 clears it.
func (inj *Injector) Truncate(from, to string, p float64) {
	inj.setProb(inj.truncate, path{from, to}, p)
}

func (inj *Injector) setProb(m map[path]float64, k path, p float64) {
	inj.mu.Lock()
	if p <= 0 {
		delete(m, k)
	} else {
		m[k] = p
	}
	inj.mu.Unlock()
}

// Stall blocks sends from→to (without erroring) until Unstall or HealAll.
func (inj *Injector) Stall(from, to string) {
	k := path{from, to}
	inj.mu.Lock()
	if _, ok := inj.stalls[k]; !ok {
		inj.stalls[k] = make(chan struct{})
	}
	inj.mu.Unlock()
}

// Unstall releases a stalled path; blocked senders resume.
func (inj *Injector) Unstall(from, to string) {
	k := path{from, to}
	inj.mu.Lock()
	if ch, ok := inj.stalls[k]; ok {
		close(ch)
		delete(inj.stalls, k)
	}
	inj.mu.Unlock()
}

// HealAll clears every fault — partitions, crashes, corruption, stalls —
// returning the network to health (the end-of-schedule drain state).
func (inj *Injector) HealAll() {
	inj.mu.Lock()
	inj.blocked = make(map[path]bool)
	inj.crashed = make(map[string]bool)
	inj.corrupt = make(map[path]float64)
	inj.truncate = make(map[path]float64)
	for _, ch := range inj.stalls {
		close(ch)
	}
	inj.stalls = make(map[path]chan struct{})
	inj.mu.Unlock()
}

// dropped reports whether frames from→to are currently blackholed.
func (inj *Injector) dropped(from, to string) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.blocked[path{from, to}] || inj.crashed[from] || inj.crashed[to]
}

// stallChan returns the channel to wait on when from→to is stalled, nil
// otherwise.
func (inj *Injector) stallChan(from, to string) chan struct{} {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stalls[path{from, to}]
}

// mutate applies sampled corruption/truncation to a frame from→to,
// returning the (possibly copied and mutated) frame. The original buffer
// is never written: the sender may reuse it.
func (inj *Injector) mutate(from, to string, msg []byte) []byte {
	k := path{from, to}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if len(msg) == 0 {
		return msg
	}
	if p := inj.corrupt[k]; p > 0 && inj.rng.Float64() < p {
		cp := append([]byte(nil), msg...)
		cp[inj.rng.Intn(len(cp))] ^= 1 << uint(inj.rng.Intn(8))
		msg = cp
	}
	if p := inj.truncate[k]; p > 0 && inj.rng.Float64() < p {
		msg = msg[:inj.rng.Intn(len(msg))]
	}
	return msg
}

func (inj *Injector) register(c *faultConn) {
	inj.mu.Lock()
	if inj.crashed[c.local] || inj.crashed[c.remote] {
		inj.mu.Unlock()
		c.inner.Close()
		return
	}
	inj.conns[c] = struct{}{}
	inj.mu.Unlock()
}

func (inj *Injector) unregister(c *faultConn) {
	inj.mu.Lock()
	delete(inj.conns, c)
	inj.mu.Unlock()
}

// Event is one step of a fault schedule: at offset At from the schedule
// start, apply Do. Name labels the step in logs and failure reports.
type Event struct {
	At   time.Duration
	Name string
	Do   func(*Injector)
}

// RunSchedule applies events in At order on the injector's own timeline,
// stopping early when stop closes. It blocks until the last event fired
// (or stop); run it in a goroutine for concurrent traffic.
func (inj *Injector) RunSchedule(stop <-chan struct{}, events []Event) {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	start := time.Now()
	for _, ev := range sorted {
		d := ev.At - time.Since(start)
		if d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		ev.Do(inj)
	}
}

// nodeNet is one node's view of the network: dials carry the node's
// listener address as the fault-path origin.
type nodeNet struct {
	inj   *Injector
	inner transport.Network
	local string
}

func (n *nodeNet) Listen(addr string) (transport.Listener, error) {
	return n.inner.Listen(addr)
}

func (n *nodeNet) Dial(addr string) (transport.Conn, error) {
	if n.inj.dialRefused(n.local, addr) {
		return nil, fmt.Errorf("fault: dial %s from %s: connection refused (crashed)", addr, n.local)
	}
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{inj: n.inj, inner: c, local: n.local, remote: addr,
		done: make(chan struct{})}
	n.inj.register(fc)
	return fc, nil
}

// dialRefused reports whether a dial local→addr must fail fast: crashes
// refuse connections (the OS of a dead node answers RST or nothing);
// partitions do not — the dial "succeeds" and the traffic blackholes,
// which is what a dropped-packet partition looks like to TCP.
func (inj *Injector) dialRefused(from, to string) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.crashed[from] || inj.crashed[to]
}

// faultConn enforces the injector's state on one dialed connection. local
// and remote are listener addresses, so both directions of every fault
// path map onto exactly one dialed conn's Send (local→remote) and Recv
// (remote→local).
type faultConn struct {
	inj    *Injector
	inner  transport.Conn
	local  string
	remote string

	closeOnce sync.Once
	done      chan struct{}
}

func (c *faultConn) Send(msg []byte) error {
	if ch := c.inj.stallChan(c.local, c.remote); ch != nil {
		select {
		case <-ch:
		case <-c.done:
			return transport.ErrClosed
		}
	}
	if c.inj.dropped(c.local, c.remote) {
		// A blackholed frame vanishes without error, exactly like a
		// dropped packet: the caller's RPC waits out its deadline.
		return nil
	}
	return c.inner.Send(c.inj.mutate(c.local, c.remote, msg))
}

func (c *faultConn) Recv() ([]byte, error) {
	for {
		msg, err := c.inner.Recv()
		if err != nil {
			return nil, err
		}
		if c.inj.dropped(c.remote, c.local) {
			continue // inbound half of the path is blackholed: discard
		}
		return c.inj.mutate(c.remote, c.local, msg), nil
	}
}

func (c *faultConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		c.inj.unregister(c)
		err = c.inner.Close()
	})
	return err
}

func (c *faultConn) LocalAddr() string  { return c.inner.LocalAddr() }
func (c *faultConn) RemoteAddr() string { return c.inner.RemoteAddr() }
