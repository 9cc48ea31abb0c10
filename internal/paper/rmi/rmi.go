// Package rmi is the Go analogue of Java RMI (JDK 1.4-era), the baseline
// the paper compares ParC#/Mono remoting against in Figs. 8a and 9.
//
// It deliberately mirrors the usage burden the paper's §2 enumerates:
//
//  1. servers export explicitly instantiated objects (UnicastRemoteObject)
//     — there is no object-factory mode;
//  2. exported objects are bound in a name registry (Naming.rebind) and
//     clients must perform a registry Lookup round trip before the first
//     call (Naming.lookup);
//  3. every remote call can fail with *RemoteException, which callers are
//     expected to handle;
//  4. the wire format is the heavier javaser codec: stream magic, a full
//     class descriptor per object and block-data chunking.
//
// Endpoint costs of the 2005 Sun JVM are injected via CostModel exactly as
// in the remoting package; package profile provides calibrated values.
package rmi

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dispatch"
	"repro/internal/paper/cost"
	"repro/internal/paper/wirecodecs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// RemoteException mirrors java.rmi.RemoteException: every remote invocation
// can return one.
type RemoteException struct {
	Name   string
	Method string
	Msg    string
}

// Error implements error.
func (e *RemoteException) Error() string {
	return fmt.Sprintf("rmi: RemoteException in %s.%s: %s", e.Name, e.Method, e.Msg)
}

// registryURI is the reserved binding name of the registry service itself.
const registryURI = "__registry"

// rmiCall is the JRMP-style request envelope.
type rmiCall struct {
	Name   string
	Method string
	Seq    uint64
	// Opnum mirrors JRMP's method hashing: a redundant operation hash
	// recomputed per call, part of the protocol's per-call weight.
	Opnum int64
	Args  []any
}

// rmiReturn is the reply envelope.
type rmiReturn struct {
	Seq    uint64
	Result any
	ErrMsg string
	IsErr  bool
}

func init() {
	wire.RegisterName("rmi.call", rmiCall{})
	wire.RegisterName("rmi.return", rmiReturn{})
}

// CostModel injects per-endpoint JVM software costs; see package cost.
type CostModel = cost.Model

// Runtime is one JVM's RMI subsystem: it can export objects (server role),
// host the registry and perform lookups/calls (client role).
type Runtime struct {
	net   transport.Network
	codec wirecodecs.Codec
	Cost  CostModel

	mu       sync.Mutex
	exported map[string]any
	listener transport.Listener
	conns    map[transport.Conn]struct{}
	closed   bool

	// expGen counts mutations of the exported table; per-connection
	// skeleton caches validate against it (see skelCache), the same
	// amortization discipline as the remoting server's bound-handle
	// table: fixed per-call lookup costs are paid once per connection,
	// not once per call.
	expGen atomic.Uint64

	seq  atomic.Uint64
	pool sync.Map // addr -> *connStack
	wg   sync.WaitGroup
}

// NewRuntime creates an RMI runtime over net.
func NewRuntime(net transport.Network) *Runtime {
	return &Runtime{
		net:      net,
		codec:    wirecodecs.JavaSer{},
		exported: make(map[string]any),
		conns:    make(map[transport.Conn]struct{}),
	}
}

// Listen starts the runtime's server endpoint (the analogue of exporting on
// a port and running LocateRegistry.createRegistry).
func (rt *Runtime) Listen(addr string) error {
	l, err := rt.net.Listen(addr)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	rt.listener = l
	rt.mu.Unlock()
	rt.wg.Add(1)
	go rt.acceptLoop(l)
	return nil
}

// Addr returns the listening transport address.
func (rt *Runtime) Addr() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.listener == nil {
		return ""
	}
	return rt.listener.Addr()
}

// Close shuts the endpoint down.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	l := rt.listener
	conns := make([]transport.Conn, 0, len(rt.conns))
	for c := range rt.conns {
		conns = append(conns, c)
	}
	rt.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Also drop pooled client connections so peers' handlers unblock.
	rt.pool.Range(func(_, v any) bool {
		st := v.(*connStack)
		st.mu.Lock()
		for _, c := range st.conns {
			c.Close()
		}
		st.conns = nil
		st.mu.Unlock()
		return true
	})
	rt.wg.Wait()
}

// Rebind exports obj under name, replacing any previous binding
// (Naming.rebind on a UnicastRemoteObject).
func (rt *Runtime) Rebind(name string, obj any) error {
	if name == registryURI {
		return fmt.Errorf("rmi: name %q is reserved", name)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.exported[name] = obj
	rt.expGen.Add(1)
	return nil
}

// Unbind removes a binding (Naming.unbind).
func (rt *Runtime) Unbind(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.exported[name]; !ok {
		return fmt.Errorf("rmi: NotBoundException: %s", name)
	}
	delete(rt.exported, name)
	rt.expGen.Add(1)
	return nil
}

// List returns the bound names, like Naming.list.
func (rt *Runtime) List() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	names := make([]string, 0, len(rt.exported))
	for n := range rt.exported {
		names = append(names, n)
	}
	return names
}

// URLFor returns the rmi URL for a bound name on this runtime.
func (rt *Runtime) URLFor(name string) string {
	return "rmi://" + trimMem(rt.Addr()) + "/" + name
}

func trimMem(addr string) string {
	if len(addr) > 6 && addr[:6] == "mem://" {
		return addr[6:]
	}
	return addr
}

// parseRMIURL splits "rmi://host:port/name" into transport address and
// binding name. Memory-network addresses re-acquire their "mem://" prefix by
// probing: the transport address is whatever the registry's runtime
// listens on, so the caller passes the original form through Stub.
func parseRMIURL(url string) (netaddr, name string, err error) {
	const pfx = "rmi://"
	if len(url) < len(pfx) || url[:len(pfx)] != pfx {
		return "", "", fmt.Errorf("rmi: MalformedURLException: %q", url)
	}
	rest := url[len(pfx):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			if i == len(rest)-1 {
				break
			}
			return rest[:i], rest[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("rmi: MalformedURLException: %q missing name", url)
}

// registryService is the remote interface of the registry itself.
type registryService struct {
	rt *Runtime
}

// LookupName reports whether name is bound; clients call it during Lookup.
func (r *registryService) LookupName(name string) (bool, error) {
	r.rt.mu.Lock()
	defer r.rt.mu.Unlock()
	_, ok := r.rt.exported[name]
	return ok, nil
}

// ListNames returns all bound names.
func (r *registryService) ListNames() ([]string, error) {
	return r.rt.List(), nil
}

func (rt *Runtime) acceptLoop(l transport.Listener) {
	defer rt.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		rt.mu.Lock()
		if rt.closed {
			rt.mu.Unlock()
			c.Close()
			return
		}
		rt.conns[c] = struct{}{}
		rt.mu.Unlock()
		rt.wg.Add(1)
		go rt.handleConn(c)
	}
}

func (rt *Runtime) handleConn(c transport.Conn) {
	defer rt.wg.Done()
	defer func() {
		c.Close()
		rt.mu.Lock()
		delete(rt.conns, c)
		rt.mu.Unlock()
	}()
	var sc skelCache
	for {
		raw, err := transport.RecvFrame(c)
		if err != nil {
			return
		}
		rt.Cost.Charge(len(raw))
		v, err := rt.codec.Unmarshal(raw)
		transport.PutFrame(raw) // decode copied everything it kept
		if err != nil {
			return
		}
		call, ok := v.(rmiCall)
		if !ok {
			return
		}
		ret := rt.dispatchCached(&call, &sc)
		rawRet, err := rt.codec.Marshal(*ret)
		if err != nil {
			fallback := rmiReturn{Seq: call.Seq, IsErr: true, ErrMsg: fmt.Sprintf("unencodable result: %v", err)}
			rawRet, err = rt.codec.Marshal(fallback)
			if err != nil {
				return
			}
		}
		rt.Cost.Charge(len(rawRet))
		if err := c.Send(rawRet); err != nil {
			return
		}
	}
}

// skelCache is one connection's dispatch cache: the last resolved export
// (validated against the runtime's export generation, so Rebind/Unbind
// take effect immediately) and the last resolved invoker thunk (validated
// by concrete type and method). An RMI connection typically hammers one
// stub's methods, so one entry captures the steady state. Owned by the
// connection's read loop; never shared.
type skelCache struct {
	gen    uint64
	name   string
	target any

	mtype  reflect.Type
	method string
	inv    dispatch.Invoker
}

func (rt *Runtime) dispatchCached(call *rmiCall, sc *skelCache) *rmiReturn {
	var target any
	if call.Name == registryURI {
		target = &registryService{rt: rt}
	} else if gen := rt.expGen.Load(); sc.target != nil && sc.gen == gen && sc.name == call.Name {
		target = sc.target
	} else {
		rt.mu.Lock()
		target = rt.exported[call.Name]
		rt.mu.Unlock()
		if target != nil {
			// gen was loaded before the map read: a racing Rebind can
			// only leave the cache conservatively stale, never fresh-
			// looking with an old target.
			sc.gen, sc.name, sc.target = gen, call.Name, target
		}
	}
	if target == nil {
		return &rmiReturn{Seq: call.Seq, IsErr: true, ErrMsg: fmt.Sprintf("NoSuchObjectException: %s", call.Name)}
	}
	var result any
	var err error
	if t := reflect.TypeOf(target); sc.inv != nil && sc.mtype == t && sc.method == call.Method {
		result, err = sc.inv(context.Background(), target, call.Args)
	} else if inv := dispatch.InvokerFor(t, call.Method); inv != nil {
		sc.mtype, sc.method, sc.inv = t, call.Method, inv
		result, err = inv(context.Background(), target, call.Args)
	} else {
		result, err = dispatch.Invoke(target, call.Method, call.Args)
	}
	if err != nil {
		return &rmiReturn{Seq: call.Seq, IsErr: true, ErrMsg: err.Error()}
	}
	return &rmiReturn{Seq: call.Seq, Result: result}
}

// Stub is the client-side proxy for a bound remote object, the analogue of
// the rmic-generated stub class.
type Stub struct {
	rt      *Runtime
	netaddr string
	name    string
}

// Lookup contacts the registry at the URL's host, verifies the binding
// exists (one full round trip, as Naming.lookup performs) and returns a
// stub. The URL host may be either a raw transport address or a
// memory-network address.
func (rt *Runtime) Lookup(url string) (*Stub, error) {
	netaddr, name, err := parseRMIURL(url)
	if err != nil {
		return nil, err
	}
	netaddr = rt.canonicalAddr(netaddr)
	stub := &Stub{rt: rt, netaddr: netaddr, name: name}
	probe := &Stub{rt: rt, netaddr: netaddr, name: registryURI}
	res, err := probe.Invoke("LookupName", name)
	if err != nil {
		return nil, err
	}
	if ok, _ := res.(bool); !ok {
		return nil, &RemoteException{Name: name, Method: "lookup", Msg: "NotBoundException"}
	}
	return stub, nil
}

// LookupStubUnchecked returns a stub without the registry round trip; used
// when the binding is known to exist (and by benchmarks isolating call cost
// from lookup cost).
func (rt *Runtime) LookupStubUnchecked(url string) (*Stub, error) {
	netaddr, name, err := parseRMIURL(url)
	if err != nil {
		return nil, err
	}
	return &Stub{rt: rt, netaddr: rt.canonicalAddr(netaddr), name: name}, nil
}

// canonicalAddr restores the mem:// prefix for memory-network hosts (URLs
// carry bare hosts, as real RMI URLs do). TCP hosts always carry a port, so
// a host without a colon is a memory (or shaped-memory) address.
func (rt *Runtime) canonicalAddr(host string) string {
	if !strings.Contains(host, ":") {
		return "mem://" + host
	}
	return host
}

// Name returns the binding name this stub targets.
func (s *Stub) Name() string { return s.name }

// Invoke performs a synchronous remote call. All failures surface as
// *RemoteException, mirroring Java's mandatory checked exception.
func (s *Stub) Invoke(method string, args ...any) (any, error) {
	call := &rmiCall{
		Name:   s.name,
		Method: method,
		Seq:    s.rt.seq.Add(1),
		Opnum:  opnum(s.name, method),
		Args:   args,
	}
	raw, err := s.rt.codec.Marshal(*call)
	if err != nil {
		return nil, &RemoteException{Name: s.name, Method: method, Msg: err.Error()}
	}
	c, err := s.rt.getConn(s.netaddr)
	if err != nil {
		return nil, &RemoteException{Name: s.name, Method: method, Msg: err.Error()}
	}
	ok := false
	defer func() {
		if ok {
			s.rt.putConn(s.netaddr, c)
		} else {
			c.Close()
		}
	}()
	s.rt.Cost.Charge(len(raw))
	if err := c.Send(raw); err != nil {
		return nil, &RemoteException{Name: s.name, Method: method, Msg: err.Error()}
	}
	rawRet, err := transport.RecvFrame(c)
	if err != nil {
		return nil, &RemoteException{Name: s.name, Method: method, Msg: err.Error()}
	}
	s.rt.Cost.Charge(len(rawRet))
	v, err := s.rt.codec.Unmarshal(rawRet)
	transport.PutFrame(rawRet) // decode copied everything it kept
	if err != nil {
		return nil, &RemoteException{Name: s.name, Method: method, Msg: err.Error()}
	}
	ret, isRet := v.(rmiReturn)
	if !isRet {
		return nil, &RemoteException{Name: s.name, Method: method, Msg: fmt.Sprintf("bad return type %T", v)}
	}
	if ret.Seq != call.Seq {
		return nil, &RemoteException{Name: s.name, Method: method, Msg: "sequence mismatch"}
	}
	if ret.IsErr {
		return nil, &RemoteException{Name: s.name, Method: method, Msg: ret.ErrMsg}
	}
	ok = true
	return ret.Result, nil
}

// opnum computes the JRMP-style operation hash carried on every call.
func opnum(name, method string) int64 {
	var h int64 = 1125899906842597
	for _, c := range name + "#" + method {
		h = 31*h + int64(c)
	}
	return h
}

type connStack struct {
	mu    sync.Mutex
	conns []transport.Conn
}

func (rt *Runtime) getConn(addr string) (transport.Conn, error) {
	v, _ := rt.pool.LoadOrStore(addr, &connStack{})
	st := v.(*connStack)
	st.mu.Lock()
	if n := len(st.conns); n > 0 {
		c := st.conns[n-1]
		st.conns = st.conns[:n-1]
		st.mu.Unlock()
		return c, nil
	}
	st.mu.Unlock()
	rt.Cost.ChargeConnect()
	return rt.net.Dial(addr)
}

func (rt *Runtime) putConn(addr string, c transport.Conn) {
	v, _ := rt.pool.LoadOrStore(addr, &connStack{})
	st := v.(*connStack)
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.conns) >= 16 {
		go c.Close()
		return
	}
	st.conns = append(st.conns, c)
}
