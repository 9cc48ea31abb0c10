// Package figures regenerates every figure and table of the paper's
// evaluation (§4) plus the ablations listed in DESIGN.md. Each experiment
// has a Run function returning typed rows and a Print function emitting a
// table shaped like the paper's artefact; cmd/parcbench drives them.
package figures

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/dispatch"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/paper/mono"
	"repro/internal/paper/profile"
	"repro/internal/rmi"
	"repro/internal/transport"
)

// Stack is one communication system under the ping-pong test: it round
// trips an int32 payload between two endpoints ("an array of integers is
// sent and received as the method parameter and return type").
type Stack interface {
	Name() string
	RoundTrip(payload []int32) error
	Close()
}

// ---------------------------------------------------------------- MPI

type mpiStack struct {
	world *mpi.World
	done  chan struct{}
}

// NewMPIStack builds the MPI ping-pong pair over a shaped network.
func NewMPIStack(p netsim.Params, c cost.Model) (Stack, error) {
	net := shapedNet(p)
	world, err := mpi.NewWorld(2, net, c)
	if err != nil {
		return nil, err
	}
	s := &mpiStack{world: world, done: make(chan struct{})}
	go func() {
		// Rank 1 echoes forever (MPI_Recv / MPI_Send loop).
		comm := world.Comm(1)
		for {
			data, st, err := comm.Recv(0, mpi.AnyTag)
			if err != nil {
				return
			}
			if err := comm.Send(0, st.Tag, data); err != nil {
				return
			}
		}
	}()
	return s, nil
}

func (s *mpiStack) Name() string { return "MPI" }

func (s *mpiStack) RoundTrip(payload []int32) error {
	comm := s.world.Comm(0)
	var b mpi.Buffer
	b.PackInt32s(payload)
	if err := comm.Send(1, 0, b.Bytes()); err != nil {
		return err
	}
	data, _, err := comm.Recv(1, 0)
	if err != nil {
		return err
	}
	if _, err := mpi.NewUnpackBuffer(data).UnpackInt32s(); err != nil {
		return err
	}
	return nil
}

func (s *mpiStack) Close() { s.world.Close() }

// ---------------------------------------------------------------- RMI

// echoService answers the ping-pong call on the RPC stacks.
type echoService struct{}

// Echo returns its argument, as the paper's remote object does.
func (echoService) Echo(nums []int32) []int32 { return nums }

// init registers the invoker thunk for echoService, in the shape parcgen
// emits for every //parc:parallel class: the production benchmarks should
// measure the dispatch path generated classes actually take (thunks, no
// reflect.Value.Call), not the reflective fallback.
func init() {
	dispatch.RegisterInvokers(echoService{}, map[string]dispatch.Invoker{
		"Echo": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(echoService)
			if len(args) != 1 {
				return nil, dispatch.BadArity(obj, "Echo", len(args), 1)
			}
			a0, err := dispatch.Arg[[]int32](args, 0)
			if err != nil {
				return nil, dispatch.BadArg(obj, "Echo", 0, err)
			}
			return x.Echo(a0), nil
		},
	})
}

type rmiStack struct {
	server *rmi.Runtime
	client *rmi.Runtime
	stub   *rmi.Stub
}

// NewRMIStack builds the Java RMI ping-pong pair.
func NewRMIStack(p netsim.Params, c cost.Model) (Stack, error) {
	net := shapedNet(p)
	server := rmi.NewRuntime(net)
	server.Cost = c
	if err := server.Listen(""); err != nil {
		return nil, err
	}
	if err := server.Rebind("Echo", echoService{}); err != nil {
		return nil, err
	}
	client := rmi.NewRuntime(net)
	client.Cost = c
	stub, err := client.Lookup(server.URLFor("Echo"))
	if err != nil {
		server.Close()
		return nil, err
	}
	return &rmiStack{server: server, client: client, stub: stub}, nil
}

func (s *rmiStack) Name() string { return "Java RMI" }

func (s *rmiStack) RoundTrip(payload []int32) error {
	res, err := s.stub.Invoke("Echo", payload)
	if err != nil {
		return err
	}
	if _, ok := res.([]int32); !ok {
		return fmt.Errorf("bench: echo returned %T", res)
	}
	return nil
}

func (s *rmiStack) Close() { s.server.Close() }

// ---------------------------------------------------------------- remoting

type remotingStack struct {
	name   string
	ch     *mono.Channel
	server *mono.Server
}

// NewRemotingStack builds a Mono-remoting ping-pong pair over the given
// 2005 channel kind (package mono).
func NewRemotingStack(name string, kind mono.Kind, p netsim.Params, c cost.Model) (Stack, error) {
	ch := mono.NewChannel(kind, shapedNet(p))
	ch.Cost = c
	server, err := ch.ListenAndServe("")
	if err != nil {
		return nil, err
	}
	server.Publish("Echo", echoService{})
	return &remotingStack{name: name, ch: ch, server: server}, nil
}

func (s *remotingStack) Name() string { return s.name }

func (s *remotingStack) RoundTrip(payload []int32) error {
	res, err := s.ch.Invoke(s.server.Addr(), "Echo", "Echo", payload)
	if err != nil {
		return err
	}
	if _, ok := res.([]int32); !ok {
		return fmt.Errorf("bench: echo returned %T", res)
	}
	return nil
}

func (s *remotingStack) Close() {
	s.ch.Close()
	s.server.Close()
}

// shapedNet builds a fresh memory network shaped with p (pass-through when
// p is zero).
func shapedNet(p netsim.Params) transport.Network {
	mem := transport.NewMemNetwork()
	if p.Zero() {
		return mem
	}
	return netsim.NewShapedNetwork(mem, p)
}

// monoNet is shapedNet charged with the Mono 1.1.7 TCP channel's endpoint
// costs, the network the ParC# side of a figure runs over, with its traffic
// counters (nil when p is zero).
func monoNet(p netsim.Params) (transport.Network, *netsim.Stats) {
	net := shapedNet(p)
	var stats *netsim.Stats
	if sn, ok := net.(*netsim.ShapedNetwork); ok {
		stats = sn.Stats
	}
	return cost.Network(net, profile.MonoTCP117()), stats
}

// Fig8aStacks builds the three systems of Fig. 8a with their calibrated
// profiles on the paper's network.
func Fig8aStacks() ([]Stack, error) {
	p := profile.Network()
	mpiS, err := NewMPIStack(p, profile.MPICH())
	if err != nil {
		return nil, err
	}
	rmiS, err := NewRMIStack(p, profile.JavaRMI())
	if err != nil {
		mpiS.Close()
		return nil, err
	}
	monoS, err := NewRemotingStack("Mono", mono.TCP, p, profile.MonoTCP117())
	if err != nil {
		mpiS.Close()
		rmiS.Close()
		return nil, err
	}
	return []Stack{mpiS, rmiS, monoS}, nil
}

// Fig8bStacks builds the three Mono implementations of Fig. 8b.
func Fig8bStacks() ([]Stack, error) {
	p := profile.Network()
	s117, err := NewRemotingStack("Mono 1.1.7 (Tcp)", mono.TCP, p, profile.MonoTCP117())
	if err != nil {
		return nil, err
	}
	s105, err := NewRemotingStack("Mono 1.0.5 (Tcp)", mono.LegacyTCP, p, profile.MonoTCP105())
	if err != nil {
		s117.Close()
		return nil, err
	}
	sHTTP, err := NewRemotingStack("Mono 1.1.7 (Http)", mono.HTTP, p, profile.MonoHTTP())
	if err != nil {
		s117.Close()
		s105.Close()
		return nil, err
	}
	return []Stack{s117, s105, sHTTP}, nil
}

// MessageSizes returns the payload sizes (bytes) of the paper's sweep,
// 1 B – 1 MB on a log scale. Full selects the complete sweep; otherwise a
// short sweep for unit tests.
func MessageSizes(full bool) []int {
	if full {
		return []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
	}
	return []int{4, 1024, 65536}
}

// BandwidthRow is one sweep point: achieved one-way bandwidth per stack in
// MB/s, keyed by stack name.
type BandwidthRow struct {
	SizeBytes int
	MBps      map[string]float64
	RTT       map[string]time.Duration
}

// payloadFor builds an int32 payload of approximately size bytes.
func payloadFor(size int) []int32 {
	n := size / 4
	if n < 1 {
		n = 1
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i*2654435761 + 12345)
	}
	return out
}

// repsFor balances accuracy against run time across the sweep.
func repsFor(size int, full bool) int {
	if !full {
		return 2
	}
	switch {
	case size <= 1024:
		return 20
	case size <= 65536:
		return 8
	default:
		return 3
	}
}

// Sweep runs the ping-pong across sizes and returns one row per size.
// Bandwidth follows the paper's convention: message bytes divided by
// one-way time (RTT/2).
func Sweep(stacks []Stack, sizes []int, full bool) ([]BandwidthRow, error) {
	rows := make([]BandwidthRow, 0, len(sizes))
	for _, size := range sizes {
		payload := payloadFor(size)
		bytes := len(payload) * 4
		row := BandwidthRow{
			SizeBytes: bytes,
			MBps:      map[string]float64{},
			RTT:       map[string]time.Duration{},
		}
		for _, s := range stacks {
			// Warm-up establishes connections (and pays any
			// connect costs outside the measurement, as ping-pong
			// tests do).
			if err := s.RoundTrip(payload); err != nil {
				return nil, fmt.Errorf("bench: %s warm-up: %w", s.Name(), err)
			}
			reps := repsFor(size, full)
			start := time.Now()
			for r := 0; r < reps; r++ {
				if err := s.RoundTrip(payload); err != nil {
					return nil, fmt.Errorf("bench: %s size %d: %w", s.Name(), size, err)
				}
			}
			rtt := time.Since(start) / time.Duration(reps)
			row.RTT[s.Name()] = rtt
			oneWay := rtt / 2
			row.MBps[s.Name()] = float64(bytes) / oneWay.Seconds() / 1e6
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LatencyResult is the E3 text-table: small-message round-trip latency per
// stack.
type LatencyResult struct {
	Name string
	RTT  time.Duration
}

// MeasureLatency measures 4-byte round trips (the paper reports 100, 273
// and 520 µs for MPI, Mono and Java RMI). Like ping, it reports the
// minimum observed round trip: the minimum is the estimator that is robust
// to scheduler contention on loaded hosts.
func MeasureLatency(stacks []Stack, reps int) ([]LatencyResult, error) {
	if reps <= 0 {
		reps = 50
	}
	payload := payloadFor(4)
	var out []LatencyResult
	for _, s := range stacks {
		if err := s.RoundTrip(payload); err != nil {
			return nil, err
		}
		best := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := s.RoundTrip(payload); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		out = append(out, LatencyResult{Name: s.Name(), RTT: best})
	}
	return out, nil
}

// CloseAll closes every stack.
func CloseAll(stacks []Stack) {
	for _, s := range stacks {
		s.Close()
	}
}
