package figures

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/paper/profile"
	"repro/internal/remoting"
)

// E6 — the paper states "the performance penalty introduced by the ParC#
// platform is not noticeable (results not shown)". We measure it: the same
// echo ping-pong once against a raw remoting well-known object and once
// through a SCOOPP parallel-object proxy (PO → ioWrapper → IO), both on the
// production channel over the same shaped network and cost profile.

// OverheadResult is the E6 measurement.
type OverheadResult struct {
	RawRTT      time.Duration
	ProxyRTT    time.Duration
	OverheadPct float64
}

// echoObj is the parallel-object class for the proxy side.
type echoObj struct{}

// Echo returns its argument.
func (echoObj) Echo(nums []int32) []int32 { return nums }

// RunOverhead measures E6 with the given payload size and repetitions.
func RunOverhead(payloadBytes, reps int, net netsim.Params) (OverheadResult, error) {
	if reps <= 0 {
		reps = 30
	}
	payload := payloadFor(payloadBytes)

	// Raw remoting.
	ch := remoting.NewMultiplexedChannel(cost.Network(shapedNet(net), profile.MonoTCP117()))
	defer ch.Close()
	server, err := ch.ListenAndServe("")
	if err != nil {
		return OverheadResult{}, err
	}
	defer server.Close()
	server.RegisterWellKnown("Echo", remoting.Singleton, func() any { return echoService{} })
	raw, err := remoting.GetObject(ch, server.URLFor("Echo"))
	if err != nil {
		return OverheadResult{}, err
	}
	if _, err := raw.Invoke("Echo", payload); err != nil {
		return OverheadResult{}, err
	}
	// Minimum of the repetitions: robust against scheduler contention.
	rawRTT := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := raw.Invoke("Echo", payload); err != nil {
			return OverheadResult{}, err
		}
		if d := time.Since(start); d < rawRTT {
			rawRTT = d
		}
	}

	// Through the ParC# platform: a 2-node cluster, object forced to the
	// remote node, synchronous proxy invokes.
	cl, err := cluster.New(cluster.Options{
		Nodes:     2,
		Net:       net,
		Cost:      profile.MonoTCP117(),
		Placement: remoteOnly{},
	})
	if err != nil {
		return OverheadResult{}, err
	}
	defer cl.Close()
	cl.RegisterClass("echo", func() any { return echoObj{} })
	p, err := cl.Node(0).NewParallelObject("echo")
	if err != nil {
		return OverheadResult{}, err
	}
	if p.IsLocal() {
		return OverheadResult{}, fmt.Errorf("bench: overhead object placed locally")
	}
	if _, err := p.Invoke("Echo", payload); err != nil {
		return OverheadResult{}, err
	}
	proxyRTT := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := p.Invoke("Echo", payload); err != nil {
			return OverheadResult{}, err
		}
		if d := time.Since(start); d < proxyRTT {
			proxyRTT = d
		}
	}

	return OverheadResult{
		RawRTT:      rawRTT,
		ProxyRTT:    proxyRTT,
		OverheadPct: (float64(proxyRTT)/float64(rawRTT) - 1) * 100,
	}, nil
}

// remoteOnly places every object on node 1 (never the creating node 0).
type remoteOnly struct{}

// Pick implements core.PlacementPolicy.
func (remoteOnly) Pick(self int, loads []core.NodeLoad) int {
	for _, l := range loads {
		if l.Node != self {
			return l.Node
		}
	}
	return self
}
