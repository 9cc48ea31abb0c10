package figures

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/remoting"
)

// E6 — the paper states "the performance penalty introduced by the ParC#
// platform is not noticeable (results not shown)". We measure it: the same
// echo ping-pong once against a raw remoting well-known object and once
// through a SCOOPP parallel-object proxy (PO → ioWrapper → IO), both on the
// production channel over the same shaped network and cost profile.

// OverheadResult is the E6 measurement: the timed round trips, which the
// host's scheduler has a say in, and what each path put on the network per
// call, which it has not (counted by the shaped network; zero on an
// unshaped one).
type OverheadResult struct {
	RawRTT      time.Duration
	ProxyRTT    time.Duration
	OverheadPct float64

	RawMsgs, ProxyMsgs   float64 // messages per call, both directions
	RawBytes, ProxyBytes float64 // bytes per call, both directions
}

// traffic reads a shaped network's counters.
func traffic(m *metrics.Registry) (msgs, bytes float64) {
	return float64(m.Counter("msgs_sent").Load()), float64(m.Counter("bytes_sent").Load())
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
	rawNet, rawStats := monoNet(net)
	ch := remoting.NewMultiplexedChannel(rawNet)
	defer ch.Close()
	server, err := ch.ListenAndServe("")
	if err != nil {
		return OverheadResult{}, err
	}
	defer server.Close()
	server.Marshal("Echo", echoService{})
	raw, err := remoting.GetObject(ch, server.URLFor("Echo"))
	if err != nil {
		return OverheadResult{}, err
	}
	if _, err := raw.Invoke("Echo", payload); err != nil {
		return OverheadResult{}, err
	}
	// Minimum of the repetitions: robust against scheduler contention.
	var res OverheadResult
	msgs0, bytes0 := traffic(rawStats)
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
	msgs, bytes := traffic(rawStats)
	res.RawMsgs, res.RawBytes = (msgs-msgs0)/float64(reps), (bytes-bytes0)/float64(reps)

	// Through the ParC# platform: a 2-node cluster, object forced to the
	// remote node, synchronous proxy invokes.
	clusterNet, stats := monoNet(net)
	cl, err := cluster.New(cluster.Options{
		Nodes:   2,
		Network: clusterNet,
		Config:  core.Config{Placement: remoteOnly{}},
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
	msgs0, bytes0 = traffic(stats)
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
	msgs, bytes = traffic(stats)
	res.ProxyMsgs, res.ProxyBytes = (msgs-msgs0)/float64(reps), (bytes-bytes0)/float64(reps)

	res.RawRTT, res.ProxyRTT = rawRTT, proxyRTT
	res.OverheadPct = (float64(proxyRTT)/float64(rawRTT) - 1) * 100
	return res, nil
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
