package figures

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/paper/cost"
	"repro/internal/paper/profile"
)

// The analytic cost model mirrors the shaped stacks in closed form so the
// experiment shapes can be asserted in unit tests without timing noise, and
// so cmd/parcbench can print modelled curves next to measured ones.
//
// One-way time for a b-byte application payload:
//
//	t = link.DeliveryTime(wire(b)) + 2 × endpoint.MessageCost(wire(b))
//	    (+ per-chunk penalties for the legacy channel)
//
// where wire(b) applies the codec's expansion and protocol framing.

// StackModel describes one system analytically.
type StackModel struct {
	Name string
	Link netsim.Params
	Cost cost.Model
	// Expansion multiplies the application payload to wire bytes
	// (codec + envelope overheads, measured in TestModelExpansions).
	Expansion float64
	// EnvelopeBytes is the fixed per-call envelope size.
	EnvelopeBytes int
	// ChunkBytes, when > 0, splits the body into chunks each paying the
	// link's per-message costs (legacy channel).
	ChunkBytes int
}

// ModelMPI etc. return the analytic counterparts of the measured stacks.
func ModelMPI() StackModel {
	return StackModel{Name: "MPI", Link: profile.Network(), Cost: profile.MPICH(),
		Expansion: 1.0, EnvelopeBytes: 24}
}

// ModelRMI is the Java RMI analytic model (javaser expansion ≈ 1.1 plus a
// ~96-byte call envelope with class descriptors).
func ModelRMI() StackModel {
	return StackModel{Name: "Java RMI", Link: profile.Network(), Cost: profile.JavaRMI(),
		Expansion: 1.10, EnvelopeBytes: 160}
}

// ModelMono117 is the Mono 1.1.7 TCP channel analytic model.
func ModelMono117() StackModel {
	return StackModel{Name: "Mono", Link: profile.Network(), Cost: profile.MonoTCP117(),
		Expansion: 1.02, EnvelopeBytes: 64}
}

// ModelMono105 is the Mono 1.0.5 legacy channel analytic model.
func ModelMono105() StackModel {
	return StackModel{Name: "Mono 1.0.5 (Tcp)", Link: profile.Network(), Cost: profile.MonoTCP105(),
		Expansion: 1.02, EnvelopeBytes: 64, ChunkBytes: 1024}
}

// ModelMonoHTTP is the Mono HTTP channel analytic model (soapfmt text
// expansion measured ≈ 2.6 for int arrays plus HTTP headers).
func ModelMonoHTTP() StackModel {
	return StackModel{Name: "Mono 1.1.7 (Http)", Link: profile.Network(), Cost: profile.MonoHTTP(),
		Expansion: 2.6, EnvelopeBytes: 220}
}

// wireBytes returns the modelled on-the-wire size for b payload bytes.
func (m StackModel) wireBytes(b int) int {
	return int(float64(b)*m.Expansion) + m.EnvelopeBytes
}

// OneWay returns the modelled one-way delivery time of b payload bytes.
func (m StackModel) OneWay(b int) time.Duration {
	w := m.wireBytes(b)
	var link time.Duration
	if m.ChunkBytes > 0 {
		// The body travels as ceil(w/chunk) wire messages, each paying
		// the link's per-message cost and frame overhead.
		chunks := (w + m.ChunkBytes - 1) / m.ChunkBytes
		if chunks < 1 {
			chunks = 1
		}
		full := m.Link.TxTime(m.ChunkBytes)
		last := m.Link.TxTime(w - (chunks-1)*m.ChunkBytes)
		link = time.Duration(chunks-1)*full + last + m.Link.Latency
	} else {
		link = m.Link.DeliveryTime(w)
	}
	return link + 2*m.Cost.MessageCost(w)
}

// RTT returns the modelled ping-pong round trip for b payload bytes.
func (m StackModel) RTT(b int) time.Duration { return 2 * m.OneWay(b) }

// BandwidthMBps returns the modelled one-way bandwidth (paper convention:
// payload bytes / one-way time).
func (m StackModel) BandwidthMBps(b int) float64 {
	return float64(b) / m.OneWay(b).Seconds() / 1e6
}

// ModelSweep evaluates the analytic curves for a set of models.
func ModelSweep(models []StackModel, sizes []int) []BandwidthRow {
	rows := make([]BandwidthRow, 0, len(sizes))
	for _, size := range sizes {
		row := BandwidthRow{SizeBytes: size, MBps: map[string]float64{}, RTT: map[string]time.Duration{}}
		for _, m := range models {
			row.MBps[m.Name] = m.BandwidthMBps(size)
			row.RTT[m.Name] = m.RTT(size)
		}
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------- printers

// PrintBandwidth renders a sweep as a paper-style table.
func PrintBandwidth(w io.Writer, title string, rows []BandwidthRow) {
	if len(rows) == 0 {
		return
	}
	names := sortedKeys(rows[0].MBps)
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", "size")
	for _, n := range names {
		fmt.Fprintf(w, " %18s", n+" (MB/s)")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s", byteSize(r.SizeBytes))
		for _, n := range names {
			fmt.Fprintf(w, " %18.3f", r.MBps[n])
		}
		fmt.Fprintln(w)
	}
}

// PrintLatency renders the E3 latency table.
func PrintLatency(w io.Writer, title string, rows []LatencyResult) {
	fmt.Fprintf(w, "%s\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %10.0f us\n", r.Name, float64(r.RTT.Microseconds()))
	}
}

// PrintFig9 renders the execution-time table of Fig. 9.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Fig. 9 — Parallel Ray Tracer execution time (modelled testbed seconds; in brackets, compute alone)")
	fmt.Fprintf(w, "%-12s %22s %22s\n", "processors", "ParC#", "Java RMI")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12d %13.1f (%6.1f) %13.1f (%6.1f)\n", r.Processors,
			r.Seconds["ParC#"], r.Modelled["ParC#"], r.Seconds["Java RMI"], r.Modelled["Java RMI"])
	}
}

// PrintSeqRatios renders the E5 table.
func PrintSeqRatios(w io.Writer, rows []SeqRatioRow) {
	fmt.Fprintln(w, "E5 — sequential time relative to the Sun JVM")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %-14s %6.2fx", r.Workload, r.VM, r.Ratio)
		if r.Measured > 0 {
			fmt.Fprintf(w, "   (timed on this host: %.2fx)", r.Measured)
		}
		fmt.Fprintln(w)
	}
}

// PrintAggregation renders ablation A1.
func PrintAggregation(w io.Writer, rows []AggRow) {
	fmt.Fprintln(w, "A1 — method-call aggregation (pipelined sieve)")
	fmt.Fprintf(w, "%-18s %10s %8s %8s %12s %8s\n", "mode", "seconds", "posts", "frames", "posts/batch", "primes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10.3f %8d %8d %12.1f %8d\n", r.Mode, r.Seconds, r.Posts, r.Frames, r.PerBatch, r.PrimesFound)
	}
}

// PrintAgglomeration renders ablation A2.
func PrintAgglomeration(w io.Writer, rows []AgglomRow) {
	fmt.Fprintln(w, "A2 — object agglomeration (fine-grain fan-out)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %10.3f s   agglomerated=%d   messages=%d\n", r.Policy, r.Seconds, r.Agglomerated, r.Msgs)
	}
}

// PrintCodecs renders ablation A3.
func PrintCodecs(w io.Writer, rows []CodecRow) {
	fmt.Fprintln(w, "A3 — codec weight (1024-int call payload)")
	fmt.Fprintf(w, "%-10s %10s %14s %14s\n", "codec", "bytes", "encode", "decode")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %14s %14s\n", r.Codec, r.Bytes,
			time.Duration(r.EncodeNanos), time.Duration(r.DecodeNanos))
	}
}

// PrintPool renders ablation A4.
func PrintPool(w io.Writer, rows []PoolRow) {
	fmt.Fprintln(w, "A4 — thread-pool cap (ParC# farm)")
	fmt.Fprintf(w, "%-10s %12s %16s\n", "pool", "seconds", "queue wait")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %12.1f %16s\n", r.PoolSize, r.Seconds, r.QueueWait)
	}
}

// PrintOverhead renders E6.
func PrintOverhead(w io.Writer, r OverheadResult) {
	fmt.Fprintln(w, "E6 — ParC# platform overhead over raw remoting (ping-pong)")
	fmt.Fprintf(w, "  raw remoting RTT:   %10s\n", r.RawRTT)
	fmt.Fprintf(w, "  through-proxy RTT:  %10s\n", r.ProxyRTT)
	fmt.Fprintf(w, "  overhead:           %9.1f%%\n", r.OverheadPct)
	fmt.Fprintf(w, "  on the network, per call: raw %.0f messages, %.0f B; through the proxy %.0f messages, %.0f B\n",
		r.RawMsgs, r.RawBytes, r.ProxyMsgs, r.ProxyBytes)
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
