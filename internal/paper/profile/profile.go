// Package profile holds the calibrated models of the 2005 runtimes the
// paper measured. We cannot execute Mono 1.x, the Sun JVM 1.4.2 or MPICH
// 1.2.6; their software costs are therefore injected as cost.Model values
// at the communication endpoints and as compute factors in the workload
// kernels. Every constant below is calibrated against a number the paper
// itself reports; EXPERIMENTS.md records the calibration and the resulting
// reproduction quality.
//
// Calibration anchors (paper §4):
//
//   - inter-node round-trip latency: MPI 100 µs, Mono remoting 273 µs,
//     Java RMI 520 µs on 100 Mbit Ethernet (≈ 60 µs of that is wire);
//   - large-message bandwidth order: MPI > Java RMI > Mono 1.1.7, with
//     MPI near link rate;
//   - Mono 1.0.5 and the HTTP channel collapse by roughly an order of
//     magnitude (Fig. 8b);
//   - sequential ray tracer: Mono ≈ 1.4× the JVM time (MS CLR ≈ 1.1×);
//   - sequential prime sieve: Mono ≈ JVM.
package profile

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/paper/cost"
)

// Network returns the paper's testbed link model (100 Mbit switched
// Ethernet).
func Network() netsim.Params { return netsim.Ethernet100() }

// MPICH models the MPI baseline's endpoint costs: a thin, well-optimised
// C library. 4 × 10 µs per-message endpoint charges + ≈ 60 µs of wire give
// the paper's 100 µs round trip; 3 µs/KB keeps 1 MB transfers at ≈ 11.5
// MB/s, just under link rate.
func MPICH() cost.Model {
	return cost.Model{
		PerMessage: 10 * time.Microsecond,
		PerKB:      3 * time.Microsecond,
		PerConnect: 100 * time.Microsecond,
	}
}

// MonoTCP117 models Mono 1.1.7's remoting TCP channel endpoints: moderate
// per-call cost (4 × 53 µs + wire ≈ 273 µs RTT) but a relatively untuned
// copy path (35 µs/KB), which is what drags its large-message bandwidth
// below Java RMI's in Fig. 8a ("the Mono platform is relatively new ... not
// yet so well tuned").
func MonoTCP117() cost.Model {
	return cost.Model{
		PerMessage: 53 * time.Microsecond,
		PerKB:      35 * time.Microsecond,
		PerConnect: 300 * time.Microsecond,
	}
}

// MonoTCP105 models Mono 1.0.5: besides the legacy channel's unpooled
// connections and 1 KiB flushed chunks (mechanised in mono.LegacyTCP),
// its write path cost an order of magnitude more per byte, collapsing
// bandwidth across the sweep as in Fig. 8b.
func MonoTCP105() cost.Model {
	return cost.Model{
		PerMessage: 150 * time.Microsecond,
		PerKB:      300 * time.Microsecond,
		PerConnect: 500 * time.Microsecond,
	}
}

// MonoHTTP models the Mono HTTP/SOAP channel endpoints: textual
// encode/parse costs per KB on top of the soapfmt expansion, and an HTTP
// handshake per call (no keep-alive).
func MonoHTTP() cost.Model {
	return cost.Model{
		PerMessage: 200 * time.Microsecond,
		PerKB:      80 * time.Microsecond,
		PerConnect: 1 * time.Millisecond,
	}
}

// JavaRMI models the Sun JDK 1.4.2 RMI endpoints: the heaviest per-call
// path of the three (4 × 115 µs + wire ≈ 520 µs RTT) but a well-tuned bulk
// serialisation loop (12 µs/KB), so at large messages it overtakes Mono —
// the crossover visible in Fig. 8a.
func JavaRMI() cost.Model {
	return cost.Model{
		PerMessage: 115 * time.Microsecond,
		PerKB:      12 * time.Microsecond,
		PerConnect: 400 * time.Microsecond,
	}
}

// VM describes a managed runtime's compute speed on the two workload
// kernels, relative to the Sun JVM 1.4.2 (factor 1.0 = JVM speed; larger is
// slower). The paper: "The C# sequential execution time in this particular
// application is 40% superior to the Java version (using the Microsoft
// virtual machine ... it is only 10% superior)" and "running another
// application, a prime number sieve, the Mono execution time is about the
// same as the JVM".
type VM struct {
	Name string
	// RayTracerFactor scales the FP-heavy ray tracer kernel.
	RayTracerFactor float64
	// SieveFactor scales the integer-heavy sieve kernel.
	SieveFactor float64
}

// SunJVM is the Java baseline (factor 1 by definition).
func SunJVM() VM { return VM{Name: "Sun JVM 1.4.2", RayTracerFactor: 1.0, SieveFactor: 1.0} }

// Mono is the Mono 1.1.7 JIT.
func Mono() VM { return VM{Name: "Mono 1.1.7", RayTracerFactor: 1.4, SieveFactor: 1.0} }

// MSCLR is the Microsoft .NET CLR on Windows.
func MSCLR() VM { return VM{Name: "MS CLR 1.1", RayTracerFactor: 1.1, SieveFactor: 1.0} }

// MonoPoolSize is the per-node thread-pool cap used for the ParC# side of
// Fig. 9, the pool a node's farm workers render on. Mono's 2005 pool
// throttled thread injection aggressively; with dual-CPU nodes the
// effective concurrent workers per node hovered around the CPU count
// (paper: "limiting the number of running threads ... reduces the overlap
// among computation and communication").
const MonoPoolSize = 2
