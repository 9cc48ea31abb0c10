// Primesieve: the paper's running example (Figs. 4–7) as a standalone
// program — a pipeline of PrimeFilter parallel objects distributed over a
// simulated cluster, with SCOOPP method-call aggregation batching the
// per-number messages that queue behind the one in flight.
//
// Run with:
//
//	go run ./examples/primesieve -n 500 -nodes 3
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/sieve"
	"repro/parc"
)

func main() {
	n := flag.Int("n", 500, "find primes <= n")
	nodes := flag.Int("nodes", 3, "cluster nodes")
	flag.Parse()

	cl, err := parc.StartCluster(
		parc.WithNodes(*nodes),
		parc.WithNetwork(parc.Ethernet100()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < cl.Size(); i++ {
		sieve.RegisterClasses(cl.Node(i))
	}

	start := time.Now()
	primes, err := sieve.Pipeline(cl.Entry(), *n, false)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("primes <= %d: %d found in %v (filters distributed over %d nodes)\n",
		*n, len(primes), elapsed, *nodes)
	if len(primes) > 10 {
		fmt.Printf("first: %v ... last: %d\n", primes[:10], primes[len(primes)-1])
	} else {
		fmt.Printf("primes: %v\n", primes)
	}

	want := sieve.SequentialCount(*n, 1)
	if len(primes) != want {
		log.Fatalf("pipeline disagrees with sequential sieve: %d != %d", len(primes), want)
	}
	fmt.Println("pipeline matches the sequential sieve ✔")

	st := cl.Entry().Stats()
	fmt.Printf("entry-node stats: %d async calls, %d aggregated into %d batches\n",
		st.AsyncCalls, st.CallsAggregated, st.BatchesSent)
	for i := 0; i < cl.Size(); i++ {
		fmt.Printf("node %d hosts %d filter objects\n", i, cl.Node(i).Load())
	}
}
