// Jgfkernels runs the Java Grande Forum kernels (the benchmark family the
// paper's evaluation draws on) as parallel-object programs on a simulated
// cluster, validating each farmed result against its sequential reference.
//
// Run with:
//
//	go run ./internal/paper/cmd/jgfkernels -nodes 3 -workers 4
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/paper/jgf"
	"repro/parc"
)

func main() {
	nodes := flag.Int("nodes", 3, "cluster nodes")
	workers := flag.Int("workers", 4, "parallel workers per kernel")
	flag.Parse()

	cl, err := parc.StartCluster(parc.WithNodes(*nodes))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < cl.Size(); i++ {
		jgf.RegisterClasses(cl.Node(i))
	}
	entry := cl.Entry()

	// Series: Fourier coefficients, farmed by coefficient range.
	start := time.Now()
	coeffs, err := jgf.RunSeries(entry, 24, *workers)
	if err != nil {
		log.Fatal(err)
	}
	seq := jgf.SeriesCoefficients(0, 24)
	match := len(coeffs) == len(seq)
	for i := range seq {
		match = match && coeffs[i] == seq[i]
	}
	fmt.Printf("Series: %d coefficients in %-12v bitwise-match=%v (a0=%.4f)\n",
		len(coeffs)/2, time.Since(start), match, coeffs[0])

	// Crypt: IDEA encryption, farmed by block range.
	key := jgf.NewIdeaKey(2005)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 13)
	}
	start = time.Now()
	cipher, err := jgf.RunCrypt(entry, data, key.Enc, *workers)
	if err != nil {
		log.Fatal(err)
	}
	back, err := jgf.RunCrypt(entry, cipher, key.Dec, *workers)
	if err != nil {
		log.Fatal(err)
	}
	roundtrip := bytes.Equal(back, data)
	fmt.Printf("Crypt:  %d bytes in %-12v roundtrip-ok=%v\n",
		len(data), time.Since(start), roundtrip)

	// SOR: red-black relaxation with coordinator-driven halo exchange.
	start = time.Now()
	sum, err := jgf.RunSOR(entry, 64, 10, *workers, 1.25)
	if err != nil {
		log.Fatal(err)
	}
	want := jgf.SORSequential(64, 10, 1.25)
	fmt.Printf("SOR:    64x64 x10 sweeps in %-12v sum=%.6f bitwise-match=%v\n",
		time.Since(start), sum, sum == want)
	if !match || !roundtrip || sum != want {
		log.Fatal("jgfkernels: a farmed kernel disagrees with its sequential reference")
	}
}
