// Command pingpong is the paper's low-level test as a standalone tool: it
// exchanges messages of increasing size between two endpoints over a chosen
// stack and prints latency and bandwidth per size.
//
// Usage:
//
//	pingpong                 # all stacks, shaped 100 Mbit network
//	pingpong -stack mono     # one of mpi, rmi, mono, mono105, monohttp
//	pingpong -ideal          # no network shaping, no cost model
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/paper/figures"
	"repro/internal/paper/mono"
	"repro/internal/paper/profile"
)

func main() {
	stackName := flag.String("stack", "all", "stack: all, mpi, rmi, mono, mono105, monohttp")
	ideal := flag.Bool("ideal", false, "disable network shaping and cost models")
	full := flag.Bool("full", false, "full 1 B - 1 MB sweep")
	flag.Parse()

	net := profile.Network()
	pick := func(c cost.Model) cost.Model { return c }
	if *ideal {
		net = netsim.Params{}
		pick = func(cost.Model) cost.Model { return cost.Model{} }
	}

	type maker struct {
		name  string
		build func() (figures.Stack, error)
	}
	makers := []maker{
		{"mpi", func() (figures.Stack, error) { return figures.NewMPIStack(net, pick(profile.MPICH())) }},
		{"rmi", func() (figures.Stack, error) { return figures.NewRMIStack(net, pick(profile.JavaRMI())) }},
		{"mono", func() (figures.Stack, error) {
			return figures.NewRemotingStack("Mono 1.1.7 (Tcp)", mono.TCP, net, pick(profile.MonoTCP117()))
		}},
		{"mono105", func() (figures.Stack, error) {
			return figures.NewRemotingStack("Mono 1.0.5 (Tcp)", mono.LegacyTCP, net, pick(profile.MonoTCP105()))
		}},
		{"monohttp", func() (figures.Stack, error) {
			return figures.NewRemotingStack("Mono 1.1.7 (Http)", mono.HTTP, net, pick(profile.MonoHTTP()))
		}},
	}

	var stacks []figures.Stack
	for _, m := range makers {
		if *stackName != "all" && *stackName != m.name {
			continue
		}
		s, err := m.build()
		if err != nil {
			log.Fatal(err)
		}
		stacks = append(stacks, s)
	}
	if len(stacks) == 0 {
		log.Fatalf("pingpong: unknown stack %q", *stackName)
	}
	defer figures.CloseAll(stacks)

	rows, err := figures.Sweep(stacks, figures.MessageSizes(*full), *full)
	if err != nil {
		log.Fatal(err)
	}
	figures.PrintBandwidth(os.Stdout, "ping-pong bandwidth", rows)
	fmt.Println()
	lat, err := figures.MeasureLatency(stacks, 30)
	if err != nil {
		log.Fatal(err)
	}
	figures.PrintLatency(os.Stdout, "small-message round-trip latency", lat)
}
