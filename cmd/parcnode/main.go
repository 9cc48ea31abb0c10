// Command parcnode runs one SCOOPP cluster node as an OS process over real
// TCP — the deployment the paper ran on its Linux cluster. Every node is
// started with the same ordered peer list; node 0 conventionally runs the
// application.
//
// A three-node cluster on one machine:
//
//	parcnode -id 1 -peers :7001,:7002,:7003 &
//	parcnode -id 2 -peers :7001,:7002,:7003 &
//	parcnode -id 0 -peers :7001,:7002,:7003 -demo vcounter -n 8
//
// Worker nodes (-demo "") serve until killed. The binary registers one
// class, the vcounter demo below; linking user classes in means building
// your own main around parc.ServeNode (examples/primesieve drives the
// sieve pipeline in one process).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/parc"
)

// vcounter is the virtual-object demo class: a counter addressed by key,
// activated by its first call on whichever node the consistent-hash ring
// assigns, and (because it registers with one replica) surviving that
// node's death with its state intact. Its state is exported so snapshots
// carry it.
type vcounter struct {
	N int64
}

func (c *vcounter) Bump(v int64) int64 { c.N += v; return c.N }
func (c *vcounter) Total() int64       { return c.N }

func main() {
	id := flag.Int("id", 0, "this node's index into -peers")
	peers := flag.String("peers", ":7001", "comma-separated listen addresses of all nodes, in node-id order")
	demo := flag.String("demo", "", "workload to drive from this node: '' (serve only) or 'vcounter'")
	n := flag.Int("n", 16, "keys -demo vcounter bumps, once each (at most 16)")
	probe := flag.Duration("probe", 0, "peer health-probe interval (0 disables); down peers are excluded from placement")
	rebalance := flag.Duration("rebalance", 0, "automatic rebalance interval (0 disables); overloaded nodes live-migrate objects away")
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if *id < 0 || *id >= len(addrs) {
		log.Fatalf("parcnode: -id %d outside -peers list of %d", *id, len(addrs))
	}
	rt, err := parc.ServeNode(
		parc.WithNodeID(*id),
		parc.WithListen(addrs[*id]),
		parc.WithHealthProbe(*probe),
		parc.WithRebalance(*rebalance),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	log.Printf("parcnode: node %d serving on %s", *id, rt.Addr())
	// Virtual classes must be registered identically on every node; the
	// ring decides at call time which node actually hosts each key.
	parc.RegisterVirtualAt[vcounter](rt, "vcounter", parc.WithReplicas(1))

	// The listen addresses may use :0; substitute this node's resolved
	// address before joining.
	addrs[*id] = rt.Addr()
	if err := waitForPeers(rt, addrs, 30*time.Second); err != nil {
		log.Fatal(err)
	}
	if err := rt.JoinCluster(addrs); err != nil {
		log.Fatal(err)
	}
	log.Printf("parcnode: node %d joined cluster of %d", *id, len(addrs))

	switch *demo {
	case "":
		// Serve until interrupted.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		log.Printf("parcnode: node %d shutting down", *id)
	case "vcounter":
		// Bump a handful of keys; each key activates on its ring owner at
		// the first call — no node ever creates these objects explicitly.
		ctx := context.Background()
		keys := *n
		if keys > 16 {
			keys = 16
		}
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("user%d", k)
			obj, err := parc.VirtualAt[vcounter](ctx, rt, "vcounter", key)
			if err != nil {
				log.Fatal(err)
			}
			total, err := parc.Call[int64](ctx, obj, "Bump", int64(k+1))
			if err != nil {
				log.Fatal(err)
			}
			owner, _ := rt.VirtualOwner("vcounter", key)
			fmt.Printf("vcounter/%s on node %d: total %d\n", key, owner, total)
		}
	default:
		log.Fatalf("parcnode: unknown -demo %q", *demo)
	}
}

// waitForPeers blocks until every peer's listener accepts connections, so
// nodes can be started in any order.
func waitForPeers(rt *parc.Runtime, addrs []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, addr := range addrs {
		if addr == rt.Addr() {
			continue
		}
		for {
			if err := probe(addr); err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("parcnode: peer %d at %s never came up", i, addr)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	return nil
}

func probe(addr string) error {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	c.Close()
	return nil
}
