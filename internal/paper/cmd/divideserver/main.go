// Divideserver reproduces the paper's Figs. 1 and 2 side by side: the same
// remote division service written against the Java-RMI-style API (explicit
// export, registry lookup, checked remote exceptions) and against the
// C#-remoting-style API (an object published under a well-known URI,
// Activator.GetObject, plain errors, async delegates) — the §2 comparison
// as runnable code.
//
// Run with:
//
//	go run ./internal/paper/cmd/divideserver 10 4
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/paper/rmi"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// DServer is the divide service of the paper's figures.
type DServer struct{}

// Divide returns d1/d2.
func (DServer) Divide(d1, d2 float64) (float64, error) {
	if d2 == 0 {
		return 0, errors.New("division by zero")
	}
	return d1 / d2, nil
}

func main() {
	d1, d2 := 10.0, 4.0
	if len(os.Args) >= 3 {
		var err error
		if d1, err = strconv.ParseFloat(os.Args[1], 64); err != nil {
			log.Fatal(err)
		}
		if d2, err = strconv.ParseFloat(os.Args[2], 64); err != nil {
			log.Fatal(err)
		}
	}
	net := transport.NewMemNetwork()

	// --- Fig. 1: the Java RMI flavour -------------------------------
	// Server: instantiate explicitly, export, bind in the registry.
	server := rmi.NewRuntime(net)
	if err := server.Listen("mem://rmihost"); err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	if err := server.Rebind("DivideServer", DServer{}); err != nil {
		log.Fatal(err)
	}
	// Client: registry lookup, then invoke; every step can throw a
	// RemoteException.
	client := rmi.NewRuntime(net)
	stub, err := client.Lookup(server.URLFor("DivideServer"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := stub.Invoke("Divide", d1, d2)
	if err != nil {
		var re *rmi.RemoteException
		if errors.As(err, &re) {
			log.Fatalf("RemoteException: %v", re)
		}
		log.Fatal(err)
	}
	fmt.Printf("Java RMI style:      %v / %v = %v (via %s)\n", d1, d2, res, server.URLFor("DivideServer"))

	// --- Fig. 2: the C# remoting flavour -----------------------------
	// Server: publish the object under a well-known URI
	// (RemotingServices.Marshal); no registry, no stubs to generate.
	ch := remoting.NewMultiplexedChannel(net)
	defer ch.Close()
	srv, err := ch.ListenAndServe("mem://cshost")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	srv.Marshal("DivideServer", DServer{})

	// Client: Activator.GetObject and call; errors are ordinary values.
	ref, err := remoting.GetObject(ch, srv.URLFor("DivideServer"))
	if err != nil {
		log.Fatal(err)
	}
	res, err = ref.Invoke("Divide", d1, d2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C# remoting style:   %v / %v = %v (via %s)\n", d1, d2, res, srv.URLFor("DivideServer"))

	// Bonus from §2: asynchronous delegate invocation, which "in Java
	// must be explicitly programmed using threads".
	endInvoke := beginInvoke(ref, "Divide", d1, d2)
	async, err := endInvoke()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async delegate:      BeginInvoke/EndInvoke = %v\n", async)

	// And the failure path: no checked exception, just an error value.
	if _, err := ref.Invoke("Divide", 1.0, 0.0); err != nil {
		fmt.Printf("error propagation:   %v\n", err)
	}
}

// beginInvoke is the delegate BeginInvoke of the paper's Fig. 4 over the
// channel's completion-driven call: it returns at once, and the EndInvoke it
// hands back blocks for the outcome.
func beginInvoke(ref *remoting.ObjRef, method string, args ...any) (endInvoke func() (any, error)) {
	type outcome struct {
		v   any
		err error
	}
	done := make(chan outcome, 1)
	if err := ref.InvokeAsyncCb(context.Background(), new(remoting.CallRecord), method, args, remoting.CompletionFunc(func(v any, err error) {
		done <- outcome{v, err}
	})); err != nil {
		done <- outcome{nil, err}
	}
	return func() (any, error) {
		o := <-done
		return o.v, o.err
	}
}
