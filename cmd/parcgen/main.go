// Command parcgen is the ParC# preprocessor (paper §3.2) for Go sources:
// it scans a file for types annotated with //parc:parallel and generates
// the proxy-object code the C# preprocessor produced (PO types, factories
// and typed async/sync method wrappers), plus typed invoker thunks so
// server-side dispatch skips reflection. A file of package core, the
// runtime's object manager (internal/core/omservice.go), gets the runtime
// flavour: one typed request constructor per method in place of the PO,
// and thunks registered with internal/dispatch, since core cannot import
// parc. No flag selects it.
//
// Usage:
//
//	parcgen -in server.go [-out server_parc.go]
//
// A go:generate line keeps the output fresh:
//
//	//go:generate go run repro/cmd/parcgen -in server.go -out server_parc.go
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/parcgen"
)

func main() {
	in := flag.String("in", "", "input Go source file")
	out := flag.String("out", "", "output file (default <in>_parc.go)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "parcgen: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if *out == "" {
		*out = strings.TrimSuffix(*in, ".go") + "_parc.go"
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parcgen: %v\n", err)
		os.Exit(1)
	}
	gen, err := parcgen.GenerateFile(*in, src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parcgen: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, gen, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "parcgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("parcgen: wrote %s\n", *out)
}
