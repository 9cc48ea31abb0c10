package main

//go:generate go run repro/cmd/parcgen -in classes.go -out classes_parc.go

import (
	"sync/atomic"
	"time"

	"repro/internal/raytracer"
)

// serviceTime is how long Echo.Serve holds its object: the frozen service
// time of the serve_open workload (see BENCHMARK.json).
const serviceTime = 2 * time.Millisecond

// bodyStamps receives method-body entry and exit times during the traced
// span pass; nil otherwise. The benchmark's own classes stamp it, so the
// server_in/exec/server_out spans need no hook inside the runtime.
var bodyStamps atomic.Pointer[stamps]

func stampBody() func() {
	st := bodyStamps.Load()
	if st == nil {
		return func() {}
	}
	st.bodyIn.Store(nanotime())
	return func() { st.bodyOut.Store(nanotime()) }
}

// Echo is the parallel-object class of every call workload: it returns
// what it was sent and counts its calls, so the harness can check that no
// call was lost or doubled.
//
//parc:parallel
type Echo struct {
	calls atomic.Int64
}

// Ints echoes a small numeric payload.
func (e *Echo) Ints(v []int32) []int32 {
	defer stampBody()()
	e.calls.Add(1)
	return v
}

// Bytes echoes a bulk payload.
func (e *Echo) Bytes(b []byte) []byte {
	defer stampBody()()
	e.calls.Add(1)
	return b
}

// Serve echoes v after holding the object for serviceTime.
func (e *Echo) Serve(v []int32) []int32 {
	defer stampBody()()
	e.calls.Add(1)
	time.Sleep(serviceTime)
	return v
}

// Calls reports how many Ints, Bytes and Serve calls the object executed.
func (e *Echo) Calls() int64 { return e.calls.Load() }

// Tracer is the farm worker of the app_raytrace workload.
//
//parc:parallel
type Tracer struct {
	scene raytracer.Scene
	calls atomic.Int64
}

// Load builds the scene on the worker; it returns the pixel count so the
// generated proxy makes the call synchronous.
func (t *Tracer) Load(grid, width, height int) int {
	t.scene = raytracer.JGFScene(grid, width, height)
	return width * height
}

// Rows renders image rows [y0, y1).
func (t *Tracer) Rows(y0, y1 int) []int32 {
	defer stampBody()()
	t.calls.Add(1)
	return t.scene.RenderRows(y0, y1, 1)
}

// Calls reports how many Rows calls the worker executed.
func (t *Tracer) Calls() int64 { return t.calls.Load() }
