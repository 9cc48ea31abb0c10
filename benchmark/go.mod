// The benchmark is a module of its own, so the root module's build and
// tests never depend on it; the replace directive points back at the code
// under measurement, and the repro/ module-path prefix keeps
// repro/internal/... importable.
module repro/benchmark

go 1.23

require repro v0.0.0

replace repro => ../
