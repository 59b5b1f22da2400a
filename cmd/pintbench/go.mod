// pintbench is a module of its own so the benchmark builds from its own
// build file; the replace keeps it compiling against this checkout.
module repro/cmd/pintbench

go 1.23

require repro v0.0.0

replace repro => ../..
