// The step benchmark is a module of its own so that it carries its own
// build file; the import path repro/bench keeps repro/internal importable.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
