// Package mayflower is a from-scratch Go reproduction of "Mayflower:
// Improving Distributed Filesystem Performance Through SDN/Filesystem
// Co-Design" (ICDCS 2016): a distributed filesystem whose replica
// selection and network path selection are performed jointly by a
// Flowserver embedded in the SDN control plane.
//
// The repository root carries the benchmark harness (bench_test.go), with
// one benchmark per table/figure of the paper's evaluation. The
// implementation lives under internal/ (see DESIGN.md for the module
// map) and the executables under cmd/.
package mayflower
