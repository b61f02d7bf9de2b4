// Package repro is a from-scratch Go reproduction of "Progressive
// Compressed Records: Taking a Byte out of Deep Learning Data" (Kuchnik,
// Amvrosiadis, Smith — VLDB 2021), grown into a small serving system. See
// README.md for the architecture and DESIGN.md for the system inventory,
// the serving-layer wire protocol, and the per-experiment index.
//
// Package repro/pcr is the public entry point: it exposes the paper's three
// storage layouts (PCR, TFRecord, file-per-image) behind one Format
// interface, with Create/Open constructors, functional options, and a
// streaming, cache-aware, concurrently-decoding Scan iterator. Every format
// reads through a pluggable storage Backend, and pcr.OpenRemote opens a
// dataset served by cmd/pcrserved — an HTTP prefix server under
// internal/serve that turns the paper's sequential prefix reads into byte
// Range requests and its §5 delta cache upgrades into requests for only
// the missing bytes. pcr.Loader is the training input pipeline over either
// kind of dataset: sharded across workers, deterministically shuffled,
// batch-assembled, and quality-adaptive at record granularity (the §4.5
// knob driven by real observed losses; cmd/pcrtrain trains through it).
//
// The implementation lives under internal/ and the executables under cmd/;
// the root package holds only micro-benchmarks (bench_test.go): the record
// writer and reassembly, plus ablation benchmarks for the design choices
// called out in DESIGN.md. The paper's tables and figures are regenerated
// by cmd/experiments; the repository benchmark is bench/.
package repro
