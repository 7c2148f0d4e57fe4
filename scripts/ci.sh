#!/usr/bin/env sh
# Full CI gate: build, vet, repo-invariant lint, tests, race tests, fuzz
# smoke. Mirrors .github/workflows/ci.yml so the same gate runs locally via
# `make ci`. Fails on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo '== go build =='
go build ./...

echo '== go vet =='
go vet ./...

echo '== sbgt-lint (waiver audit + baseline check) =='
go run ./cmd/sbgt-lint -audit ./...
go run ./cmd/sbgt-lint -baseline-check ./...

echo '== go test =='
go test ./...

echo '== go test -race (concurrency substrate + shared kernels + backend conformance + obs) =='
go test -race -short ./internal/engine ./internal/kernel ./internal/lattice ./internal/cluster ./internal/bench ./internal/posterior ./internal/core ./internal/obs ./internal/obs/profiler

echo '== fuzz smoke (10s each) =='
go test ./internal/prob -run FuzzLogSumExp -fuzz FuzzLogSumExp -fuzztime 10s
go test ./internal/bitvec -run FuzzBitVecRoundTrip -fuzz FuzzBitVecRoundTrip -fuzztime 10s
go test ./internal/obs -run FuzzTraceContextRoundTrip -fuzz FuzzTraceContextRoundTrip -fuzztime 10s
go test ./internal/analysis -run xxx -fuzz FuzzAllowParser -fuzztime 10s
go test ./internal/analysis -run xxx -fuzz FuzzBaselineReader -fuzztime 10s
go test ./internal/core -run xxx -fuzz FuzzSessionCheckpointLoad -fuzztime 10s

echo '== serve smoke (boot sbgt-serve, drive over HTTP, drain on SIGTERM) =='
./scripts/serve_smoke.sh

echo '== bench smoke (quick, vs committed baseline, 5x bound) =='
go run ./cmd/sbgt-bench -exp T1,F6,A5,S1,S1R,S1P -quick -baseline BENCH_new.json > /dev/null
go run ./cmd/sbgt-benchdiff -ratio 5 BENCH_4.json BENCH_new.json

echo '== sbgt-metriclint (metric naming + cardinality contract over the bench snapshot) =='
go run ./cmd/sbgt-metriclint BENCH_new.json
rm -f BENCH_new.json

echo 'CI gate passed.'
