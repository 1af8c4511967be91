SOCKET ?= /tmp/selest-demo.sock
CLI = dune exec --no-build bin/selest_cli.exe --

.PHONY: build test bench bench-smoke serve-demo lockfree-check clean

build:
	dune build

test: build
	dune runtest

bench: build
	dune exec bench/main.exe

# Quick inference-core benchmark: asserts the optimized VE/batch paths are
# bit-identical to their reference engines and emits BENCH_inference.json.
# The plan figure asserts the compiled-plan pipeline (compile once, bind
# many) is bit-identical to the one-shot path and that a warm execute is
# no slower than recompiling per request, emitting BENCH_plan.json.
# The obs figure then runs a traced estimate (asserting tracing overhead
# < 8% / < 150ns per span and EXPLAIN stage-sum fidelity), emits BENCH_obs.json, and its
# normalized EXPLAIN/METRICS shape is diffed against the checked-in
# golden so response-format regressions fail CI.
# The opt figure runs the plan-regret harness (exact-oracle regret must
# be exactly 1.0 and PRM must regret no more rows than AVI on the TB
# keyjoin suite) and emits BENCH_opt.json.
# The learn figure races the incremental structure climber against the
# naive reference on the TB database, asserts the two are bit-identical
# (same trajectory, same serialized model) and that the incremental one
# is no slower, and emits BENCH_learn.json.
# The exec figure gates the bytecode executor: bit-identity against
# Ve.Reference, >= 5x over the generic warm execute, a hard
# zero-allocation gate (Gc.minor_words delta must be exactly 0 across
# 10k warm load+run pairs) and binary-frame EST throughput >= text, and
# emits BENCH_exec.json.
# The frontend figure gates the allocation-free request front-end: the
# zero-copy parser must agree with the reference pipeline on every TB
# body and run >= 2x faster, compiled range/set predicates must be
# bit-identical to the generic engine and Ve.Reference, a warm served
# EST round trip (socket read -> answer write, text and binary framing)
# must allocate exactly zero minor words, and transport-free QPS must
# hold the BENCH_exec.json baselines (so it runs after the exec
# figure); emits BENCH_frontend.json.
# The telemetry figure gates the sharded telemetry core: per-request
# bookkeeping < 5% of a cold EST, merged snapshots bit-exact against a
# sequential oracle, multi-domain contention scaling (skipped on
# single-core hosts), HEALTH/SLOWLOG end to end, and its response shape
# diffed against test/golden/telemetry_golden.txt; emits
# BENCH_telemetry.json.
# The serve figure gates the shard-per-domain server over real sockets:
# QPS at 1/2/4 executor domains (the >= 1.7x 2→4 scaling gate is
# recorded as skipped on hosts with < 4 cores), bit-identity of every
# sharded answer against the transport-free single-domain reference,
# admission-control BUSY rejection, TCP text + binary transport, and
# registry epoch publication; emits BENCH_serve.json.
bench-smoke: build
	dune exec bench/main.exe -- --fig inference
	@python3 -m json.tool BENCH_inference.json > /dev/null 2>&1 \
	  && echo "BENCH_inference.json: valid" \
	  || { echo "BENCH_inference.json: INVALID JSON"; exit 1; }
	dune exec bench/main.exe -- --fig learn
	@python3 -m json.tool BENCH_learn.json > /dev/null 2>&1 \
	  && echo "BENCH_learn.json: valid" \
	  || { echo "BENCH_learn.json: INVALID JSON"; exit 1; }
	dune exec bench/main.exe -- --fig plan
	@python3 -m json.tool BENCH_plan.json > /dev/null 2>&1 \
	  && echo "BENCH_plan.json: valid" \
	  || { echo "BENCH_plan.json: INVALID JSON"; exit 1; }
	dune exec bench/main.exe -- --fig obs
	@python3 -m json.tool BENCH_obs.json > /dev/null 2>&1 \
	  && echo "BENCH_obs.json: valid" \
	  || { echo "BENCH_obs.json: INVALID JSON"; exit 1; }
	@diff -u test/golden/obs_golden.txt BENCH_obs_golden.txt \
	  && echo "obs golden: match" \
	  || { echo "obs golden: EXPLAIN/METRICS shape changed (update test/golden/obs_golden.txt if intended)"; exit 1; }
	dune exec bench/main.exe -- --fig opt
	@python3 -m json.tool BENCH_opt.json > /dev/null 2>&1 \
	  && echo "BENCH_opt.json: valid" \
	  || { echo "BENCH_opt.json: INVALID JSON"; exit 1; }
	dune exec bench/main.exe -- --fig exec
	@python3 -m json.tool BENCH_exec.json > /dev/null 2>&1 \
	  && echo "BENCH_exec.json: valid" \
	  || { echo "BENCH_exec.json: INVALID JSON"; exit 1; }
	dune exec bench/main.exe -- --fig frontend
	@python3 -m json.tool BENCH_frontend.json > /dev/null 2>&1 \
	  && echo "BENCH_frontend.json: valid" \
	  || { echo "BENCH_frontend.json: INVALID JSON"; exit 1; }
	dune exec bench/main.exe -- --fig telemetry
	@python3 -m json.tool BENCH_telemetry.json > /dev/null 2>&1 \
	  && echo "BENCH_telemetry.json: valid" \
	  || { echo "BENCH_telemetry.json: INVALID JSON"; exit 1; }
	@diff -u test/golden/telemetry_golden.txt BENCH_telemetry_golden.txt \
	  && echo "telemetry golden: match" \
	  || { echo "telemetry golden: HEALTH/SLOWLOG shape changed (update test/golden/telemetry_golden.txt if intended)"; exit 1; }
	dune exec bench/main.exe -- --fig serve
	@python3 -m json.tool BENCH_serve.json > /dev/null 2>&1 \
	  && echo "BENCH_serve.json: valid" \
	  || { echo "BENCH_serve.json: INVALID JSON"; exit 1; }

# Each shard's domain owns its caches and the plans in them, so the
# modules that hold that state must never take a lock.  Fails if Mutex
# appears in any of them (or one of them is missing).
LOCKFREE_SRCS = lib/plan/plan.ml lib/serve/plan_cache.ml lib/serve/lru.ml \
  lib/obs/qerror.ml

lockfree-check:
	@status=0; grep -n Mutex $(LOCKFREE_SRCS) || status=$$?; \
	if [ $$status -ne 1 ]; then \
	  echo "lockfree-check: FAIL (Mutex found or file missing)"; exit 1; \
	fi; \
	echo "lockfree-check: ok ($(LOCKFREE_SRCS))"

# Smoke-test the estimation service end to end: start a server that learns
# a PRM over the TB dataset, exercise the whole protocol, shut it down.
serve-demo: build
	@rm -f $(SOCKET)
	@$(CLI) serve -d tb --learn -b 4096 --socket $(SOCKET) & \
	trap 'kill %1 2>/dev/null' EXIT; \
	$(CLI) ask --socket $(SOCKET) PING && \
	$(CLI) ask --socket $(SOCKET) "EST c=contact, p=patient ; c.patient=p ; p.USBorn=yes" && \
	$(CLI) ask --socket $(SOCKET) "EST p=patient, c=contact ; c.patient=p ; p.USBorn={yes}" && \
	$(CLI) ask --socket $(SOCKET) STATS && \
	$(CLI) ask --socket $(SOCKET) SHUTDOWN && \
	wait

clean:
	dune clean
