.PHONY: all build test lint lint-mli lint-dsafe lint-dsafe-growth lint-dead lint-dead-growth lint-knobs check replay-smoke soak-smoke prof-smoke topk-smoke churn-smoke serve-smoke bench bench-full bench-json bench-gate examples demo clean

EXE := _build/default/bin/expfinder.exe

all: build

build:
	dune build @all

test:
	dune runtest

# Lint gate: refuse staged build artifacts (they are gitignored, but a
# forced add would still slip through), then build everything under the
# dev profile, whose env stanza promotes all warnings to errors.
lint:
	@staged=$$(git diff --cached --name-only --diff-filter=d | grep -E '^(_build/|bench_output_full\.txt$$)' || true); \
	if [ -n "$$staged" ]; then \
	  echo "error: build artifacts staged for commit:"; echo "$$staged"; exit 1; \
	fi
	dune build @all --profile dev

# Strict interface lint (odoc is not in the container, so this stands in
# for `dune build @doc`): every library module must ship an explicit
# .mli, and every .mli must carry at least one (** ... *) doc comment.
# Sanctioned exceptions (signature-only modules) live in lint/mli.allow,
# shared with the dsafe gate below.  An entry naming a file that no
# longer exists fails the gate, so the list only holds live exemptions.
lint-mli:
	@missing=0; \
	for f in $$(grep -v '^[[:space:]]*\#' lint/mli.allow | awk 'NF { print $$1 }'); do \
	  if [ ! -f "$$f" ]; then echo "lint-mli: stale entry in lint/mli.allow: $$f"; missing=1; fi; \
	done; \
	for f in lib/*/*.ml; do \
	  if grep -q "^$$f\([[:space:]]\|$$\)" lint/mli.allow; then continue; fi; \
	  if [ ! -f "$${f}i" ]; then echo "lint-mli: missing interface $${f}i"; missing=1; fi; \
	done; \
	for f in lib/*/*.mli; do \
	  if ! grep -q '(\*\*' "$$f"; then echo "lint-mli: no doc comment in $$f"; missing=1; fi; \
	done; \
	[ $$missing -eq 0 ] && echo "lint-mli: ok"

# Domain-safety ratchet: dlint walks the .cmt typedtrees under _build,
# inventories every module-level mutable binding, sweeps for banned
# constructs (Obj.magic, Marshal.from_*, Random.self_init) and audits
# the read-path signatures, then gates all findings against
# lint/dsafe.allow.  Fails on any unallowlisted finding (new shared
# mutable state) and on stale allowlist entries (the list only shrinks).
# The JSON report lands in _build/dsafe-report.json (CI uploads it).
lint-dsafe: build
	_build/default/bin/dlint.exe \
	  --allow lint/dsafe.allow --mli-allow lint/mli.allow \
	  --json _build/dsafe-report.json \
	  _build/default/lib _build/default/bin

# Allowlist growth guard: lint-dsafe already fails on stale entries, so
# the list cannot carry dead weight; this half of the ratchet fails the
# gate when the list gains net entries over the committed baseline.  New
# shared mutable state must displace old entries (or genuinely new
# infrastructure must lower the baseline elsewhere first) — never grow
# the total.  Lower the baseline whenever entries are paid off.
DSAFE_ALLOW_BASELINE := 30
lint-dsafe-growth:
	@n=$$(grep -cv '^[[:space:]]*\#\|^[[:space:]]*$$' lint/dsafe.allow); \
	if [ "$$n" -gt $(DSAFE_ALLOW_BASELINE) ]; then \
	  echo "lint-dsafe-growth: lint/dsafe.allow holds $$n entries, baseline is $(DSAFE_ALLOW_BASELINE) — the allowlist only shrinks"; \
	  exit 1; \
	else \
	  echo "lint-dsafe-growth: ok ($$n entries <= baseline $(DSAFE_ALLOW_BASELINE))"; \
	fi

# Dead-export ratchet: `dlint --dead` collects every val of every lib/
# interface and resolves every identifier in the typedtrees of lib/,
# bin/, bench/, perfbench/ and examples/ (not test/), then gates the
# exports nothing outside their own unit references against
# lint/dead.allow.  Fails on an unreferenced export without an entry
# and on a stale entry.  Executables leave their .cmt files only under
# `dune build @check` (lint-dsafe skips them).
lint-dead: build
	dune build @check
	_build/default/bin/dlint.exe --dead --allow lint/dead.allow \
	  _build/default/lib _build/default/bin _build/default/bench \
	  _build/default/perfbench _build/default/examples

# Growth guard for lint/dead.allow, as lint-dsafe-growth is for
# lint/dsafe.allow: the list only shrinks.
DEAD_ALLOW_BASELINE := 22
lint-dead-growth:
	@n=$$(grep -cv '^[[:space:]]*\#\|^[[:space:]]*$$' lint/dead.allow); \
	if [ "$$n" -gt $(DEAD_ALLOW_BASELINE) ]; then \
	  echo "lint-dead-growth: lint/dead.allow holds $$n entries, baseline is $(DEAD_ALLOW_BASELINE) — the allowlist only shrinks"; \
	  exit 1; \
	else \
	  echo "lint-dead-growth: ok ($$n entries <= baseline $(DEAD_ALLOW_BASELINE))"; \
	fi

# Knob ratchet: every distinct "EXPFINDER_*" environment name that the
# code in lib/ and bin/ reads must be documented in README.md, and their
# number may only fall.  A new knob must displace an old one; lower the
# baseline whenever a knob goes.
KNOB_BASELINE := 5
lint-knobs:
	@knobs=$$(grep -rhoE '"EXPFINDER_[A-Z0-9_]+"' lib bin --include='*.ml' | tr -d '"' | sort -u); \
	n=$$(printf '%s\n' "$$knobs" | grep -c .); missing=0; \
	for k in $$knobs; do \
	  grep -qw "$$k" README.md || { echo "lint-knobs: $$k is not documented in README.md"; missing=1; }; \
	done; \
	if [ "$$n" -gt $(KNOB_BASELINE) ]; then \
	  echo "lint-knobs: $$n env knobs, baseline is $(KNOB_BASELINE) — knobs only go"; exit 1; \
	fi; \
	[ $$missing -eq 0 ] && echo "lint-knobs: ok ($$n knobs <= baseline $(KNOB_BASELINE))"

# Pre-merge gate: lint + tests, then the whole suite again with the
# differential self-checker on (every cached/registered/compressed answer
# re-verified against direct evaluation; <1s overhead), then again with
# a 2-domain execution model forced through every ?domains default (the
# pool serving path switches on, and updates are applied on its
# workers), then the serving-path smokes — including the
# parallel-vs-sequential replay differential — then short top-K,
# update-churn and serve-hot benchmark runs as correctness smokes, and
# finally a soft perf-regression check against the committed baseline
# (warn-only here: quick-mode medians are too noisy to block a merge on;
# run bench-gate directly for a hard verdict).
check: lint lint-mli lint-dsafe lint-dsafe-growth lint-dead lint-dead-growth lint-knobs
	dune runtest
	EXPFINDER_CHECK=1 dune runtest --force
	$(MAKE) --no-print-directory test-domains
	$(MAKE) --no-print-directory replay-smoke
	$(MAKE) --no-print-directory soak-smoke
	$(MAKE) --no-print-directory par-diff-smoke
	$(MAKE) --no-print-directory prof-smoke
	$(MAKE) --no-print-directory topk-smoke
	$(MAKE) --no-print-directory churn-smoke
	$(MAKE) --no-print-directory serve-smoke
	-@if [ -f BENCH_baseline.json ]; then $(MAKE) --no-print-directory bench-gate; fi

# The full suite under a multicore execution model: EXPFINDER_DOMAINS=2
# sizes the serving pool, so every server the suite starts without an
# explicit ~domains runs a 2-worker pool instead of the single-threaded
# loop, and applies update batches on those workers under the engine's
# writer lock.  Query evaluation is sequential either way.
test-domains:
	EXPFINDER_DOMAINS=2 dune runtest --force

# Serving-path smoke gate: serve the committed smoke workload over a
# unix socket with qlog capture on, drive it through the client, shut
# the server down cleanly, then replay the captured log against a fresh
# engine — the replay command exits non-zero unless every answer digest
# is byte-identical to the one recorded at capture time. Invokes the
# built binary directly: `dune exec` takes the build lock, which would
# deadlock the backgrounded server against the foreground client.
replay-smoke: build
	@rm -rf _build/replay_smoke && mkdir -p _build/replay_smoke
	@EXPFINDER_QLOG=_build/replay_smoke/qlog.jsonl \
	  $(EXE) serve -g workloads/smoke/collab.graph \
	    --socket _build/replay_smoke/sock >/dev/null & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
	  [ -S _build/replay_smoke/sock ] && break; sleep 0.05; \
	done; \
	$(EXE) client --socket _build/replay_smoke/sock --ping \
	  -q workloads/smoke/paper.pattern -q workloads/smoke/sa.pattern \
	  --batch workloads/smoke/queries.batch --repeat 3 --shutdown \
	  >/dev/null \
	  || { kill $$pid 2>/dev/null; echo "replay-smoke: client failed"; exit 1; }; \
	wait $$pid; \
	$(EXE) replay _build/replay_smoke/qlog.jsonl -g workloads/smoke/collab.graph

# Long-horizon telemetry smoke gate. A healthy soak first: query and
# update clients run concurrently with the 1 s sampler and the fixed
# SLO policy, then the live endpoints are scraped — the
# timeseries document must carry all three retention resolutions, no
# alert may fire on a healthy run, and a latency exemplar advertised in
# /stats.json must resolve to a stored trace in /traces.json (and render
# through the trace explorer). Then the crash path: SIGTERM the
# server while a query client is mid-flight and require a readable
# postmortem artifact (exit 143 = 128+SIGTERM, reason recorded).
# Invokes $(EXE) directly for the same build-lock reason as
# replay-smoke.
soak-smoke: build
	@rm -rf _build/soak_smoke && mkdir -p _build/soak_smoke/pm
	@EXPFINDER_QLOG=_build/soak_smoke/qlog.jsonl \
	 EXPFINDER_TIMESERIES=_build/soak_smoke/ts.jsonl \
	 EXPFINDER_POSTMORTEM_DIR=_build/soak_smoke/pm \
	  $(EXE) serve -g workloads/smoke/collab.graph \
	    --socket _build/soak_smoke/sock >/dev/null & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
	  [ -S _build/soak_smoke/sock ] && break; sleep 0.05; \
	done; \
	$(EXE) client --socket _build/soak_smoke/sock \
	  --insert 1,5 --delete 1,5 --repeat 10 >/dev/null & \
	cpid=$$!; \
	$(EXE) client --socket _build/soak_smoke/sock --ping \
	  -q workloads/smoke/paper.pattern -q workloads/smoke/sa.pattern \
	  --repeat 10 >/dev/null \
	  || { kill $$pid $$cpid 2>/dev/null; echo "soak-smoke: query client failed"; exit 1; }; \
	wait $$cpid \
	  || { kill $$pid 2>/dev/null; echo "soak-smoke: update client failed"; exit 1; }; \
	sleep 1; \
	rings=$$($(EXE) get --socket _build/soak_smoke/sock /timeseries.json \
	  | grep -c '"res_s"'); \
	[ "$$rings" -ge 3 ] \
	  || { kill $$pid 2>/dev/null; echo "soak-smoke: want >=3 timeseries resolutions, got $$rings"; exit 1; }; \
	if $(EXE) get --socket _build/soak_smoke/sock /alerts.json \
	  | grep -q '"firing": true'; then \
	  kill $$pid 2>/dev/null; echo "soak-smoke: alert firing on a healthy run"; exit 1; fi; \
	ex=$$($(EXE) get --socket _build/soak_smoke/sock /stats.json \
	  | grep -A1 '"le":' | grep -o '[0-9a-f]\{32\}' | head -n1); \
	[ -n "$$ex" ] \
	  || { kill $$pid 2>/dev/null; echo "soak-smoke: no latency exemplar in /stats.json"; exit 1; }; \
	$(EXE) get --socket _build/soak_smoke/sock /traces.json | grep -q "$$ex" \
	  || { kill $$pid 2>/dev/null; echo "soak-smoke: exemplar $$ex unresolvable in /traces.json"; exit 1; }; \
	$(EXE) trace --socket _build/soak_smoke/sock show "$$ex" >/dev/null \
	  || { kill $$pid 2>/dev/null; echo "soak-smoke: expfinder trace show $$ex failed"; exit 1; }; \
	( $(EXE) client --socket _build/soak_smoke/sock \
	    -q workloads/smoke/paper.pattern --repeat 200 >/dev/null 2>&1 & ); \
	sleep 0.2; \
	kill -TERM $$pid; \
	wait $$pid; code=$$?; \
	[ $$code -eq 143 ] \
	  || { echo "soak-smoke: server exit $$code, want 143"; exit 1; }; \
	pm=$$(ls _build/soak_smoke/pm/postmortem-*.json 2>/dev/null | head -n1); \
	[ -n "$$pm" ] \
	  || { echo "soak-smoke: no postmortem artifact written"; exit 1; }; \
	$(EXE) postmortem "$$pm" | grep -q "SIGTERM" \
	  || { echo "soak-smoke: postmortem unreadable or missing its reason"; exit 1; }; \
	echo "soak-smoke: ok ($$pm)"

# Multicore differential gate: the same smoke workload served by a
# 2-domain pool, whose workers apply update batches under the engine's
# writer lock, with qlog capture on — first a read-only soak from two
# concurrent client worker domains, then two concurrent update-only
# clients (one inserting edge 8->3, one deleting it: the graph they
# leave depends on the order their batches were applied in, and the
# paper pattern's answer on whether that edge is there), then two
# sequential rounds of query, query, batch and update, the update
# inserting Example 3's edge e1 (Fred -> Bill, 7 -> 2), which adds
# (SD, Fred) to the paper pattern's answer — and the captured log
# replayed against a fresh single-domain engine.  The replay command
# exits non-zero unless every parallel-served answer digest, batch
# digests included, is byte-identical to its sequential re-evaluation;
# the queries after the concurrent updates match only if the log ends
# those updates in apply order.  Then the epochs the logged update
# events carry must never go back: each event carries the epoch its
# batch left published, so this holds exactly when the log lists every
# batch in apply order.  Last, the paper pattern's logged query digests
# must take at least 2 distinct values, so the replay has checked
# answers that an update changed.
# Invokes $(EXE) directly for the same build-lock reason as
# replay-smoke.
par-diff-smoke: build
	@rm -rf _build/par_smoke && mkdir -p _build/par_smoke
	@EXPFINDER_QLOG=_build/par_smoke/qlog.jsonl EXPFINDER_DOMAINS=2 \
	  $(EXE) serve -g workloads/smoke/collab.graph \
	    --socket _build/par_smoke/sock >/dev/null & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
	  [ -S _build/par_smoke/sock ] && break; sleep 0.05; \
	done; \
	$(EXE) client --socket _build/par_smoke/sock \
	  -q workloads/smoke/paper.pattern -q workloads/smoke/sa.pattern \
	  --batch workloads/smoke/queries.batch --repeat 3 --concurrency 2 \
	  || { kill $$pid 2>/dev/null; echo "par-diff-smoke: soak client failed"; exit 1; }; \
	$(EXE) client --socket _build/par_smoke/sock \
	  --insert 8,3 --repeat 200 >/dev/null & \
	ipid=$$!; \
	$(EXE) client --socket _build/par_smoke/sock \
	  --delete 8,3 --repeat 200 >/dev/null \
	  || { kill $$pid $$ipid 2>/dev/null; echo "par-diff-smoke: delete client failed"; exit 1; }; \
	wait $$ipid \
	  || { kill $$pid 2>/dev/null; echo "par-diff-smoke: insert client failed"; exit 1; }; \
	$(EXE) client --socket _build/par_smoke/sock \
	  -q workloads/smoke/paper.pattern -q workloads/smoke/sa.pattern \
	  --batch workloads/smoke/queries.batch \
	  --insert 7,2 --repeat 2 --shutdown >/dev/null \
	  || { kill $$pid 2>/dev/null; echo "par-diff-smoke: update client failed"; exit 1; }; \
	wait $$pid; \
	$(EXE) replay _build/par_smoke/qlog.jsonl -g workloads/smoke/collab.graph || exit 1; \
	grep '"kind":"update"' _build/par_smoke/qlog.jsonl | grep -o '"epoch":[0-9]*' | cut -d: -f2 \
	  | awk 'NR > 1 && $$1 < prev { print "par-diff-smoke: update logged at epoch " $$1 " after epoch " prev; bad = 1 } \
	         { prev = $$1 } END { exit bad }' || exit 1; \
	grep '"kind":"query"' _build/par_smoke/qlog.jsonl | grep 'node 3 ST ST' \
	  | grep -o '"digest":"[0-9a-f]*"' | sort -u | wc -l \
	  | awk '$$1 < 2 { print "par-diff-smoke: the paper pattern logged " $$1 " distinct answer digest(s), want at least 2"; exit 1 }'

# Multicore observability smoke gate: serve a short workload on a
# 2-domain pool, then scrape the surfaces with `expfinder get` and
# require them to be live and well-formed — /profile.folded must hold
# domain-prefixed collapsed stacks with integer self-ns values (the
# flamegraph.pl contract), /domains.json must carry the
# pool/worker/gc sections and /stats.json the pool summary.  The folded
# profile is kept under _build/prof_smoke/ for CI to upload next to the
# dsafe report.  Invokes $(EXE) directly for the same build-lock reason
# as replay-smoke.
prof-smoke: build
	@rm -rf _build/prof_smoke && mkdir -p _build/prof_smoke
	@EXPFINDER_DOMAINS=2 \
	  $(EXE) serve -g workloads/smoke/collab.graph \
	    --socket _build/prof_smoke/sock >/dev/null & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
	  [ -S _build/prof_smoke/sock ] && break; sleep 0.05; \
	done; \
	$(EXE) client --socket _build/prof_smoke/sock --ping \
	  -q workloads/smoke/paper.pattern -q workloads/smoke/sa.pattern \
	  --batch workloads/smoke/queries.batch \
	  --insert 1,5 --delete 1,5 --repeat 5 >/dev/null \
	  || { kill $$pid 2>/dev/null; echo "prof-smoke: client failed"; exit 1; }; \
	sleep 0.5; \
	$(EXE) get --socket _build/prof_smoke/sock /profile.folded \
	  > _build/prof_smoke/profile.folded \
	  || { kill $$pid 2>/dev/null; echo "prof-smoke: /profile.folded scrape failed"; exit 1; }; \
	grep -q '^domain-[0-9][0-9]*;' _build/prof_smoke/profile.folded \
	  || { kill $$pid 2>/dev/null; echo "prof-smoke: no domain-prefixed stacks in /profile.folded"; exit 1; }; \
	grep -qv '^domain-[0-9][0-9]*;[^ ]* [0-9][0-9]*$$' _build/prof_smoke/profile.folded \
	  && { kill $$pid 2>/dev/null; echo "prof-smoke: malformed folded line (want 'stack <self-ns>')"; exit 1; }; \
	$(EXE) get --socket _build/prof_smoke/sock /domains.json \
	  > _build/prof_smoke/domains.json \
	  || { kill $$pid 2>/dev/null; echo "prof-smoke: /domains.json scrape failed"; exit 1; }; \
	for key in '"workers"' '"queue_depth"' '"by_domain"' '"stale_reads"' '"folded"'; do \
	  grep -q "$$key" _build/prof_smoke/domains.json \
	    || { kill $$pid 2>/dev/null; echo "prof-smoke: /domains.json missing $$key"; exit 1; }; \
	done; \
	$(EXE) get --socket _build/prof_smoke/sock /stats.json \
	  | grep -q '"pool"' \
	  || { kill $$pid 2>/dev/null; echo "prof-smoke: /stats.json missing the pool summary"; exit 1; }; \
	$(EXE) client --socket _build/prof_smoke/sock \
	  -q workloads/smoke/paper.pattern --shutdown >/dev/null \
	  || { kill $$pid 2>/dev/null; echo "prof-smoke: shutdown failed"; exit 1; }; \
	wait $$pid; \
	echo "prof-smoke: ok ($$(grep -c . _build/prof_smoke/profile.folded) folded stacks)"

# Top-K correctness smoke: a short untraced run of the topk-cold
# benchmark workload.  The run fails unless the paper's Example 2 gives
# Bob 9/5 then Walt 7/3, every pass returns the same top-K lists, and a
# seeded sample of answers equals the direct Planner.run ->
# Result_graph.build -> Ranking.top_k pipeline on a fresh graph copy.
topk-smoke:
	python3 perfbench/run.py --workload topk-cold --seed 1 --seconds 3 --trace 0

# Incremental-maintenance correctness smoke: a short traced run of the
# update-churn benchmark workload.  The run fails unless, after every
# pass, the engine's registered reads and the shadow Incremental
# kernels (which recompute without a published snapshot) equal direct
# evaluation on the final graph.
churn-smoke:
	python3 perfbench/run.py --workload update-churn --seed 1 --seconds 3 --trace 1

# Served-digest correctness smoke: a short untraced run of the serve-hot
# benchmark workload, where every answer is a cache hit whose digest
# comes from the memo in the cache entry.  The run fails unless every
# served total flag and digest equals direct evaluation on a fresh copy
# of the graph.
serve-smoke:
	python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 3 --trace 0

bench:
	dune exec bench/main.exe

bench-full:
	dune exec bench/main.exe -- --full --bechamel

# Machine-readable quick-mode report (schema consumed by bench-diff).
# Writes the committed baseline directly: run before a release (or after
# an intentional perf change) and commit the result so bench-gate and
# bench-diff compare against it.
bench-json:
	dune exec bench/main.exe -- --json BENCH_baseline.json

# Regression gate: re-run the quick benchmarks and diff against the
# committed baseline. Non-zero exit iff some experiment's median
# regressed beyond the noise rule (see `expfinder bench-diff --help`).
# The gate uses a +100% threshold (vs the manual default of +50%):
# quick-mode runs on a shared machine see bursty 1.5x swings that
# would otherwise self-flag across sessions.
bench-gate:
	dune exec bench/main.exe -- --json BENCH_scratch.json
	dune exec bin/expfinder.exe -- bench-diff --threshold 1.0 BENCH_baseline.json BENCH_scratch.json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/team_formation.exe
	dune exec examples/twitter_influencers.exe
	dune exec examples/dynamic_collaboration.exe
	dune exec examples/compression_pipeline.exe
	dune exec examples/movie_recommendation.exe

demo:
	dune exec bin/expfinder.exe -- demo

clean:
	dune clean
