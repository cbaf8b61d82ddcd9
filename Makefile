GO ?= go
SOAK ?= 60s

.PHONY: build test race race-procs repeat poison vet lint analyze crash stress soak all

all: build vet test

build:
	$(GO) build ./...

# The root package's yardstick smoke test builds and runs ./benchmark
# (up to 120s on a cold build cache), hence the longer package timeout.
test:
	$(GO) test -timeout 240s ./...

# RACE_PROCS_PKGS run under the race detector in race-procs, once per
# GOMAXPROCS value there; race covers every other package, so each
# package runs under the race detector once per configuration.
RACE_PROCS_PKGS = ./internal/txn ./internal/eca ./internal/storage ./internal/oodb ./internal/rules ./internal/core ./internal/fault/...

race:
	$(GO) test -race -timeout 240s $(filter-out $(shell $(GO) list $(RACE_PROCS_PKGS)),$(shell $(GO) list ./...))

# race-procs runs the lock manager, the rule engine, the storage
# manager, the object layer, the rule language, the assembled system and
# the crash matrix under the race detector at GOMAXPROCS 1, 2 and 4:
# their interleavings (lock hand-off and deadlock detection, parallel
# sibling rules, the short-cut hammer, dispatch plans republished under
# raises, buffer-frame recycling, group commit beside the fuzzy
# checkpoint, the executor and governor beside the checkpointer,
# recovery after a crash at every write) differ with the number of
# running threads.
race-procs:
	$(GO) test -race -cpu 1,2,4 -timeout 240s -count=1 $(RACE_PROCS_PKGS)

# repeat runs order-sensitive tests many times over: a nested composite's
# detection must not depend on which composer EOT happens to flush first.
# Under the race detector it then repeats the composer-recycling oracle
# (a recycled composer completes exactly what a fresh one does), EOT
# skipping the composers its transaction never fed while another
# composer is held, a temporal occurrence queued on a held composer
# staying out of a transaction that delivered after it, two
# composites sharing one primitive occurrence on their own goroutines,
# the event histories under four concurrent raisers on one hot key
# (Seq order, eviction and byte count while a reader polls),
# sequential-causal firings parking on transactions that other
# goroutines commit and abort, parallel- and exclusive-causal rules
# yielding to a trigger that writes what they wrote, and dependents
# leaving their commit wait as deadlock victims or when aborted by
# another goroutine, and a requester on a second cycle searching again
# after its dependent victim (eca and txn), and the powerplant,
# quickstart, trading and workflow examples, whose output (workflow:
# its totals) must match their goldens on every run.
repeat:
	$(GO) test -timeout 240s -count=300 -run 'TestCompositeOfComposite$$' ./internal/eca
	$(GO) test -race -timeout 240s -count=20 -run 'TestRecycledComposerMatchesFresh$$' ./internal/algebra
	$(GO) test -race -timeout 240s -count=20 -run 'TestEOTSkipsUnfedComposers$$|TestTemporalSkipsLaterTransactionsComposer$$|TestCompositesShareConstituent$$|TestHistoriesUnderConcurrentRaisers$$|TestSequentialCausalUnderConcurrentTriggers$$|TestCausalRuleYieldsToItsTrigger$$|TestCausalRuleDeadlineDoesNotWaitForTrigger$$' ./internal/eca
	$(GO) test -race -timeout 240s -count=20 -run 'TestDependentIsTheDeadlockVictim$$|TestAbortedDependentLeavesCommit$$|TestDependencyWaitIsTimedAsSharedLockWait$$|TestRequesterOnTwoCyclesSearchesAgain$$' ./internal/txn
	$(GO) test -race -timeout 240s -count=20 -run 'TestPowerplantGolden$$|TestQuickstartGolden$$|TestTradingGolden$$|TestWorkflowGolden$$' ./examples/powerplant ./examples/quickstart ./examples/trading ./examples/workflow

# poison builds with -tags poison, under which memory the engine
# reclaims traps instead of reading as zero: a firing set returned to
# its free list carries transactions with an impossible status, a
# poison ID and nil manager and parent, and nil rule contexts and queue
# entries; a recycled event instance carries poison IDs and keys; a
# transaction's engine state handed back to its pool has a poisoned
# owner, and a deferred-queue path reaching it panics. It
# runs the rule engine, the transaction manager, the assembled system,
# the object layer and the root tests under the race detector, so a
# read of reclaimed memory panics instead of passing quietly.
poison:
	$(GO) test -tags poison -race -timeout 240s -count=1 ./internal/eca ./internal/txn ./internal/core ./internal/oodb .

vet:
	$(GO) vet ./...

# lint fails when gofmt would reformat any Go file, then runs the
# REACH-specific analyzers (reachvet) over the module and the semantic
# rule-language pass (rulec -vet) over every shipped rule file. All
# three exit nonzero on findings.
lint:
	@unformatted="$$(gofmt -l ./internal ./cmd ./examples . | sort -u)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/reachvet
	$(GO) run ./cmd/rulec -vet examples/*/rules/*.rules

# analyze runs the whole-ruleset interaction analysis (triggering
# graph, termination, confluence, reachability) over every shipped
# rule file, failing on unsuppressed errors, and confirms the
# justified-suppression fixture stays accepted.
analyze:
	$(GO) run ./cmd/rulec -analyze examples/*/rules/*.rules
	$(GO) run ./cmd/rulec -analyze cmd/rulec/testdata/cycle_suppressed.rules

# crash runs a short fuzz of the WAL record decoder, then of restart:
# page-ordered redo against a log-order reference redo on the same
# crash image. Minimising a new input is bounded at 2s (the default is
# 60s), so a 10s smoke spends its time fuzzing. The crash matrix, its
# self-test and the checkpoint-site fault sweep run in test, and under
# the race detector in race-procs.
crash:
	$(GO) test -timeout 120s ./internal/storage -run FuzzReadRecord -fuzz FuzzReadRecord -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test -timeout 120s ./internal/storage -run FuzzRecoverMatchesLogOrder -fuzz FuzzRecoverMatchesLogOrder -fuzztime 10s -fuzzminimizetime 2s

# stress repeats the lock-head recycling hammer (grant, release,
# inherit, park, wake, deadlock victims and cancellation by another
# goroutine on one stripe), a child's commit racing its parent's abort,
# parallel sibling rule subtransactions, which live in one firing set
# shared by their goroutines and publish their phase histograms from
# their own goroutines, histogram scrapes racing single and batched
# observations, and storage commits and aborts sharing pages (per-frame
# steal counts, recycled transaction state) beside the background
# checkpointer, the three hazards of recycling a firing set (a
# deadlock search, a parent's abort and a retained occurrence reaching
# a reused subtransaction) and the two of recycling a transaction's
# engine state (a late occurrence and a parking sequential-causal
# firing reaching the state its ended transaction handed on), and the
# striped object catalog and the roots snapshot under concurrent
# clients (loads beside an abort that relocates a record, creates,
# deletes and failed flushes, root writes and their aborts beside a
# reader), five times under the race detector.
# The executor stress and the storage growth and checkpoint tests run
# under the race detector in race-procs.
stress:
	$(GO) test -race -timeout 120s -count=5 \
		-run 'TestLockHeadRecyclingHammer|TestChildCommitRacingParentAbort' \
		./internal/txn
	$(GO) test -race -timeout 120s -count=5 \
		-run 'TestParallelExecRunsSiblings|TestParallelDeferredExecution|TestPhaseHistogramsMatchSpans/parallel|TestSetRecyclingRacesDeadlockSearch|TestSetRecyclingRacesParentAbort|TestRetainedOriginOutlivesRecycling|TestLateRecordAfterStateRecycled|TestParkedFiringAfterStateRecycled' \
		./internal/eca
	$(GO) test -race -timeout 120s -count=5 \
		-run 'TestHistogramExpositionConsistentUnderWrites' \
		./internal/obs
	$(GO) test -race -timeout 120s -count=5 \
		-run 'TestConcurrentCommitsSharePages|TestStealProtectionCountsTransactions' \
		./internal/storage
	$(GO) test -race -timeout 120s -count=5 \
		-run 'TestCatalogUnderConcurrentClients|TestRootSnapshotFollowsSetRootAndAbort' \
		./internal/oodb

# soak runs the fault-armed overload soak under the race detector:
# writers hammer a slow detached rule through the governor's full
# degradation ladder while chaos waves break the checkpointer and
# escalate synthetic load, asserting forward progress, bounded memory,
# recovery to healthy, and a clean graceful shutdown. SOAK sets the
# duration (default 60s); CI runs the 5s short-mode variant.
soak:
	REACH_SOAK=$(SOAK) $(GO) test -race -timeout 600s -count=1 \
		-run TestOverloadSoak -v ./internal/core
