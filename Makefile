GO ?= go
SOAK ?= 60s

.PHONY: build test race race-procs repeat vet lint analyze crash stress soak all

all: build vet test

build:
	$(GO) build ./...

# The root package's yardstick smoke test builds and runs ./benchmark
# (up to 120s on a cold build cache), hence the longer package timeout.
test:
	$(GO) test -timeout 240s ./...

race:
	$(GO) test -race -timeout 240s ./...

# race-procs re-runs the lock manager, the rule engine, the storage
# manager, the object layer, the rule language, the assembled system and
# the crash matrix under the race detector at GOMAXPROCS 1, 2 and 4:
# their interleavings (lock hand-off and deadlock detection, parallel
# sibling rules, the short-cut hammer, dispatch plans republished under
# raises, buffer-frame recycling, group commit beside the fuzzy
# checkpoint, the executor and governor beside the checkpointer,
# recovery after a crash at every write) differ with the number of
# running threads.
race-procs:
	$(GO) test -race -cpu 1,2,4 -timeout 240s -count=1 ./internal/txn ./internal/eca ./internal/storage ./internal/oodb ./internal/rules ./internal/core ./internal/fault/...

# repeat runs order-sensitive tests many times over: a nested composite's
# detection must not depend on which composer EOT happens to flush first.
repeat:
	$(GO) test -timeout 240s -count=300 -run 'TestCompositeOfComposite$$' ./internal/eca

vet:
	$(GO) vet ./...

# lint runs the REACH-specific analyzers (reachvet) over the module
# and the semantic rule-language pass (rulec -vet) over every shipped
# rule file. Both exit nonzero on findings.
lint:
	$(GO) run ./cmd/reachvet
	$(GO) run ./cmd/rulec -vet examples/*/rules/*.rules

# analyze runs the whole-ruleset interaction analysis (triggering
# graph, termination, confluence, reachability) over every shipped
# rule file, failing on unsuppressed errors, and confirms the
# justified-suppression fixture stays accepted.
analyze:
	$(GO) run ./cmd/rulec -analyze examples/*/rules/*.rules
	$(GO) run ./cmd/rulec -analyze cmd/rulec/testdata/cycle_suppressed.rules

# crash runs the crash-consistency matrix (every workload — including
# the fuzzy-checkpoint and rotation scripts — crashed at every
# write/fsync boundary, clean and WAL-torn, with second crashes during
# recovery), the checkpoint-site fault-injection sweep, and a short
# fuzz of the WAL record decoder.
crash:
	$(GO) test -timeout 120s ./internal/fault/... -run 'TestCrashMatrix|TestHarnessCatchesLostCommit' -count=1
	$(GO) test -timeout 120s ./internal/storage -run 'TestCheckpointFailureSites|TestCheckpointRepeatedFailure' -count=1
	$(GO) test -timeout 120s ./internal/storage -run FuzzReadRecord -fuzz FuzzReadRecord -fuzztime 10s

# stress hammers the supervised rule executor under the race detector:
# mixed panicking/deadlocking/failing rules, WAL fault injection armed,
# plus the Drain/WaitDetached race and crash-consistency invariants, in
# short mode so the whole target stays CI-sized. The storage leg
# asserts the WAL-growth bound: segment chains stay short under
# sustained traffic with checkpoints. The lock-manager leg repeats the
# lock-head recycling hammer (grant, release, inherit, park, wake,
# deadlock victims and cancellation by another goroutine on one
# stripe) and a child's commit racing its parent's abort.
stress:
	$(GO) test -race -short -timeout 120s -count=1 \
		-run 'TestExecutorStress|TestDrainWaitDetachedRace|TestDetachedRuleFaultInjection|TestDetachedDeadlockRetry' \
		./internal/eca
	$(GO) test -race -timeout 120s -count=1 \
		-run 'TestWALGrowthBounded|TestStoreCheckpointWithActiveTxn|TestBackgroundCheckpointer' \
		./internal/storage
	$(GO) test -race -timeout 120s -count=5 \
		-run 'TestLockHeadRecyclingHammer|TestChildCommitRacingParentAbort' \
		./internal/txn

# soak runs the fault-armed overload soak under the race detector:
# writers hammer a slow detached rule through the governor's full
# degradation ladder while chaos waves break the checkpointer and
# escalate synthetic load, asserting forward progress, bounded memory,
# recovery to healthy, and a clean graceful shutdown. SOAK sets the
# duration (default 60s); CI runs the 5s short-mode variant.
soak:
	REACH_SOAK=$(SOAK) $(GO) test -race -timeout 600s -count=1 \
		-run TestOverloadSoak -v ./internal/core
