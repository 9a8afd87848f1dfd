GO ?= go
FUZZTIME ?= 5s
# Shared flags for every race-enabled scenario gate, so new gates pick
# up the same detector and caching policy by default.
GOTESTFLAGS ?= -race -count=1
GOTEST = $(GO) test $(GOTESTFLAGS)

.PHONY: ci fmt vet boundary build test race race-precopy cow-check budget-check fuzz chaos enum-check field-sweep dedup-check scale-check obs-check standby-check bench-module host-bench cover bench baseline fingerprint fingerprint-wide trace-check examples loc clean

# Full CI gate: static checks, the package-boundary check, a clean
# build, the race-enabled suite (which holds the modeled-baseline
# equality gate, TestModeledBaseline), the pre-copy live-checkpoint
# scenario and the copy-on-write contract under the race detector, the
# allocation-budget repeat gate, short fuzzing of the image-format decoders, trace determinism, the chaos
# fuzzer sweep + corpus replay gate, the exhaustive small-scope fault
# enumeration, the field sweep, the dedup-store layout gate, the coordination-tree scaling
# gate, the observability/availability gate,
# the warm-standby replication gate, the nested benchmark module (which
# `./...` from the root does not reach), the three examples (each exits
# non-zero when its result diverges), and coverage totals.
ci: fmt vet boundary build race race-precopy cow-check budget-check fuzz trace-check chaos enum-check field-sweep dedup-check scale-check obs-check standby-check bench-module examples cover

# gofmt gate: fails listing any file that is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Package-boundary gate: the root package is the facade file and
# nothing else, and it re-exports no tooling — the bench harness
# (internal/experiments, internal/metrics) and the chaos fuzzer are
# imported by cmd/ directly. And a resource's fields are declared once:
# outside internal/imgfmt and internal/ckpt no non-test file drives the
# in-memory codec or names the decoder by hand, and nothing anywhere has
# a Save or Restore method over an imgfmt codec — it declares a Layout
# (imgfmt/visitor.go). And they are read by one grammar: internal/imgfmt
# defines each of its functions once, StreamDecoder's, which reads a
# section or a blob as a window with no frames behind it.
# And a controller has one state: the supervisor, the coordinated
# operations, the standby plane and the network restorer do not regain a
# lifecycle boolean beside it, and each operation type has one function
# that calls onDone (DESIGN.md §13). The restorer issues every TCP
# connect from dial; the one other Connect is a restored UDP socket's.
# And a commit re-reads no history: the supervisor's materializing chain
# read has one caller, recovery, and the commit check names nothing that
# builds an image.
# And the event path makes no garbage: nothing outside tests goes back to
# container/heap (the event queue is sim's typed heap, which removes a
# cancelled timer instead of boxing every push and pop), and the three
# files every simulated event runs through schedule with AfterCall — a
# func bound once plus its argument — never with After, where a func
# literal or a method value is a fresh closure per timer (DESIGN.md §2).
# So does the supervisor's failure detector, which every heartbeat
# interval pings every monitored node: hbTick and its ping and pong
# schedule with AfterCall and the funcs New binds, never with After.
# And a packet in flight comes from its Network's free list: transit is
# the one place in internal/netstack that makes one. A receive queue
# appends a segment's bytes rather than keeping its data slice, which is
# the sender's send buffer, written again once the bytes are acknowledged.
# A datagram's bytes are the other way round: SendTo and SendRaw cut them
# from their Network's append-only slab, never written again, so
# udpraw.go copies no datagram one by one and every queue keeps the
# packet's slice. And an event comes from its World's free list or a slab
# of them: alloc is the one place in internal/sim that makes one.
# And a fault schedule has one step: non-test internal/faultinject
# declares one struct with a json:"action" field — the fixture form is
# what Injector.Arm takes, resolving targets from its Env — and no Bind
# or Spec translating between two step forms.
# And the program is single-threaded by construction: no non-test file
# under internal/ or cmd/ has a go statement. The simulation, every
# capture and every encode run on the one event-loop thread; the worker
# width a checkpoint names is modeled, not a host pool (DESIGN.md §6).
# And charging a system call without making it stays one audited site:
# vos.Context.ChargeSyscalls is called in mpi.(*Comm).pump alone, for a
# repeat receive scan and for ended peers, whose results are known
# (DESIGN.md §2.1).
# And a fixed delay rides a lane, so only its oldest event sits in the
# heap: internal/netstack arms its retransmission, backlog and SYN timers
# and puts packets in flight with Lane.Call, never AfterCall. And a lane
# is for a delay that recurs: only internal/sim and internal/netstack
# make one, since a lane per jittered delay would grow without bound.
# And a reused buffer has an owner, so every allocation count is a pure
# function of the calls made: no non-test file uses a sync.Pool, whose
# hand-backs depend on when the collector last ran, the record
# encoders' spare is taken in newStream and filled in Close alone, and the
# record decoders' decodeSpare is taken in NewStreamDecoder and filled in
# handBack alone (DESIGN.md §5).
# And coordination has one send path: the flat star is the one-level
# tree, so Topology.IsFlat is read only by the two policies that differ
# by topology, the per-level trace spans (coord.(*Plane).EmitLevelSpans)
# and the flush waves (core.(*ckptOp).doneArrived), never by a send
# (DESIGN.md §10).
# And a record is sized by the read that checks it (ckpt.Chain.Size): no
# non-test type in internal/imagestore has a Stat method, and non-test
# internal/supervisor code calls no .Stat( (DESIGN.md §5).
# And copy-on-write is the one dirty signal: a region's backing array is
# its version, so non-test internal/vos keeps no write clock and non-test
# internal/ckpt no per-process watermark map (DESIGN.md §5).
# And a pod is captured once: the agent's step 2 reads its network-state
# figures from the frozen capture's Image.Net, so no non-test code outside
# internal/ckpt calls netckpt.CheckpointStack (DESIGN.md §5).
# And an allocation budget is counted one way: only internal/allocs reads
# runtime.ReadMemStats, so every budget test's window runs at GOMAXPROCS 1
# and reads the smallest of its repeats (DESIGN.md §2). benchmark/ is
# its own module and measures host cost itself.
# And every exported name has a caller outside its own package's tests,
# every unexported struct field is read by non-test code (its fixture,
# testdata/deadfields, proves the rule bites), and every -run or -fuzz
# selector below selects a test (exports_test.go, fields_test.go;
# DESIGN.md §1).
boundary:
	$(GO) test -count=1 -run '^TestExportedNamesHaveCallers$$|^TestStructFieldsAreRead$$|^TestStructFieldRuleBites$$|^TestMakefileTestSelectorsMatch$$' .
	@files="$$($(GO) list -f '{{join .GoFiles " "}}' .)"; \
	if [ "$$files" != "zapc.go" ]; then echo "boundary: root package must hold zapc.go only, has: $$files"; exit 1; fi
	@for p in $$($(GO) list -f '{{join .Imports " "}}' .); do \
		case $$p in zapc/internal/metrics|zapc/internal/chaos|zapc/internal/experiments) \
			echo "boundary: zapc.go must not import $$p"; exit 1;; esac; \
	done
	@bad="$$(grep -rnE --include='*.go' 'imgfmt\.(StreamDecoder|NewDecoder|NewEncoder)\b' . \
		| grep -vE '^\./internal/(imgfmt|ckpt)/|_test\.go:')"; \
	if [ -n "$$bad" ]; then echo "boundary: only internal/imgfmt and internal/ckpt may drive the codec by hand; declare a Layout:"; echo "$$bad"; exit 1; fi
	@dup="$$(grep -hoE '^func (\([^)]*\) )?(uvarint|svarint|header|lengthPrefixed|Peek)\(' $$(ls internal/imgfmt/*.go | grep -v '_test\.go$$') \
		| sed -E 's/.* ([A-Za-z]+)\($$/\1/' | sort | uniq -d)"; \
	if [ -n "$$dup" ]; then echo "boundary: internal/imgfmt defines the field grammar twice; StreamDecoder reads memory too (a window with no frames behind it):"; echo "$$dup"; exit 1; fi
	@bad="$$(grep -rnE --include='*.go' 'func \([^)]*\) (Save|Restore)\([^)]*imgfmt\.' .)"; \
	if [ -n "$$bad" ]; then echo "boundary: a hand-written Save/Restore pair over an imgfmt codec; declare a Layout:"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -nE '^\s+([A-Za-z_]+,\s*)*(done|running|recovering|ckptBusy|aborted|finished|stopSent|contSent|saDone|contRecvd|syncing|applying|promoted|established|restored|adjusted|retryPending)(,\s*[A-Za-z_]+)*\s+bool\b' \
		internal/supervisor/supervisor.go internal/core/core.go internal/standby/standby.go internal/netckpt/restore.go)"; \
	if [ -n "$$bad" ]; then echo "boundary: a lifecycle boolean beside the state; give the state a value instead (DESIGN.md §13):"; echo "$$bad"; exit 1; fi
	@fns="$$(awk '/^func /{fn=$$0} /\.onDone\(/{print fn}' internal/core/core.go | sort -u)"; \
	dup="$$(echo "$$fns" | sed -E 's/^func \([a-z]+ \*?([A-Za-z]+)\).*/\1/' | sort | uniq -d)"; \
	if [ -n "$$dup" ]; then echo "boundary: onDone is called from more than one function of $$dup; finish is the one exit:"; echo "$$fns"; exit 1; fi
	@bad="$$(awk '/^func /{fn=$$0; next} /readChains\(/ && fn !~ /\) tryRestore\(/{print FILENAME ": " fn}' internal/supervisor/supervisor.go)"; \
	if [ -n "$$bad" ]; then echo "boundary: readChains materializes every chain; recovery (tryRestore) is its one caller, the commit check verifies by induction:"; echo "$$bad"; exit 1; fi
	@bad="$$(awk '/^func /{fn=$$0} fn ~ /\) (checkGeneration|checkChain|verifyRecord|scrubRecord)\(/ && /ApplyDelta|ReconstructChain|\.Next\(/{print FILENAME ": " $$0}' internal/supervisor/supervisor.go)"; \
	if [ -n "$$bad" ]; then echo "boundary: the commit check materializes nothing; it verifies (ckpt.Chain.Verify) and re-hashes:"; echo "$$bad"; exit 1; fi
	@bad="$$(awk 'FNR==1{fn=""; arm=""} /^func /{fn=$$0; arm=""} /^[ \t]+case /{arm=$$0} {code=$$0; sub(/\/\/.*/, "", code)} \
		code ~ /\.Connect\(/ && fn !~ /^func \(r \*Restorer\) dial\(/ \
		&& !(fn ~ /^func \(r \*Restorer\) createLocalSockets\(/ && arm ~ /netstack\.UDP/){print FILENAME ": " $$0}' \
		$$(ls internal/netckpt/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: a TCP connect outside Restorer.dial; the start, the redial and the strawman's gate all dial through it (DESIGN.md §13):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -rn --include='*.go' '"container/heap"' . | grep -v '_test\.go:')"; \
	if [ -n "$$bad" ]; then echo "boundary: container/heap outside a test; the event queue is sim.World's typed heap:"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -nE '\.After\(' internal/vos/node.go internal/netstack/netstack.go internal/netstack/tcp.go)"; \
	if [ -n "$$bad" ]; then echo "boundary: After( on the per-event path allocates a closure per timer; schedule with AfterCall and a func bound once:"; echo "$$bad"; exit 1; fi
	@bad="$$(awk '/^func /{fn=$$0} /\.After\(/ && fn ~ /\) (hbTick|hbPing|hbPong)\(/{print FILENAME ": " $$0}' internal/supervisor/supervisor.go)"; \
	if [ -n "$$bad" ]; then echo "boundary: After( in the failure detector allocates a closure per monitored node per tick; schedule with AfterCall and the funcs New binds:"; echo "$$bad"; exit 1; fi
	@bad="$$(awk '/^func /{fn=$$0} /&packet\{|new\(packet\)/ && fn !~ /\) transit\(/{print FILENAME ": " $$0}' internal/netstack/*.go)"; \
	if [ -n "$$bad" ]; then echo "boundary: a packet made outside the free list; send a packet value, transit takes the pointer from the free list (DESIGN.md §2.1):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -nF 'append([]byte(nil)' internal/netstack/udpraw.go)"; \
	if [ -n "$$bad" ]; then echo "boundary: a datagram copied one by one; SendTo and SendRaw cut it from the Network's slab (keepDatagram), and a queue keeps that slice (DESIGN.md §2.1):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -nE 'new\(event\)|&event\{' $$(ls internal/sim/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: an event made one by one; World.alloc takes it from the free list, or from a slab of eventSlab when the list is empty (DESIGN.md §2.1):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -rnE --include='*.go' 'map\[(netstack\.)?Opt\]' internal/netstack internal/netckpt)"; \
	if [ -n "$$bad" ]; then echo "boundary: a map keyed by socket option; an option set is a netstack.OptSet, indexed by option (DESIGN.md §2.1):"; echo "$$bad"; exit 1; fi
	@bad="$$(awk '/^func /{fn=$$0} /append\(\[\]byte\(nil\)/ && fn ~ /^func \(s \*Socket\) Send\(/{print FILENAME ": " $$0}' internal/netstack/*.go)"; \
	if [ -n "$$bad" ]; then echo "boundary: a copy per chunk in Socket.Send; segment bytes are cut from the socket's send buffer (Socket.cut, DESIGN.md §2.1):"; echo "$$bad"; exit 1; fi
	@bad="$$(awk '{code=$$0; sub(/\/\/.*/, "", code)} code ~ /(recvQ|backlog[A-Za-z]*|oobQ|altQ) *=[^=](.*[^A-Za-z_])?data([^A-Za-z_.]|$$)/ && code !~ /data\.\.\./{print FILENAME ":" FNR ": " $$0}' \
		$$(ls internal/netstack/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: a receive queue keeps a packet's data slice; append its bytes, the sender rewinds its send buffer once they are acknowledged (DESIGN.md §2.1):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -nE ':= [^&]*Costs$$' $$(ls internal/vos/*.go internal/netstack/*.go internal/mpi/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: a by-value sim.Costs copy on the per-event path; read the field in place or take a pointer:"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -nE 'map\[int\]\*netstack\.Socket' $$(ls internal/vos/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: the descriptor table is a slice indexed by fd, nil for a closed slot (DESIGN.md §2):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -nE 'memClock|MemClock|DirtyRegions' $$(ls internal/vos/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: a write clock in internal/vos; a region's backing array is its version, and copy-on-write the one dirty signal (DESIGN.md §5, Identity is the dirty signal):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -nE 'map\[vos\.PID\]uint64' $$(ls internal/ckpt/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: a watermark map in internal/ckpt; a delta carries the regions whose backing array is not the last committed image's (DESIGN.md §5, Identity is the dirty signal):"; echo "$$bad"; exit 1; fi
	@srcs="$$(ls internal/faultinject/*.go | grep -v '_test\.go$$')"; \
	if [ "$$(cat $$srcs | grep -c 'json:"action')" -gt 1 ]; then echo "boundary: internal/faultinject declares a second fault step; the fixture form is the one Arm takes (DESIGN.md §8):"; grep -n 'json:"action' $$srcs; exit 1; fi; \
	bad="$$(grep -nE '^func (\([^)]*\) )?(Bind|Spec)\(' $$srcs)"; \
	if [ -n "$$bad" ]; then echo "boundary: a Bind/Spec translation between two step forms; Arm resolves a step's targets from the injector's Env:"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -rnE --include='*.go' '^\s*go\s+[A-Za-z_(]' internal cmd | grep -v '_test\.go:')"; \
	if [ -n "$$bad" ]; then echo "boundary: a go statement; the program runs on the one simulation thread and a checkpoint's worker width is modeled (DESIGN.md §6):"; echo "$$bad"; exit 1; fi
	@bad="$$(awk '/^func /{fn=$$0} /ChargeSyscalls\(/ && !/^[ \t]*\/\// && !/^func \(c \*Context\) ChargeSyscalls\(/ \
		&& !(FILENAME ~ /internal\/mpi\/mpi\.go$$/ && fn ~ /^func \(c \*Comm\) pump\(/){print FILENAME ": " $$0}' \
		$$(grep -rl --include='*.go' 'ChargeSyscalls(' . | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: ChargeSyscalls charges calls it does not make; a scan whose result is known is charged in mpi.(*Comm).pump alone (DESIGN.md §2.1):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -nE 'AfterCall\(.*\b(rtoInterval|backlogDelay|synRetryEvery)\b' $$(ls internal/netstack/*.go | grep -v '_test\.go$$'); \
		awk '/^func /{fn=$$0} /AfterCall\(/ && fn ~ /\) transit\(/{print FILENAME ": " $$0}' internal/netstack/*.go)"; \
	if [ -n "$$bad" ]; then echo "boundary: a fixed-delay timer or a packet in flight scheduled with AfterCall; it rides its Network's lane (Lane.Call), so only the lane's head is in the heap (DESIGN.md §2.1):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -rnE --include='*.go' 'NewLane\(' . | grep -vE '^\./internal/(sim|netstack)/|_test\.go:')"; \
	if [ -n "$$bad" ]; then echo "boundary: a lane made outside internal/sim and internal/netstack; a lane is for a delay that recurs, and one per jittered delay grows without bound (DESIGN.md §2.1):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -rnE --include='*.go' 'sync\.Pool' . | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')"; \
	if [ -n "$$bad" ]; then echo "boundary: a sync.Pool hands back what the collector left, so allocation counts would move with GC timing; give the buffer an owner (DESIGN.md §5):"; echo "$$bad"; exit 1; fi
	@bad="$$(awk 'FNR==1{fn=""} /^func /{fn=$$0} {code=$$0; sub(/\/\/.*/, "", code)} \
		code ~ /(^|[^A-Za-z0-9_.])spare([^A-Za-z0-9_]|$$)/ && code !~ /^var spare / \
		&& fn !~ /^func newStream\(|^func \(s \*StreamEncoder\) Close\(/{print FILENAME ": " $$0}' \
		$$(ls internal/imgfmt/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: the record encoders' spare is taken in newStream and filled in Close, nowhere else; an in-memory encoder's staging buffer is the blob it returns (DESIGN.md §5):"; echo "$$bad"; exit 1; fi
	@bad="$$(awk 'FNR==1{fn=""} /^func /{fn=$$0} {code=$$0; sub(/\/\/.*/, "", code)} \
		code ~ /(^|[^A-Za-z0-9_.])decodeSpare([^A-Za-z0-9_]|$$)/ && code !~ /^var decodeSpare / \
		&& fn !~ /^func NewStreamDecoder\(|^func \(d \*StreamDecoder\) handBack\(/{print FILENAME ": " $$0}' \
		$$(ls internal/imgfmt/*.go | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: the record decoders' spare is taken in NewStreamDecoder and filled in handBack, nowhere else; a walk that did not reach its terminator hands back nothing (DESIGN.md §5):"; echo "$$bad"; exit 1; fi
	@bad="$$(awk 'FNR==1{fn=""} /^func /{fn=$$0} {code=$$0; sub(/\/\/.*/, "", code)} \
		code ~ /IsFlat\(/ && code !~ /^func \(t Topology\) IsFlat\(/ \
		&& !(FILENAME ~ /internal\/coord\/coord\.go$$/ && fn ~ /^func \(p \*Plane\) EmitLevelSpans\(/) \
		&& !(FILENAME ~ /internal\/core\/core\.go$$/ && fn ~ /^func \(op \*ckptOp\) doneArrived\(/){print FILENAME ": " $$0}' \
		$$(grep -rl --include='*.go' 'IsFlat(' . | grep -v '_test\.go$$'))"; \
	if [ -n "$$bad" ]; then echo "boundary: IsFlat read outside the trace-span and flush-wave policies; the flat star is the one-level tree and sends as one (DESIGN.md §10):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -HnE '^func \([^)]*\) Stat\(' $$(ls internal/imagestore/*.go | grep -v '_test\.go$$'); \
		grep -HnE '\.Stat\(' $$(ls internal/supervisor/*.go | grep -v '_test\.go$$') | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')"; \
	if [ -n "$$bad" ]; then echo "boundary: a record's size comes from the read that checks it (ckpt.Chain.Size), not from store metadata (DESIGN.md §5):"; echo "$$bad"; exit 1; fi
	@fns="$$(awk 'FNR==1{fn=""} /^func /{fn=$$0} {code=$$0; sub(/\/\/.*/, "", code)} \
		code ~ /(^|[^A-Za-z0-9_])Placement\{/{print FILENAME ": " fn}' \
		$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*') | sort -u)"; \
	if [ "$$(echo "$$fns" | grep -c .)" -gt 1 ]; then echo "boundary: core.Placement values built in more than one function; every restart places its images with core.Place (DESIGN.md §5):"; echo "$$fns"; exit 1; fi
	@bad="$$(grep -rnE --include='*.go' 'CheckpointStack\(' . | grep -vE '^\./internal/ckpt/|_test\.go:|func CheckpointStack\(|^[^:]+:[0-9]+:[[:space:]]*//')"; \
	if [ -n "$$bad" ]; then echo "boundary: the network state captured outside internal/ckpt; step 2 reads the frozen capture's Image.Net, so a pod is captured once (DESIGN.md §5):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -rn --include='*.go' 'runtime\.ReadMemStats' . | grep -vE '^\./(internal/allocs|benchmark)/')"; \
	if [ -n "$$bad" ]; then echo "boundary: an allocation window read by hand; count through allocs.Measure, which reads at GOMAXPROCS 1 and takes the smallest of fresh windows (DESIGN.md §2):"; echo "$$bad"; exit 1; fi
	@dup="$$(grep -noE '\.(Start|SpanBetween)\([^,()]*, *"[^"]+"' $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*') \
		| sed -E 's/^([^:]+:[0-9]+):.*"([^"]+)"$$/\2 \1/' \
		| awk '{n[$$1]++; at[$$1] = at[$$1] " " $$2} END {for (k in n) if (n[k] > 1) print k ":" at[k]}' | sort)"; \
	if [ -n "$$dup" ]; then echo "boundary: one span name opened at two call sites; the analyzer and PhaseSummary key on the name, so each phase gets its own (DESIGN.md §6):"; echo "$$dup"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Explicit pre-copy scenario gate: suspend-window win, chain restore
# equivalence, restart from a flushed pre-copy directory and from a
# default-policy supervisor generation, determinism and budget
# termination, all under -race.
race-precopy:
	$(GOTEST) -run '^TestPrecopy' .

# Copy-on-write gate: an image aliases the pod's bytes and a restored pod
# the image's, so these hold the one thing that keeps them apart — vos
# copies a shared region before its first write. The vos contract test,
# the model check against the deep-copying reference capture (frozen and
# live captures marking the regions of every process shared), the
# end-to-end pin on churn and bt, and the allocation budgets that fail if
# a copy of the regions comes back on either path, or a snapshot to walk
# a pod's stack twice (TestSnapshotObjectBudget), or if the encoder's
# allocations come to grow with the sections or frames it writes, or a
# second record of one shape to allocate any buffer, or the spare that
# carries those buffers from one record encoder to the next to hand one
# out while its last encoder still writes through it, all under -race —
# and the same three for the decoder spare that carries a record
# decoder's window and stored scratch to the next, whose concurrent
# test runs ten times.
cow-check:
	$(GOTEST) -run '^TestCOW' . ./internal/ckpt ./internal/vos
	$(GOTEST) -run '^TestCheckpointAllocationBudget$$|^TestSnapshotObjectBudget$$|^TestEncoderAllocationsIndependentOfCount$$|^TestSecondRecordAllocatesNoBuffer$$|^TestSpareLeavesBlobsAndRecordsAlone$$|^TestSpareSurvivesMisuse$$|^TestSpareUnderConcurrentEncoders$$|^TestRestartAllocationBudget$$|^TestSecondDecodeAllocatesNoBuffer$$|^TestDecodeSpareLeavesKeptValuesAlone$$|^TestDecodeSpareSurvivesMisuse$$' . ./internal/imgfmt
	$(GO) test -race -count=10 -run '^TestDecodeSpareUnderConcurrentDecoders$$' ./internal/imgfmt

# Allocation-budget repeat gate: internal/imagestore's test binary, built
# once and run 300 times (about 9 s). A whole-package run of it is where a
# hand-read allocation window counted the runtime's own allocations (a
# thread start, the scavenger's timer heap): TestRemoteWriterCopiesEachWriteOnce
# read 25 to 30 objects. One failed run fails the gate, and so does a
# second object count among the 300 runs.
budget-check:
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	$(GO) test -c -o $$dir/imagestore.test ./internal/imagestore || exit 1; \
	cd internal/imagestore && for i in $$(seq 300); do \
		out="$$($$dir/imagestore.test -test.count=1 -test.v 2>&1)" || { echo "$$out"; echo "budget-check: run $$i of 300 failed"; exit 1; }; \
		echo "$$out" | grep -oE '[0-9]+ writes allocated [0-9]+ objects' >> $$dir/counts; \
	done; \
	counts="$$(sort $$dir/counts | uniq -c)"; \
	if [ "$$(wc -l < $$dir/counts)" -ne 300 ] || [ "$$(echo "$$counts" | wc -l)" -ne 1 ]; then echo "budget-check: TestRemoteWriterCopiesEachWriteOnce did not read one object count in every run:"; echo "$$counts"; exit 1; fi; \
	echo "budget-check: 300 runs of internal/imagestore's tests passed; TestRemoteWriterCopiesEachWriteOnce read, in every one:$$(echo "$$counts" | sed 's/^ *[0-9]*//')"

# Short, deterministic-budget fuzz passes over every image-format entry
# point (TLV decoder, round-trip property, the pod-image decoder, the
# delta decoder and, with the same bytes as the second record of a valid
# chain, ckpt.Chain — the one chain reader every restore path uses — and
# its verify-only walk against that reader; the
# layouts inside a record: the Net section's and every registered
# program's), the LZ4 kernels against their byte-wise reference
# implementations and the stream decoder against the spec oracle (the
# whole record split into frames in one buffer, its fields walked by a
# grammar of the test's own), and the fault-schedule JSON (a named
# schedule error, or a schedule whose encoding is a fixed point), and the
# dedup manifest reader (ErrDedupCorrupt, or a manifest the writer could
# have produced, re-encoding to its own bytes), and the remote image
# server's stream parser (an error, or a committed image whose bytes are
# the stream's payload), and the chaos fixture envelope (an error, or a
# fixture whose encoding decodes back to the same bytes).
# Raise FUZZTIME for a real fuzzing session.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/imgfmt
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/imgfmt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeV3$$' -fuzztime $(FUZZTIME) ./internal/imgfmt
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTripV3$$' -fuzztime $(FUZZTIME) ./internal/imgfmt
	$(GO) test -run '^$$' -fuzz '^FuzzBlockCompressMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/imgfmt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/imgfmt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeImage$$' -fuzztime $(FUZZTIME) ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDelta$$' -fuzztime $(FUZZTIME) ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyMatchesDecode$$' -fuzztime $(FUZZTIME) ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNetImage$$' -fuzztime $(FUZZTIME) ./internal/netckpt
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreProgram$$' -fuzztime $(FUZZTIME) ./internal/apps
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadManifest$$' -fuzztime $(FUZZTIME) ./internal/imagestore
	$(GO) test -run '^$$' -fuzz '^FuzzServerFeed$$' -fuzztime $(FUZZTIME) ./internal/imagestore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSchedule$$' -fuzztime $(FUZZTIME) ./internal/faultinject
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFixture$$' -fuzztime $(FUZZTIME) ./internal/chaos

# Trace determinism gate: the traced crash-and-failover scenario run
# twice with the same seed must export byte-identical JSONL event logs.
trace-check:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/zapc-bench -fig trace -events $$dir/a.jsonl -trace $$dir/a.json >/dev/null && \
	$(GO) run ./cmd/zapc-bench -fig trace -events $$dir/b.jsonl -trace $$dir/b.json >/dev/null && \
	cmp $$dir/a.jsonl $$dir/b.jsonl && echo "trace-check: deterministic ($$(wc -l < $$dir/a.jsonl) events)"; \
	st=$$?; rm -rf $$dir; exit $$st

# Chaos gate: the seeded fault-schedule fuzzer under -race (schedule
# determinism, composition coverage, and the recovery invariant over a
# fixed seed range), a bounded driver sweep over the canonical corpus
# seed range, and the regression replay — any fixture under
# testdata/chaos that stops reproducing its recorded named error fails
# the build.
chaos:
	$(GOTEST) ./internal/chaos
	$(GOTEST) -run '^TestChaosCorpusReplays$$' .
	$(GO) run ./cmd/zapc-chaos -from 1 -to 24
	$(GO) run ./cmd/zapc-chaos -from 10000 -to 10008
	$(GO) run ./cmd/zapc-chaos -from 20000 -to 20008

# Exhaustive small-scope fault enumeration: every single fault that can be
# placed at a protocol phase of a 2- or 3-pod job (also in `go test
# ./...`), then every pair on two distinct phases, each run checked
# against the chaos invariant; prints the supervisor-state x action table.
enum-check:
	ZAPC_ENUM=1 $(GO) test -count=1 -timeout 30m -v -run '^TestEnumerate' ./internal/chaos

# Field sweep: every field a record carries is read by some restore.
# Canonical checkpoints of the four workloads (five capture points each)
# and one incremental delta have each field changed in turn, size kept,
# and are restarted and run to completion; a field whose change moves
# none of the result, the finish instant and the event count is dead,
# and fails the sweep unless its exemption names the line that reads it
# (internal/ckpt/fieldsweep_test.go, DESIGN.md §5). About a minute.
field-sweep:
	ZAPC_FIELDS=1 $(GO) test -count=1 -timeout 30m -run '^TestFieldSweep$$' ./internal/ckpt

# Dedup-store layout gate: two generations with overlapping content,
# written twice into fresh stores, must produce byte-identical physical
# layouts (content-addressed blocks + deterministic manifests), and the
# refcount/pin lifecycle must never strand or lose a block. Runs the
# deterministic-layout, shared-blocks, GC, and sweep properties under
# -race, plus the supervisor's mid-commit crash scenario.
dedup-check:
	$(GOTEST) -run '^TestDedup' ./internal/imagestore
	$(GOTEST) -run '^TestDedupGCNeverStrandsReferencedBlocks$$' ./internal/supervisor
	$(GOTEST) -run '^TestV3ChurnStoredBytesReduction$$' .

# Coordination-tree scaling gate: the topology unit suite, the
# cross-topology bit-identity property, and the full 1024-pod scaling
# point (flat star vs fan-out-16 tree), all under -race. The 256-pod
# barrier and root-message figures are held by the modeled baseline.
scale-check:
	$(GOTEST) ./internal/coord
	$(GOTEST) -run '^TestCoordCrossTopologyBitIdentity$$|^TestCoordScalingSublinear$$' .
	ZAPC_SCALE=1 $(GOTEST) -timeout 30m -run '^TestCoordScaling1024$$' .

# Observability gate: the trace-analyzer and metric-naming unit suites
# under -race, the failover RTO/RPO scenario gates (determinism, record
# stamping, naming lint over the canonical scenario), byte-determinism
# of the critical-path render across two same-seed runs, and a strict
# dangling-span check on the canonical trace. The RTO/RPO figures
# themselves are held by the modeled baseline, and the nil tracer's cost
# by an allocation count: nothing here reads a clock.
obs-check:
	$(GOTEST) -run '^TestNilTracer|^TestCriticalPath|^TestContainment|^TestStraggler|^TestAnalyzer|^TestFailoverReport|^TestPhaseStats|^TestCheckMetricName|^TestRegistryCheckNames|^TestWriteProm' ./internal/trace
	$(GOTEST) -run '^TestFailoverRTO|^TestMetricNamesConform$$' .
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/zapc-bench -fig trace -events $$dir/a.jsonl -trace $$dir/a.json >/dev/null && \
	$(GO) run ./cmd/zapc-bench -fig trace -events $$dir/b.jsonl -trace $$dir/b.json >/dev/null && \
	$(GO) run ./cmd/zapc-inspect -trace -strict $$dir/a.jsonl >/dev/null && \
	$(GO) run ./cmd/zapc-inspect -critpath -rto $$dir/a.jsonl > $$dir/a.txt && \
	$(GO) run ./cmd/zapc-inspect -critpath -rto $$dir/b.jsonl > $$dir/b.txt && \
	sed "s,$$dir/a,TRACE," $$dir/a.txt > $$dir/a.norm && \
	sed "s,$$dir/b,TRACE," $$dir/b.txt > $$dir/b.norm && \
	cmp $$dir/a.norm $$dir/b.norm && echo "obs-check: critical-path render deterministic ($$(wc -l < $$dir/a.norm) lines)"; \
	st=$$?; rm -rf $$dir; exit $$st

# Warm-standby replication gate: the plane's unit suite (shipping,
# CRC-verified apply, watermark resume, promotion handover), the
# supervisor's ack-pinned GC scenario, and the end-to-end standby
# scenarios — promoted-vs-store speedup floor, cross-path result
# equivalence, shadow byte-identity, trace determinism, and the
# standby_* metric lint — all under -race. The standby RTO and speedup
# figures are held by the modeled baseline; the 10x floor is
# TestStandbyRTOSpeedup's.
standby-check:
	$(GOTEST) ./internal/standby
	$(GOTEST) -run '^TestGCPinsUnackedGenerations$$' ./internal/supervisor
	$(GOTEST) -timeout 20m -run '^TestStandby' .

# The host-cost benchmark is its own module (benchmark/go.mod) so nothing
# depends on it; it compiles against internal/ckpt and internal/imgfmt,
# so a change to their surface must still vet and pass its toy-size suite.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# One untraced run of one workload, as the driver invokes it: the
# write path unless W names another (W=restart-bt16 is the read path).
W ?= snap-bt16
host-bench:
	bash benchmark/run.sh --workload $(W) --trace 0

# Coverage profile plus per-package totals.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Benchmarks across every package, then the checkpoint-pipeline run
# (tables and the modeled record's summary, nothing written) and the
# traced pipeline run with its phase/metric summary.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/zapc-bench -fig ckpt
	$(GO) run ./cmd/zapc-bench -fig trace

# Regenerate the committed modeled record that TestModeledBaseline
# compares against for equality. Run it only for a change that moves a
# modeled figure on purpose, and say in the PR which model change moved
# which field (EXPERIMENTS.md, "Modeled baseline").
baseline:
	$(GO) run ./cmd/zapc-bench -fig ckpt -out testdata/modeled_baseline.json

# Regenerate the committed simulation fingerprint that
# TestSimulationFingerprint compares against: the canonical trace log,
# the chaos verdicts of the corpus seed bands and each charge-pinned
# job's event count. Same rule as `make baseline`: only a change that
# moves the simulation on purpose runs it, and says which component
# moved and why.
fingerprint:
	ZAPC_FINGERPRINT_WRITE=1 $(GO) test -count=1 -run '^TestSimulationFingerprint$$' .

# The chaos verdicts of 802 seeds (1-200, 10000-10200, 20000-20400)
# against testdata/sim_fingerprint_wide.json; about 20 s, so outside
# tier-1 and `make ci`. `ZAPC_FINGERPRINT_WRITE=1 make fingerprint-wide`
# regenerates the file under the same rule.
fingerprint-wide:
	ZAPC_FINGERPRINT_WIDE=1 $(GO) test -count=1 -timeout 30m -run '^TestSimulationFingerprintWide$$' .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/migrate
	$(GO) run ./examples/faultrecovery

# The size figure simplicity PRs quote: non-test Go lines outside the
# nested benchmark module and testdata/ (a check's fixture package, which
# the go tool does not build).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs wc -l | tail -1

clean:
	$(GO) clean ./...
	rm -f coverage.out
