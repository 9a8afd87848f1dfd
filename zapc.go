// Package zapc is a Go reproduction of ZapC — "Transparent
// Checkpoint-Restart of Distributed Applications on Commodity Clusters"
// (Laadan, Phung, Nieh; IEEE CLUSTER 2005) — built on a deterministic
// virtual cluster: a discrete-event simulated network stack, virtual
// operating system, and pod virtualization layer, with the paper's
// coordinated checkpoint-restart and transport-protocol-independent
// network-state mechanisms implemented faithfully on top.
//
// This file is the whole package, and the package is the facade for
// code outside this module, which cannot import internal/: the virtual
// testbed (Cluster), application deployment (JobSpec/Job — the paper's
// four workloads are built in), the coordinated operations, and what a
// caller of those needs to name — supervision, fault scripting, warm
// standby, image stores, tracing:
//
//	c := zapc.New(zapc.Config{Nodes: 4, Seed: 1})
//	job, _ := c.Launch(zapc.JobSpec{App: "cpi", Endpoints: 4})
//	c.Drive(func() bool { return job.Progress() > 0.5 }, zapc.Minute)
//	res, _ := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot})
//	// ... later, possibly on other nodes:
//	c.Restart(job, res.Images, targets) // or the images c.LoadImages reads back
//
// A name belongs here only if examples/, cmd/zapc (both written against
// the facade alone) or a signature reachable from Cluster, Job,
// Supervisor, StandbyPlane or Tracer needs it. The repository's own
// tooling does not go through the facade: cmd/zapc-bench,
// cmd/zapc-chaos and cmd/zapc-inspect import internal/experiments (the
// figure harness and the modeled baseline), internal/chaos and
// internal/trace (the span-DAG analyzer) directly — `make ci` checks
// the boundary.
//
// The same rule holds in every package of the module: an exported func,
// method, type, var or const has a reference outside its declaration
// and its own package's tests — from non-test code anywhere (cmd/,
// examples/ and benchmark/ included) or from another package's tests.
// TestExportedNamesHaveCallers (exports_test.go, run by `make boundary`)
// type-checks the repository and names each one that has none; its
// exemptions are interface methods, typed iota blocks, this file's type
// aliases (the reachability clause above governs them) and the
// internal/gm prototype.
//
// Everything is deterministic for a fixed seed: a run that is
// checkpointed, migrated, and resumed produces results bit-identical to
// an uninterrupted run — the property the test suite verifies for every
// workload.
package zapc

import (
	"zapc/internal/apps"
	"zapc/internal/ckpt"
	"zapc/internal/cluster"
	"zapc/internal/coord"
	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/imagestore"
	"zapc/internal/sim"
	"zapc/internal/standby"
	"zapc/internal/supervisor"
	"zapc/internal/trace"
)

// Core types re-exported from the implementation. The aliases give
// external users a single import path while the implementation stays in
// internal packages.
type (
	// Config sizes the virtual cluster.
	Config = cluster.Config
	// Cluster is the virtual testbed.
	Cluster = cluster.Cluster
	// JobSpec describes a distributed application deployment.
	JobSpec = cluster.JobSpec
	// Job is a deployed application.
	Job = cluster.Job
	// CheckpointOptions tunes a coordinated checkpoint.
	CheckpointOptions = core.Options
	// CoordConfig selects the coordination-tree topology of a cluster's
	// coordinated operations. Config.Fanout is the one way to set it
	// (the cluster hands it to Manager.SetCoord); zero is the flat
	// star, the one-level tree.
	CoordConfig = coord.Config
	// CoordStats is the per-link control-plane accounting of one
	// coordinated operation (message, byte, and root-message counts).
	CoordStats = coord.Stats
	// PrecopyOptions selects iterative pre-copy live checkpointing via
	// CheckpointOptions.Precopy: the pod keeps running through the bulk
	// of the serialization and is quiesced only for the residual dirty
	// set. It stops once a round leaves at most 64 KiB dirty, or after
	// MaxRounds rounds (zero picks 8).
	PrecopyOptions = core.PrecopyOptions
	// CheckpointResult carries images and the timing breakdown.
	CheckpointResult = core.CheckpointResult
	// RestartResult reports a coordinated restart.
	RestartResult = core.RestartResult
	// MigrateResult reports a direct migration.
	MigrateResult = core.MigrateResult
	// Duration is simulated time in nanoseconds.
	Duration = sim.Duration
	// Time is a simulated timestamp.
	Time = sim.Time
	// Costs is the calibrated hardware cost model.
	Costs = sim.Costs
)

// Self-healing supervision and fault injection (see internal/supervisor
// and internal/faultinject). A job is placed under supervision with
// c.Supervise(job, policy); faults are scripted with an Injector:
//
//	sup, _ := c.Supervise(job, zapc.SupervisorPolicy{CheckpointEvery: 2 * zapc.Second})
//	inj := c.NewFaultInjector()
//	inj.SetProgressProbe(job.Progress, 0)
//	_ = inj.Arm([]zapc.FaultStep{{
//		Name: "kill", Progress: 0.5, Action: zapc.FaultCrashNode, Node: 1, // c.Nodes[1]
//	}})
//	c.Drive(job.Finished, 10*zapc.Minute) // recovery happens underneath
type (
	// SupervisorPolicy tunes the self-healing loop (heartbeat cadence,
	// checkpoint period, generation retention); its timeouts and
	// retry/backoff are the supervisor's constants.
	SupervisorPolicy = supervisor.Policy
	// Supervisor is the self-healing control loop for one job.
	Supervisor = supervisor.Supervisor
	// SupervisorEvent is one entry of the supervisor's activity log.
	SupervisorEvent = supervisor.Event
	// SupervisorStats counts supervisor activity.
	SupervisorStats = supervisor.Stats
	// FaultInjector schedules deterministic scripted faults.
	FaultInjector = faultinject.Injector
	// FaultStep is one entry of a declarative fault schedule; its Node
	// is an index into the cluster's nodes.
	FaultStep = faultinject.Step
	// FaultRecord logs one fired fault.
	FaultRecord = faultinject.Record
)

// Warm-standby continuous replication (see internal/standby). A spare
// node attached with c.AttachStandby(sup, cfg) trails the supervisor's
// checkpoint stream by at most one generation; on failover the
// supervisor promotes its pre-built shadow state in place instead of
// reading the image chain back from the store:
//
//	sup, _ := c.Supervise(job, zapc.SupervisorPolicy{CheckpointEvery: 2 * zapc.Second})
//	plane, _ := c.AttachStandby(sup, zapc.StandbyConfig{})
//	c.Drive(job.Finished, 10*zapc.Minute) // promotion happens underneath
//	_ = plane.Stats().GensApplied
type (
	// StandbyConfig is AttachStandby's argument and has no fields: the
	// standby node has the first node's CPU count, and the replication
	// port and stall timeout are constants.
	StandbyConfig = cluster.StandbyConfig
	// StandbyPlane is the replication plane on the standby node: the
	// record receiver, the shadow state, and the promotion handover.
	StandbyPlane = standby.Plane
	// StandbyStats counts replication-plane activity.
	StandbyStats = standby.Stats
)

// Parallel + incremental checkpoint pipeline (see internal/ckpt). The
// modeled serialization width is selected per checkpoint with
// CheckpointOptions.Workers (≤ 0 = sequential; the host runs one thread
// whatever the width);
// incremental base+delta capture is enabled by setting
// SupervisorPolicy.Incremental, which hands one IncrSet to the
// supervisor's successive checkpoints (CheckpointOptions.Incr):
//
//	pol := zapc.SupervisorPolicy{CheckpointEvery: 2 * zapc.Second, Incremental: true,
//		FullEvery: 4} // full base every 4th generation
//	sup, _ := c.Supervise(job, pol)
type (
	// IncrSet tracks base+delta checkpoint chains for a set of pods.
	IncrSet = ckpt.IncrSet
	// DeltaImage is one incremental checkpoint record.
	DeltaImage = ckpt.DeltaImage
)

// Streaming image pipeline (see internal/imagestore). Checkpoint records
// stream chunk by chunk into an ImageStore — the shared filesystem by
// default, or a netstack-backed remote store that ships each record
// straight to a peer node for the paper's direct checkpoint-to-network
// migration. The manager's store is swapped with c.Mgr.SetStore;
// records flush when CheckpointOptions.FlushTo names a prefix.
type (
	// ImageStore is a named destination checkpoint records stream into.
	ImageStore = imagestore.Store
	// DedupImageStore stores image content once per unique block and
	// garbage-collects blocks by reference count; enable it on a cluster
	// with c.EnableDedupStore().
	DedupImageStore = imagestore.DedupStore
	// DedupUsage is a dedup store's physical-footprint accounting.
	DedupUsage = imagestore.DedupUsage
)

// Pipeline observability (see internal/trace). c.EnableTracing() turns
// on span tracing and metrics for the whole checkpoint/restart path —
// coordinated checkpoints, per-worker serialization lanes, store
// streams, network-state restore, supervision, and injected faults all
// appear on one virtual-clock timeline. Off by default; an untraced
// cluster pays only nil checks.
//
//	tr, reg := c.EnableTracing()
//	// ... run checkpoints, failovers, restarts ...
//	tr.WriteJSONL(f)                     // line-per-event log
//	tr.WriteChromeTrace(g)               // open in ui.perfetto.dev
//	fmt.Println(reg.Summary())
//
// Every timestamp comes from the simulated clock, so two runs with the
// same seed export byte-identical traces.
type (
	// Tracer records spans and instants against the virtual clock.
	Tracer = trace.Tracer
	// TraceSpan is one open span (nil-safe: methods on nil no-op).
	TraceSpan = trace.Span
	// TraceEvent is one emitted begin/end/instant event.
	TraceEvent = trace.Event
	// TraceRegistry holds counters, gauges, and histograms.
	TraceRegistry = trace.Registry
	// TraceMetricPoint is one metric in a registry snapshot.
	TraceMetricPoint = trace.MetricPoint
)

// FaultCrashNode is the fault kind that fails a node, as a machine
// crash would.
const FaultCrashNode = faultinject.ActCrashNode

// Snapshot is the checkpoint mode that checkpoints and resumes in place.
const Snapshot = core.Snapshot

// Convenient simulated-time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = 60 * sim.Second
)

// New creates a virtual cluster.
func New(cfg Config) *Cluster { return cluster.New(cfg) }

// DefaultCosts returns the calibrated 2005-era hardware model
// (BladeCenter-class nodes, GbE, FC SAN).
func DefaultCosts() Costs { return sim.DefaultCosts() }

// Apps lists the built-in workloads from the paper's evaluation: cpi,
// bt, bratu (PETSc SFI), povray.
func Apps() []string { return apps.Names() }
