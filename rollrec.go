// Package rollrec is a library for log-based rollback-recovery in
// message-passing systems, reproducing E.N. Elnozahy, "On the Relevance of
// Communication Costs of Rollback-Recovery Protocols" (PODC 1995).
//
// It provides:
//
//   - The Family-Based Logging protocol engine (sender-based volatile
//     message logging with causal determinant piggybacking), parameterized
//     by the failure budget f: f = 1 behaves like Sender-Based Message
//     Logging, f = n like Manetho with a stable-storage pseudo-process.
//   - The paper's new non-blocking recovery algorithm (a recovery leader
//     gathers a consistent depinfo snapshot without blocking live
//     processes), plus the blocking baseline and a Manetho-mode variant
//     used by the paper's evaluation.
//   - A deterministic discrete-event simulator with a parameterized
//     hardware cost model (1995 workstations or a modern cluster).
//   - Deterministic workloads (token ring, random-peer gossip,
//     client–server, the paper's Figure 1 execution), a crash-injection
//     and invariant-checking cluster harness, and the full experiment
//     suite that regenerates the paper's evaluation.
//
// # Quick start
//
//	cfg := rollrec.Config{
//		N:               4,
//		F:               2,
//		Seed:            1,
//		Style:           rollrec.NonBlocking,
//		App:             rollrec.TokenRing(1000, 64, 0),
//		CheckpointEvery: time.Second,
//	}
//	c := rollrec.NewCluster(cfg)
//	c.Crash(2*time.Second, 1)       // inject a failure
//	c.RunUntilDone(time.Second, 2*time.Minute)
//	if errs := c.Check(); len(errs) != 0 { ... } // consistency invariants
//
// See the examples directory for complete programs and DESIGN.md for the
// architecture and the experiment index.
package rollrec

import (
	"context"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/experiments"
	"rollrec/internal/failure"
	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// ProcID identifies a process; application processes are 0..n-1.
type ProcID = ids.ProcID

// StorageProc is the stable-storage pseudo-process of the f = n instance.
const StorageProc = ids.StorageProc

// Style selects the recovery algorithm variant.
type Style = recovery.Style

// Recovery algorithm variants (see the recovery package for semantics).
const (
	// NonBlocking is the paper's new algorithm: live processes are never
	// blocked by a recovery.
	NonBlocking = recovery.NonBlocking
	// Blocking is the baseline: live processes stop delivering application
	// messages for the duration of the gather.
	Blocking = recovery.Blocking
	// Manetho additionally forces live processes to log recovery replies
	// to stable storage synchronously.
	Manetho = recovery.Manetho
)

// Hardware is the runtime cost model (network, storage, CPU, failure
// detection timing).
type Hardware = node.Hardware

// Profile1995 models the paper's testbed: 25 MHz workstations on 155 Mb/s
// ATM with era disks and multi-second failure detection.
func Profile1995() Hardware { return node.Profile1995() }

// ProfileModern models a contemporary cluster.
func ProfileModern() Hardware { return node.ProfileModern() }

// App is a deterministic message-driven application hosted by the
// protocol; Ctx is the capability handed to it.
type (
	App = workload.App
	Ctx = workload.Ctx
	// AppFactory builds the App for one process.
	AppFactory = workload.Factory
)

// TokenRing returns a workload circulating one token for maxHops hops.
func TokenRing(maxHops uint64, payloadPad int, workPerMsgNanos int64) AppFactory {
	return workload.NewTokenRing(maxHops, payloadPad, workPerMsgNanos)
}

// Gossip returns a random-peer workload: seeds chains per process, each of
// ttl+1 deliveries.
func Gossip(seeds, ttl, payloadPad int, workPerMsgNanos int64) AppFactory {
	return workload.NewRandomPeer(seeds, ttl, payloadPad, workPerMsgNanos)
}

// ClientServer returns a workload where process 0 serves k pipelined
// requests from each other process.
func ClientServer(k, payloadPad int, workPerMsgNanos int64) AppFactory {
	return workload.NewClientServer(k, payloadPad, workPerMsgNanos)
}

// Figure1 returns the paper's Figure 1 execution (3 processes; m → m' →
// m” chains, repeated rounds times).
func Figure1(rounds int) AppFactory { return workload.NewFigure1(rounds) }

// Config describes a simulated cluster; see cluster.Config.
type Config = cluster.Config

// Cluster is a simulated cluster with crash injection and invariant
// checking.
type Cluster = cluster.Cluster

// NewCluster builds and boots a simulated cluster.
func NewCluster(cfg Config) *Cluster { return cluster.New(cfg) }

// Crash is one injected failure; Plan a schedule of them.
type (
	Crash = failure.Crash
	Plan  = failure.Plan
)

// ProcMetrics is the per-process statistics accumulator.
type ProcMetrics = metrics.Proc

// RecoveryTrace records the phases of one recovery.
type RecoveryTrace = metrics.RecoveryTrace

// Table is a rendered experiment result.
type Table = experiments.Table

// Experiment entry points: each regenerates one table/figure of the
// paper's evaluation (see DESIGN.md §3 for the index). Every entry point
// takes a context; cancelling it stops the simulation at the next event
// batch and returns the rows completed so far.
var (
	E1  = experiments.E1  // single failure (paper §5, first experiment)
	E2  = experiments.E2  // overlapping failures (paper §5, second experiment)
	D1  = experiments.D1  // scale sweep
	D2  = experiments.D2  // stable-storage latency sweep
	D3  = experiments.D3  // recovery communication counts
	D4  = experiments.D4  // failure-free overhead vs f
	D5  = experiments.D5  // recovery-time breakdown
	D6  = experiments.D6  // intrusion by recovery style
	D7  = experiments.D7  // network latency sweep
	D8  = experiments.D8  // analytical cost model vs simulation
	D9  = experiments.D9  // message logging vs coordinated checkpointing
	D10 = experiments.D10 // orphans: FBL vs optimistic logging
	D11 = experiments.D11 // output-commit latency across styles
	D12 = experiments.D12 // open-loop traffic: offered load x style x crash
)

// AllExperiments runs the full evaluation suite, stopping early when ctx
// is done.
func AllExperiments(ctx context.Context, seed int64) []Table { return experiments.All(ctx, seed) }

// Process is the protocol instance type, exposed for state inspection in
// examples and tests.
type Process = fbl.Process

// DefaultCheckpointEvery is a reasonable checkpoint interval for the 1995
// profile.
const DefaultCheckpointEvery = 4 * time.Second
