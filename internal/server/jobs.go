package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/sim"
	"wavescalar/internal/workload"
)

// Admission failures, mapped to HTTP statuses by the handlers.
var (
	// errQueueFull means the bounded admission queue rejected the job —
	// the backpressure signal behind 429 + Retry-After.
	errQueueFull = errors.New("server: admission queue full")
	// errShuttingDown means the server has stopped admitting work.
	errShuttingDown = errors.New("server: shutting down")
)

// Job states, as reported by GET /v1/jobs/{id}.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// cellSpec is one fully resolved cell: a validated simulator
// configuration, workload, scale and thread counts plus the
// content-addressed key they hash to, so the worker does no parsing.
type cellSpec struct {
	key     string
	cfg     sim.Config
	w       workload.Workload
	scale   workload.Scale
	threads []int
}

// sweepSpec is the resolved work of one POST /v1/sweeps. configure, when
// non-nil, overrides the explorer's point→config mapping (scenario sweeps
// use it to fold a fault script into every design point).
type sweepSpec struct {
	points       []design.Point
	apps         []workload.Workload
	scale        workload.Scale
	threadCounts []int
	configure    design.ConfigureFunc
}

const (
	kindCells = "cells"
	kindSweep = "sweep"
)

// job is one unit of queued work: the cells of a synchronous request,
// run in order on one worker, or an asynchronous sweep (tracked in the
// job registry).
type job struct {
	kind string // kindCells or kindSweep
	// tenant is the admission-quota bucket this job occupies until it
	// resolves ("" when quotas are disabled or the job never acquired).
	tenant string

	// Cell jobs: the cells and the callback that receives their outcome —
	// every cell with its cached flag, or errShuttingDown.
	cells []cellSpec
	done  func(cells []explore.Cell, cached []bool, err error)

	// Sweep jobs: identity, per-job cancellation and observable state.
	id     string
	sweep  *sweepSpec
	ctx    context.Context
	cancel context.CancelFunc

	// block, when non-nil, makes the worker park until it is closed —
	// a test hook for exercising queue-full and drain paths
	// deterministically.
	block chan struct{}

	mu       sync.Mutex
	state    string
	progress explore.Progress
	results  []design.SweepResult
	err      error
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *job) setProgress(p explore.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// snapshot returns a consistent view for the status endpoint.
func (j *job) snapshot() (state string, p explore.Progress, results []design.SweepResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.progress, j.results, j.err
}

// finish records a sweep's outcome.
func (j *job) finish(results []design.SweepResult, err error, cancelled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results, j.err = results, err
	switch {
	case cancelled:
		j.state = stateCancelled
	case err != nil:
		j.state = stateFailed
	default:
		j.state = stateDone
	}
}

// registry tracks async jobs by id.
type registry struct {
	mu   sync.Mutex
	m    map[string]*job
	next int
}

func newRegistry() *registry {
	return &registry{m: make(map[string]*job)}
}

func (r *registry) add(j *job) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	j.id = jobID(r.next)
	r.m[j.id] = j
	return j.id
}

func (r *registry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.m[id]
	return j, ok
}

func (r *registry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, id)
}

// all returns every registered job (for shutdown bookkeeping).
func (r *registry) all() []*job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*job, 0, len(r.m))
	for _, j := range r.m {
		out = append(out, j)
	}
	return out
}

// jobID renders sequential, zero-padded ids: stable, log-friendly, and
// unambiguous in a single-process daemon.
func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }
