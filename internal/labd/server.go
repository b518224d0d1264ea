// Package labd implements the persistent lab daemon: one long-lived Lab
// engine — in-memory singleflight artifact store backed by the on-disk
// spill tier — behind an HTTP+JSON API (see internal/labapi for the wire
// types):
//
//	POST   /v1/sweep            submit a sweep grid; returns {"id": ...}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        one job
//	GET    /v1/jobs/{id}/events NDJSON event stream (replay + live)
//	DELETE /v1/jobs/{id}        cancel a running job
//	GET    /v1/stats            jobs + artifact-store counters
//
// Because every job runs through one engine, concurrent submissions that
// overlap share in-flight builds (one trace, one baseline per unique
// fingerprint, whatever the client count), and the disk tier makes the
// sharing survive daemon restarts.
//
// Event streams fan out through per-client bounded queues: a client that
// cannot keep up has events dropped and is told so with a {"kind":
// "lagging", "dropped": N} line rather than ever back-pressuring the
// engine.
package labd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	preexec "repro"
	"repro/internal/labapi"
)

// Config holds a daemon server's deployment settings. Every job runs on the
// paper's default configuration, so concurrent and repeated submissions
// share one set of cached artifacts.
type Config struct {
	// Dir is the disk store's root directory (required).
	Dir string
	// MaxStoreBytes is the disk store's byte budget (<= 0: unlimited).
	MaxStoreBytes int64
	// Parallelism bounds the engine's worker pool (<= 0: GOMAXPROCS).
	Parallelism int
}

// Event fan-out bounds. subscriberQueueCap is each event subscriber's
// queue length; events past it are dropped and reported as a lagging line.
// replayBufferCap bounds each job's event replay buffer — the lines a late
// subscriber receives before going live; older lines are dropped and
// reported via a lagging line at stream start.
const (
	subscriberQueueCap = 1024
	replayBufferCap    = 8192
)

// Server is the daemon: a shared Lab engine plus the job registry. Create
// with New, serve with (net/http).Server{Handler: srv}.
type Server struct {
	lab *preexec.Lab
	mux *http.ServeMux

	// base is the parent of every job context; cancelling it (Close)
	// cancels all running jobs.
	base   context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	closed bool // Close began: no further job starts

	// running counts runSweep goroutines, so Close can wait for every job
	// to leave the engine before closing it.
	running sync.WaitGroup
}

// job is one submitted sweep and its event history.
type job struct {
	id     string
	cancel context.CancelFunc

	mu       sync.Mutex
	state    labapi.JobState
	errMsg   string
	done     int
	total    int
	lines    []json.RawMessage // NDJSON-encoded StreamLines, replay for late subscribers
	lost     int64             // replay lines dropped to the buffer bound
	subs     map[*subscriber]struct{}
	finished bool // terminal: lines is complete, subs are closed
}

// subscriber is one client's bounded event queue. The publisher never
// blocks on it: when the queue is full the event is counted in dropped and
// discarded, and the streaming handler surfaces the count as a lagging
// line.
type subscriber struct {
	ch      chan json.RawMessage
	dropped atomic.Int64
}

// New creates a daemon server, opening (or creating) the disk store at
// cfg.Dir. The error is the disk store's: a daemon that cannot persist
// artifacts refuses to start rather than silently running uncached.
func New(cfg Config) (*Server, error) {
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		mux:    http.NewServeMux(),
		base:   base,
		cancel: cancel,
		jobs:   map[string]*job{},
	}
	s.lab = preexec.New(
		preexec.WithParallelism(cfg.Parallelism),
		preexec.WithObserver(s.observe),
		preexec.WithDiskStore(cfg.Dir, cfg.MaxStoreBytes),
	)
	if err := s.lab.DiskStoreErr(); err != nil {
		cancel()
		return nil, err
	}
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every running job, waits for each job's goroutine to
// return, then closes the Lab, unmapping its traces. A sweep submitted
// after Close is refused. In-flight streams terminate with their jobs; the
// HTTP server's own shutdown is the caller's. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.running.Wait()
	return s.lab.Close()
}

// ---------------------------------------------------------------- events --

// observe is the Lab's observer: it routes every engine event to the job
// named by its context tag. Events without a tag (none, once every entry
// point threads WithEventTag) are dropped.
func (s *Server) observe(ev preexec.Event) {
	if ev.Tag == "" {
		return
	}
	s.mu.Lock()
	j := s.jobs[ev.Tag]
	s.mu.Unlock()
	if j == nil {
		return
	}
	line := labapi.StreamLine{
		Kind:            string(ev.Kind),
		Bench:           ev.Bench,
		Input:           ev.Input,
		Stage:           ev.Stage,
		Target:          ev.Target,
		Point:           ev.Point,
		Done:            ev.Done,
		Total:           ev.Total,
		SimCyclesPerSec: ev.SimCyclesPerSec,
		DurationNS:      ev.DurationNS,
	}
	if ev.Err != nil {
		line.Err = ev.Err.Error()
	}
	if ev.Kind == preexec.EventPointDone {
		j.mu.Lock()
		j.done, j.total = ev.Done, ev.Total
		j.mu.Unlock()
	}
	j.publish(replayBufferCap, line)
}

// publish appends one line to the job's replay buffer and fans it out to
// every subscriber, never blocking: a full queue counts a drop instead.
func (j *job) publish(replayCap int, line labapi.StreamLine) {
	raw, err := marshalLine(line)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.lines = append(j.lines, raw)
	if len(j.lines) > replayCap {
		drop := len(j.lines) - replayCap
		j.lines = append([]json.RawMessage(nil), j.lines[drop:]...)
		j.lost += int64(drop)
	}
	//lab:allow(maprange: per-subscriber fan-out of one already-ordered line; every subscriber receives the same stream and cross-subscriber delivery order is unobservable)
	for sub := range j.subs {
		select {
		case sub.ch <- raw:
		default:
			sub.dropped.Add(1)
		}
	}
}

// finish publishes the job's terminal lines, marks it finished and closes
// every subscriber queue (after the final lines are enqueued, so a live
// client sees artifact then job-done then EOF).
func (j *job) finish(replayCap int, state labapi.JobState, errMsg string, final ...labapi.StreamLine) {
	for _, line := range final {
		j.publish(replayCap, line)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.errMsg = errMsg
	j.finished = true
	//lab:allow(maprange: closing distinct subscriber queues commutes; no subscriber observes the order)
	for sub := range j.subs {
		close(sub.ch)
	}
	j.subs = nil
}

// subscribe atomically snapshots the replay buffer and registers a live
// queue, so the subscriber sees every line exactly once: the snapshot
// covers all lines published before registration, the queue all lines
// after. For finished jobs the returned subscriber is nil — the replay is
// the whole stream.
func (j *job) subscribe(queueCap int) (replay []json.RawMessage, lost int64, sub *subscriber) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay, lost = j.lines, j.lost
	if j.finished {
		return replay, lost, nil
	}
	sub = &subscriber{ch: make(chan json.RawMessage, queueCap)}
	j.subs[sub] = struct{}{}
	return replay, lost, sub
}

func (j *job) unsubscribe(sub *subscriber) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.finished {
		delete(j.subs, sub)
	}
}

func (j *job) snapshot() labapi.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return labapi.Job{ID: j.id, State: j.state, Error: j.errMsg, Done: j.done, Total: j.total}
}

// ------------------------------------------------------------- handlers --

// buildGrid turns a wire request into a validated engine grid, resolving
// axis, benchmark, workload-spec and target names exactly as cmd/sweep
// does locally.
// Validation comes before handleSweep's synchronous CheckSweep call, which a
// repeated axis would otherwise size at the product of every repeat.
func buildGrid(req labapi.SweepRequest) (preexec.Grid, error) {
	var g preexec.Grid
	for _, name := range req.Axes {
		axis, err := preexec.ParseSweepAxis(strings.TrimSpace(name))
		if err != nil {
			return g, err
		}
		g.Axes = append(g.Axes, preexec.GridAxis(axis))
	}
	for _, name := range req.Benchmarks {
		g.Benchmarks = append(g.Benchmarks, strings.TrimSpace(name))
	}
	for _, spec := range req.Workloads {
		parsed, err := preexec.ParseWorkloadSpec(spec)
		if err != nil {
			return g, err
		}
		g.Workloads = append(g.Workloads, preexec.WorkloadPoint{Label: spec, Spec: parsed})
	}
	for _, t := range req.Targets {
		tgt, err := preexec.ParseTarget(strings.TrimSpace(t))
		if err != nil {
			return g, err
		}
		g.Targets = append(g.Targets, tgt)
	}
	return g, g.Validate()
}

// maxSweepBody caps a sweep request body. A grid is a handful of axis,
// benchmark, workload and target names, so 1 MiB is far above any real
// request and stops a client from making the daemon buffer an unbounded
// body.
const maxSweepBody = 1 << 20

// maxSweepJobs caps a grid's (benchmark or workload, point) jobs. The
// largest documented grid, every paper benchmark over the three-axis
// idle×mem×l2 product (`sweep -all -axis idle,mem,l2`), is 9 × 27 = 243
// jobs; the cap is the next power of two. A larger grid is refused before
// its workloads are registered: validating the grid registers every spec
// synchronously in the handler, into a registry that never shrinks.
const maxSweepJobs = 256

// errShuttingDown refuses a sweep submitted once Close has begun.
var errShuttingDown = errors.New("daemon is shutting down")

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req labapi.SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("decode request: %w", err))
		return
	}
	grid, err := buildGrid(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if n := grid.Points() * (len(grid.Benchmarks) + len(grid.Workloads)); n > maxSweepJobs {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("sweep grid has %d jobs, more than the %d allowed", n, maxSweepJobs))
		return
	}
	// A grid the engine rejects (no, unknown or duplicated benchmarks)
	// would only fail as a job: reject it here with the engine's message.
	err = s.lab.CheckSweep(grid)
	if errors.Is(err, preexec.ErrClosed) {
		httpError(w, http.StatusServiceUnavailable, errShuttingDown)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := context.WithCancel(s.base)
	j := &job{state: labapi.JobRunning, cancel: cancel, subs: map[*subscriber]struct{}{}}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		httpError(w, http.StatusServiceUnavailable, errShuttingDown)
		return
	}
	s.nextID++
	j.id = fmt.Sprintf("j%d", s.nextID)
	s.jobs[j.id] = j
	s.running.Add(1)
	s.mu.Unlock()

	go s.runSweep(ctx, j, grid)
	writeJSON(w, http.StatusAccepted, labapi.SubmitResponse{ID: j.id})
}

// runSweep executes one job on the shared engine and terminates its stream:
// artifact line then job-done on success, job-failed (or cancelled) with
// the error otherwise.
func (s *Server) runSweep(ctx context.Context, j *job, grid preexec.Grid) {
	defer s.running.Done()
	defer j.cancel()
	rep, err := s.lab.Sweep(preexec.WithEventTag(ctx, j.id), grid)
	if err != nil {
		state := labapi.JobFailed
		if errors.Is(err, context.Canceled) {
			state = labapi.JobCancelled
		}
		j.finish(replayBufferCap, state, err.Error(), labapi.StreamLine{Kind: labapi.KindJobFailed, Err: err.Error()})
		return
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		j.finish(replayBufferCap, labapi.JobFailed, err.Error(), labapi.StreamLine{Kind: labapi.KindJobFailed, Err: err.Error()})
		return
	}
	j.finish(replayBufferCap, labapi.JobDone, "",
		labapi.StreamLine{Artifact: "sweep", Report: raw},
		labapi.StreamLine{Kind: labapi.KindJobDone})
}

func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return j
}

// snapshotJobs collects every job sorted by ID (j1, j2, ...: numeric suffix
// order), so listings and stats render identically regardless of the jobs
// map's iteration order.
func (s *Server) snapshotJobs() []*job {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool {
		return len(jobs[a].id) < len(jobs[b].id) ||
			(len(jobs[a].id) == len(jobs[b].id) && jobs[a].id < jobs[b].id)
	})
	return jobs
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.snapshotJobs()
	out := make([]labapi.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobByID(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.cancel()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	jobs := s.snapshotJobs()
	stats := labapi.Stats{Jobs: make([]labapi.Job, len(jobs)), Store: s.lab.StoreStats()}
	for i, j := range jobs {
		stats.Jobs[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, stats)
}

// handleEvents streams a job's events as NDJSON: the replay buffer first
// (prefixed by a lagging line when the buffer overflowed before this
// client arrived), then live events until the job finishes or the client
// disconnects. Every line is flushed immediately — clients render progress
// in real time.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	replay, lost, sub := j.subscribe(subscriberQueueCap)
	if sub != nil {
		defer j.unsubscribe(sub)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// writeLine writes one newline-terminated line as it is: the replay
	// buffer and every subscriber queue share the slice, so it is never
	// appended to.
	writeLine := func(raw json.RawMessage) bool {
		if _, err := w.Write(raw); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	lagging := func(n int64) json.RawMessage {
		raw, _ := marshalLine(labapi.StreamLine{Kind: labapi.KindLagging, Dropped: n})
		return raw
	}

	if lost > 0 {
		if !writeLine(lagging(lost)) {
			return
		}
	}
	for _, raw := range replay {
		if !writeLine(raw) {
			return
		}
	}
	if sub == nil {
		return // finished job: the replay was the whole stream
	}
	for {
		// Surface queue overflow as soon as it is observed, so the gap is
		// marked in-stream where it happened.
		if n := sub.dropped.Swap(0); n > 0 {
			if !writeLine(lagging(n)) {
				return
			}
		}
		select {
		case raw, ok := <-sub.ch:
			if !ok {
				// Queue closed with drops pending means the tail of the
				// stream (possibly the artifact line) was lost; mark the
				// gap so the client knows to re-fetch the finished job.
				if n := sub.dropped.Swap(0); n > 0 {
					writeLine(lagging(n))
				}
				return
			}
			if !writeLine(raw) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// ---------------------------------------------------------------- helpers --

// marshalLine encodes one stream line as NDJSON, newline included.
func marshalLine(line labapi.StreamLine) (json.RawMessage, error) {
	raw, err := json.Marshal(line)
	return append(raw, '\n'), err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
