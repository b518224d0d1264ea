package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	preexec "repro"
	"repro/internal/labapi"
	"repro/internal/labd"
)

// Job mix of one labd-mix repetition: paper single-point jobs (loaded from
// the disk store on first touch, then hit in memory), jobs over a small
// pool of generated specs (built cold once, then hit), and jobs over fresh
// generated specs (each built cold and written to the store).
const (
	paperJobs = 120
	poolJobs  = 72
	poolSize  = 6
	freshJobs = 48
	clients   = 2
)

// labdMix restarts the daemon on a store that set-up filled and drives it
// with two closed-loop clients. It is the only workload through the disk
// store, the mapped trace path, spill writes beside spill reads, the
// daemon's HTTP and event-stream path and its job and artifact retention.
var labdMix = &workload{
	workers: 2,
	setups:  3,
	setup: func(ctx context.Context, b *bench) (state, error) {
		dir, err := b.scratch("labd-setup-")
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(dir)
		if err != nil {
			return nil, err
		}
		defer d.close()
		var jobs []job
		for _, name := range preexec.PaperBenchmarks() {
			jobs = append(jobs, job{kind: "paper", req: labapi.SweepRequest{Benchmarks: []string{name}}})
		}
		for _, r := range d.drive(ctx, jobs, nil, 0) {
			if r.err != nil {
				return nil, fmt.Errorf("fill store: %w", r.err)
			}
		}
		return &labdState{dir: dir}, nil
	},
	rep: func(ctx context.Context, b *bench, s state, i int, tr *tracer) (*repOut, error) {
		st := s.(*labdState)
		st.stopLive()
		dir, err := b.scratch("labd-rep-")
		if err != nil {
			return nil, err
		}
		if err := linkTree(st.dir, dir); err != nil {
			return nil, err
		}
		d, err := startDaemon(dir)
		if err != nil {
			return nil, err
		}
		st.live = d // kept alive until the run's heap is measured
		before, err := d.stats()
		if err != nil {
			return nil, err
		}
		jobs := jobMix(b.seed, i)
		root := tr.begin("labd-mix rep", "", 0)
		start := time.Now()
		results := d.drive(ctx, jobs, tr, root)
		out := &repOut{wall: time.Since(start)}
		tr.end(root)
		after, err := d.stats()
		if err != nil {
			return nil, err
		}

		seen := map[string]string{}
		var parts [][]byte
		for k, r := range results {
			out.ops++
			if r.err != nil {
				out.opFail++
				parts = append(parts, []byte("error: "+r.err.Error()))
				continue
			}
			if prev, ok := seen[jobs[k].key()]; ok && prev != r.digest {
				out.opFail++ // the same request answered differently
			}
			seen[jobs[k].key()] = r.digest
			parts = append(parts, []byte(r.digest))
			out.lats = append(out.lats, r.latency.Seconds())
			out.cycles += r.cycles
			out.render += r.render
			out.labd = append(out.labd, r.timing)
		}
		out.store = storeDelta(before.Store, after.Store)
		out.checks = b.verify.countChecks(i, out.store)
		out.outputs = map[string]string{
			"digest":      digest(parts...),
			"sim_cycles":  fmt.Sprint(out.cycles),
			"spill_bytes": fmt.Sprint(after.Store.Disk.Bytes - before.Store.Disk.Bytes),
		}
		for _, name := range []string{"digest", "sim_cycles", "spill_bytes"} {
			if c, ok := b.verify.committed(i, name, out.outputs[name]); ok {
				out.checks = append(out.checks, c)
			}
		}
		return out, nil
	},
}

// labdState is the store set-up filled, plus the daemon of the latest
// repetition.
type labdState struct {
	dir  string
	live *daemon
}

func (s *labdState) stopLive() {
	if s.live != nil {
		s.live.close()
		os.RemoveAll(s.live.dir)
		s.live = nil
	}
}

func (s *labdState) close() {
	s.stopLive()
	os.RemoveAll(s.dir)
}

// job is one daemon submission.
type job struct {
	kind string // paper, pool or fresh
	req  labapi.SweepRequest
}

func (j job) key() string {
	raw, _ := json.Marshal(j.req)
	return string(raw)
}

// jobMix generates one repetition's jobs from the seed. The request order,
// the paper jobs' targets and the spec seeds come from the seed; the
// generated specs are new in every repetition (the spec seeds also take the
// repetition index), because the workload registry is process-wide and a
// spec registered once never pays its build again. Every paper (benchmark,
// target) pair, every pool spec and every fresh spec occurs in every
// repetition, so the store's cold and disk-load counts do not depend on
// the seed.
func jobMix(seed uint64, rep int) []job {
	order := newRNG(seed)
	specs := newRNG(seed*0x9e3779b97f4a7c15 + uint64(rep) + 1)
	targets := []string{"L", "E", "P"}
	families := preexec.WorkloadFamilies()
	var jobs []job
	var combos []job
	for _, name := range preexec.PaperBenchmarks() {
		for _, t := range targets {
			combos = append(combos, job{kind: "paper", req: labapi.SweepRequest{Benchmarks: []string{name}, Targets: []string{t}}})
		}
	}
	for len(jobs)+len(combos) <= paperJobs {
		jobs = append(jobs, combos...)
	}
	for len(jobs) < paperJobs {
		jobs = append(jobs, combos[order.intn(len(combos))])
	}
	spec := func(k int) string {
		return fmt.Sprintf("%s:%d", families[k%len(families)], specs.next()%1_000_000_000)
	}
	pool := make([]string, poolSize)
	for k := range pool {
		pool[k] = spec(k)
	}
	for k := 0; k < poolJobs; k++ {
		jobs = append(jobs, job{kind: "pool", req: labapi.SweepRequest{Workloads: []string{pool[k%poolSize]},
			Targets: []string{targets[(k/poolSize)%len(targets)]}}})
	}
	for k := 0; k < freshJobs; k++ {
		jobs = append(jobs, job{kind: "fresh", req: labapi.SweepRequest{Workloads: []string{spec(k)},
			Targets: []string{targets[k%len(targets)]}}})
	}
	for k := len(jobs) - 1; k > 0; k-- {
		m := order.intn(k + 1)
		jobs[k], jobs[m] = jobs[m], jobs[k]
	}
	return jobs
}

// rng is splitmix64: small, seedable and identical on every platform.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// linkTree recreates src's directory tree under dst with every file hard
// linked, so a repetition starts from set-up's store without copying it.
// The store publishes files by rename and never writes one in place, so the
// set-up copy stays untouched.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		return os.Link(p, target)
	})
}

// ------------------------------------------------------------ daemon --

// daemon is one in-process labd server behind httptest.
type daemon struct {
	dir    string
	srv    *labd.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := labd.New(labd.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	return &daemon{dir: dir, srv: srv, ts: ts, client: ts.Client()}, nil
}

func (d *daemon) close() {
	d.srv.Close()
	d.ts.Close()
}

func (d *daemon) stats() (labapi.Stats, error) {
	var st labapi.Stats
	resp, err := d.client.Get(d.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	if st.Store.Disk == nil {
		return st, fmt.Errorf("stats: daemon reports no disk store")
	}
	return st, nil
}

// jobResult is what a client observed of one job.
type jobResult struct {
	err     error
	latency time.Duration // submit to report line
	digest  string
	cycles  int64
	render  time.Duration
	timing  labdTiming
}

// labdTiming splits one job's client-side time at the daemon's boundaries.
type labdTiming struct {
	submit     time.Duration // POST until 202
	firstEvent time.Duration // 202 until the first stream line
	tail       time.Duration // report line until job-done
}

// drive runs jobs through closed-loop clients: each client submits its
// next job only after the previous one's stream has ended.
func (d *daemon) drive(ctx context.Context, jobs []job, tr *tracer, parent int) []jobResult {
	results := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				results[k] = d.run(ctx, jobs[k], tr, parent)
			}
		}()
	}
	wg.Wait()
	return results
}

func (d *daemon) run(ctx context.Context, j job, tr *tracer, parent int) (res jobResult) {
	body, err := json.Marshal(j.req)
	if err != nil {
		return jobResult{err: err}
	}
	t0 := time.Now()
	span := tr.begin(j.kind+" job", "", parent)
	defer tr.end(span)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return jobResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return jobResult{err: err}
	}
	var sub labapi.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return jobResult{err: fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)}
	}
	t1 := time.Now()
	res.timing.submit = t1.Sub(t0)
	tr.add("submit", "labd", span, t0, t1)
	tr.setParent(sub.ID, span)

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+"/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		return jobResult{err: err}
	}
	resp, err = d.client.Do(req)
	if err != nil {
		return jobResult{err: err}
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var report json.RawMessage
	var t3 time.Time
	first := true
	for sc.Scan() {
		now := time.Now()
		if first {
			res.timing.firstEvent = now.Sub(t1)
			first = false
		}
		var line labapi.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return jobResult{err: fmt.Errorf("job %s: stream line: %w", sub.ID, err)}
		}
		tr.streamLine(sub.ID, line, now)
		switch {
		case line.Artifact != "":
			report, t3 = line.Report, now
			res.latency = now.Sub(t0)
		case line.Kind == labapi.KindJobFailed:
			return jobResult{err: fmt.Errorf("job %s failed: %s", sub.ID, line.Err)}
		case line.Kind == labapi.KindLagging:
			return jobResult{err: fmt.Errorf("job %s: stream dropped %d events", sub.ID, line.Dropped)}
		case line.Kind == labapi.KindJobDone:
			if report == nil {
				return jobResult{err: fmt.Errorf("job %s: done without a report line", sub.ID)}
			}
			res.timing.tail = now.Sub(t3)
			tr.add("tail", "labd", span, t3, now)
			ck := tr.begin("check", "perfbench", span)
			canon, cycles, err := canonicalJSON(report)
			tr.end(ck)
			if err != nil {
				return jobResult{err: fmt.Errorf("job %s: report: %w", sub.ID, err)}
			}
			res.digest, res.cycles = digest(canon), cycles
			rs := time.Now()
			rd := tr.begin("render", "report", span)
			var rep preexec.SweepReport
			if err := json.Unmarshal(report, &rep); err != nil {
				return jobResult{err: fmt.Errorf("job %s: report: %w", sub.ID, err)}
			}
			_ = rep.Render()
			tr.end(rd)
			res.render = time.Since(rs)
			return res
		}
	}
	if err := sc.Err(); err != nil {
		return jobResult{err: fmt.Errorf("job %s: stream: %w", sub.ID, err)}
	}
	return jobResult{err: fmt.Errorf("job %s: stream ended without job-done", sub.ID)}
}
