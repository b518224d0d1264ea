package labd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	preexec "repro"
	"repro/internal/artifactdisk"
	"repro/internal/labapi"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { srv.Close(); ts.Close() })
	return srv, ts
}

func submitSweep(t *testing.T, base string, req labapi.SweepRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var sub labapi.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

// streamEvents consumes a job's NDJSON stream to EOF and returns every line.
func streamEvents(t *testing.T, base, id string) []labapi.StreamLine {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	var lines []labapi.StreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24) // artifact lines carry whole reports
	for sc.Scan() {
		var line labapi.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// sweepArtifact extracts the artifact line's report from a finished stream.
func sweepArtifact(t *testing.T, lines []labapi.StreamLine) *preexec.SweepReport {
	t.Helper()
	for _, line := range lines {
		if line.Artifact == "" {
			continue
		}
		if line.Artifact != "sweep" {
			t.Fatalf("artifact %q, want sweep", line.Artifact)
		}
		var rep preexec.SweepReport
		if err := json.Unmarshal(line.Report, &rep); err != nil {
			t.Fatal(err)
		}
		return &rep
	}
	t.Fatal("stream carried no artifact line")
	return nil
}

func getStats(t *testing.T, base string) labapi.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats labapi.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

var smokeRequest = labapi.SweepRequest{
	Axes:       []string{"idle"},
	Benchmarks: []string{"gap"},
	Targets:    []string{"L"},
}

// TestConcurrentClientsShareBuilds is the daemon's build-once guarantee end
// to end: two clients submit the same sweep concurrently, both receive the
// full report, and the store counters prove every heavy stage was built
// exactly once across both jobs.
func TestConcurrentClientsShareBuilds(t *testing.T) {
	_, ts := newTestServer(t, Config{Dir: t.TempDir()})

	var wg sync.WaitGroup
	reports := make([]*preexec.SweepReport, 2)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := submitSweep(t, ts.URL, smokeRequest)
			lines := streamEvents(t, ts.URL, id)
			reports[i] = sweepArtifact(t, lines)
			last := lines[len(lines)-1]
			if last.Kind != labapi.KindJobDone {
				t.Errorf("client %d: stream ended with %q, want job-done", i, last.Kind)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, rep := range reports {
		if len(rep.Points) != 3 { // idle axis has the paper's three points
			t.Errorf("client %d: %d sweep points, want 3", i, len(rep.Points))
		}
	}

	stats := getStats(t, ts.URL)
	for _, st := range []preexec.Stage{preexec.StageTrace, preexec.StageProfile, preexec.StageSlices} {
		if n := stats.Store.Stages[st].Cold; n != 1 {
			t.Errorf("stage %s built %d times across both clients, want 1", st, n)
		}
	}
	if len(stats.Jobs) != 2 {
		t.Fatalf("%d jobs, want 2", len(stats.Jobs))
	}
	for _, j := range stats.Jobs {
		if j.State != labapi.JobDone {
			t.Errorf("job %s state %s, want done", j.ID, j.State)
		}
		if j.Done != j.Total || j.Total != 3 {
			t.Errorf("job %s progress %d/%d, want 3/3", j.ID, j.Done, j.Total)
		}
	}
}

// TestRestartWarm is the restart guarantee end to end: a fresh daemon over
// the same store directory re-runs the sweep with zero heavy-stage builds —
// every stage is a disk load.
func TestRestartWarm(t *testing.T) {
	dir := t.TempDir()

	srv1, ts1 := newTestServer(t, Config{Dir: dir})
	id := submitSweep(t, ts1.URL, smokeRequest)
	first := sweepArtifact(t, streamEvents(t, ts1.URL, id))
	srv1.Close()
	ts1.Close()

	_, ts2 := newTestServer(t, Config{Dir: dir})
	id = submitSweep(t, ts2.URL, smokeRequest)
	lines := streamEvents(t, ts2.URL, id)
	second := sweepArtifact(t, lines)

	stats := getStats(t, ts2.URL)
	heavy := []preexec.Stage{preexec.StageTrace, preexec.StageProfile,
		preexec.StageSlices, preexec.StageBaseline}
	for _, st := range heavy {
		s := stats.Store.Stages[st]
		if s.Cold != 0 {
			t.Errorf("restarted daemon rebuilt stage %s %d times, want 0", st, s.Cold)
		}
		if s.SpillLoads != 1 {
			t.Errorf("restarted daemon: stage %s spill loads %d, want 1", st, s.SpillLoads)
		}
	}
	for _, line := range lines {
		if line.Kind == string(preexec.EventStageSpill) && line.Stage == string(preexec.StageTrace) {
			return // the stream itself reported the warm load
		}
	}
	_ = first
	_ = second
	t.Error("event stream carried no stage-spill line for the trace")
}

// TestRestartWarmReportsAgree pins that a restart-warm sweep reproduces the
// cold sweep's numbers exactly (artifacts round-tripped the disk tier).
// Simulator wall-clock throughput is the one legitimately nondeterministic
// metric; it is normalized out before comparing.
func TestRestartWarmReportsAgree(t *testing.T) {
	dir := t.TempDir()

	srv1, ts1 := newTestServer(t, Config{Dir: dir})
	id := submitSweep(t, ts1.URL, smokeRequest)
	first := sweepArtifact(t, streamEvents(t, ts1.URL, id))
	srv1.Close()
	ts1.Close()

	_, ts2 := newTestServer(t, Config{Dir: dir})
	id = submitSweep(t, ts2.URL, smokeRequest)
	second := sweepArtifact(t, streamEvents(t, ts2.URL, id))

	for _, rep := range []*preexec.SweepReport{first, second} {
		for pi := range rep.Points {
			for ri := range rep.Points[pi].Runs {
				rep.Points[pi].Runs[ri].SimCyclesPerSec = 0
			}
		}
	}
	raw1, _ := json.Marshal(first)
	raw2, _ := json.Marshal(second)
	if !bytes.Equal(raw1, raw2) {
		t.Error("restart-warm report diverged from cold report")
	}
}

// TestCancelJob submits a grid far too large to finish and cancels it: the
// job must reach the cancelled state and its stream must terminate.
func TestCancelJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), Parallelism: 1})
	id := submitSweep(t, ts.URL, labapi.SweepRequest{
		Axes:       []string{"idle", "mem", "l2"},
		Benchmarks: []string{"gap", "mcf", "twolf", "vortex"},
	})
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	// The stream ends once the engine unwinds; the job lands in cancelled.
	lines := streamEvents(t, ts.URL, id)
	if len(lines) == 0 {
		t.Fatal("cancelled stream carried no lines")
	}
	if last := lines[len(lines)-1]; last.Kind != labapi.KindJobFailed {
		t.Errorf("cancelled stream ended with %q, want job-failed", last.Kind)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var job labapi.Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if job.State == labapi.JobCancelled {
			return
		}
		if job.State.Terminal() {
			t.Fatalf("job state %s, want cancelled", job.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never left state %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestartLeavesNoMappings restarts a daemon three times in one process
// on one store directory. Each daemon serves a paper job with its trace
// mapped — remapped after the cold build, then warm-loaded — and its Close
// unmaps it, so no restart leaves a mapping behind.
func TestRestartLeavesNoMappings(t *testing.T) {
	if !artifactdisk.MapSupported() {
		t.Skip("platform cannot map files")
	}
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		srv, ts := newTestServer(t, Config{Dir: dir})
		id := submitSweep(t, ts.URL, labapi.SweepRequest{Benchmarks: []string{"gap"}, Targets: []string{"L"}})
		sweepArtifact(t, streamEvents(t, ts.URL, id))
		if d := getStats(t, ts.URL).Store.Disk; d.MappedFiles < 1 {
			t.Errorf("daemon %d: %d mapped files while serving, want >= 1", i, d.MappedFiles)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if d := getStats(t, ts.URL).Store.Disk; d.MappedFiles != 0 || d.MappedBytes != 0 {
			t.Errorf("daemon %d after Close: %d mapped files, %d mapped bytes, want 0",
				i, d.MappedFiles, d.MappedBytes)
		}
		ts.Close()
	}
}

// TestCloseWaitsForJobs closes the daemon while a long job runs: Close
// returns only once the job's goroutine has finished it as cancelled, and a
// sweep submitted afterwards is refused.
func TestCloseWaitsForJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Dir: t.TempDir(), Parallelism: 1})
	id := submitSweep(t, ts.URL, labapi.SweepRequest{Axes: []string{"idle", "mem"}, Benchmarks: []string{"twolf"}})
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("no first event: %v", err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	j := srv.jobs[id]
	srv.mu.Unlock()
	if st := j.snapshot().State; st != labapi.JobCancelled {
		t.Errorf("job state %s when Close returned, want cancelled", st)
	}

	body, _ := json.Marshal(smokeRequest)
	after, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	after.Body.Close()
	if after.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("sweep after Close: status %d, want 503", after.StatusCode)
	}
}

// TestUnknownJob pins the 404 path.
func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Dir: t.TempDir()})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

// badSweepBodies are submissions the daemon must reject with 400 before
// creating a job; FuzzSweepRequest seeds its corpus from them.
var badSweepBodies = map[string]string{
	"not json":             "{",
	"unknown axis":         `{"axes":["sideways"],"benchmarks":["gap"]}`,
	"unknown target":       `{"benchmarks":["gap"],"targets":["Q"]}`,
	"bad workload":         `{"workloads":["no-such-family:1"]}`,
	"empty":                `{}`,
	"repeated axis":        `{"axes":["idle","mem","idle"],"benchmarks":["gap"]}`,
	"unknown benchmark":    `{"axes":["idle"],"benchmarks":["gap","nonesuch"]}`,
	"duplicated benchmark": `{"benchmarks":["gap","gap"]}`,
}

// TestBadRequests pins submission validation: unparsable bodies, unknown
// axes/targets, bad workload specs and empty, unknown or duplicated
// benchmark sets are 400s, not jobs. Benchmark-set errors carry the
// engine's valid-set message.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Dir: t.TempDir()})
	for name, body := range badSweepBodies {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if strings.HasSuffix(name, " benchmark") && !strings.Contains(string(msg), "(valid: ") {
			t.Errorf("%s: body %q lacks the valid benchmark set", name, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []labapi.Job
	err = json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if err != nil || len(jobs) != 0 {
		t.Errorf("rejected submissions created jobs: %+v (%v)", jobs, err)
	}
}

// TestBuildGridTrimsNames: a request's axis, benchmark and target names
// are trimmed the way cmd/sweep trims its comma-separated flags, so
// "gap, twolf" names twolf and not " twolf".
func TestBuildGridTrimsNames(t *testing.T) {
	var req labapi.SweepRequest
	if err := json.Unmarshal([]byte(`{"axes":[" idle"],"benchmarks":["gap"," twolf "],"targets":[" L"]}`), &req); err != nil {
		t.Fatal(err)
	}
	g, err := buildGrid(req)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.Benchmarks, []string{"gap", "twolf"}) || len(g.Axes) != 1 || len(g.Targets) != 1 {
		t.Errorf("buildGrid = axes %d, benchmarks %q, targets %v", len(g.Axes), g.Benchmarks, g.Targets)
	}
}

// FuzzSweepRequest drives the daemon's request boundary with raw bodies:
// whatever decodes must either fail buildGrid with an error or yield a
// grid that passes Validate — never a panic.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range badSweepBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"axes":["idle","mem"],"benchmarks":["gap"],"targets":["L","E"]}`))
	f.Add([]byte(`{"workloads":["pointer-chase:7","hash-probe:2:loads=2"],"axes":["l2"]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req labapi.SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		g, err := buildGrid(req)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("buildGrid accepted an invalid grid: %v", err)
		}
	})
}

// TestSubscriberDropAndMark exercises the bounded-queue fan-out directly: a
// queue of 2 receiving 10 lines drops 8 and counts them, while the replay
// buffer keeps everything (up to its own bound) for late subscribers.
func TestSubscriberDropAndMark(t *testing.T) {
	j := &job{state: labapi.JobRunning, subs: map[*subscriber]struct{}{}}
	_, _, sub := j.subscribe(2)
	for i := 0; i < 10; i++ {
		j.publish(100, labapi.StreamLine{Kind: "stage-start", Done: i})
	}
	if n := sub.dropped.Load(); n != 8 {
		t.Errorf("dropped %d, want 8", n)
	}
	replay, lost, _ := j.subscribe(2)
	if len(replay) != 10 || lost != 0 {
		t.Errorf("replay %d lines lost %d, want 10 and 0", len(replay), lost)
	}
}

// TestConcurrentStreamsOneJob runs two event streams of one job side by
// side: the replay buffer and both subscriber queues share each encoded
// line, so the handlers must only read it (run under -race). Both clients
// receive the whole stream.
func TestConcurrentStreamsOneJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Dir: t.TempDir()})
	j := &job{id: "jx", state: labapi.JobRunning, subs: map[*subscriber]struct{}{}}
	srv.mu.Lock()
	srv.jobs[j.id] = j
	srv.mu.Unlock()
	j.publish(replayBufferCap, labapi.StreamLine{Kind: "stage-start", Done: -1})

	var wg sync.WaitGroup
	streams := make([][]labapi.StreamLine, 2)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = streamEvents(t, ts.URL, j.id)
		}(i)
	}
	for subscribed := 0; subscribed < len(streams); time.Sleep(time.Millisecond) {
		j.mu.Lock()
		subscribed = len(j.subs)
		j.mu.Unlock()
	}
	for i := 0; i < 10; i++ {
		j.publish(replayBufferCap, labapi.StreamLine{Kind: "stage-start", Done: i})
	}
	j.finish(replayBufferCap, labapi.JobDone, "", labapi.StreamLine{Kind: labapi.KindJobDone})
	wg.Wait()

	for i, lines := range streams {
		if len(lines) != 12 { // replayed line, 10 live lines, job-done
			t.Fatalf("client %d: %d lines, want 12: %+v", i, len(lines), lines)
		}
		if !reflect.DeepEqual(lines, streams[0]) {
			t.Errorf("client %d stream differs from client 0's", i)
		}
	}
}

// TestReplayBufferBound exercises the replay cap: a late subscriber to a
// job whose history outgrew the buffer gets a leading lagging line with the
// overflow count, then the surviving tail.
func TestReplayBufferBound(t *testing.T) {
	const replayCap = 4
	srv, ts := newTestServer(t, Config{Dir: t.TempDir()})
	j := &job{id: "jx", state: labapi.JobRunning, subs: map[*subscriber]struct{}{}}
	srv.mu.Lock()
	srv.jobs[j.id] = j
	srv.mu.Unlock()
	for i := 0; i < 10; i++ {
		j.publish(replayCap, labapi.StreamLine{Kind: "stage-start", Done: i})
	}
	j.finish(replayCap, labapi.JobDone, "", labapi.StreamLine{Kind: labapi.KindJobDone})

	lines := streamEvents(t, ts.URL, j.id)
	if len(lines) != 5 { // lagging + 4 surviving lines
		t.Fatalf("%d lines, want 5: %+v", len(lines), lines)
	}
	if lines[0].Kind != labapi.KindLagging || lines[0].Dropped != 7 {
		t.Errorf("leading line %+v, want lagging with 7 dropped", lines[0])
	}
	if lines[len(lines)-1].Kind != labapi.KindJobDone {
		t.Errorf("stream ended with %q, want job-done", lines[len(lines)-1].Kind)
	}
}

// TestOversizedSweepBody pins the request-body cap: a sweep body past
// maxSweepBody is refused with 413 and starts no job.
func TestOversizedSweepBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Dir: t.TempDir()})
	body := `{"benchmarks":["` + strings.Repeat("a", maxSweepBody) + `"]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
	if n := len(getStats(t, ts.URL).Jobs); n != 0 {
		t.Errorf("%d jobs after an oversized body, want 0", n)
	}
}

// TestOversizedSweepGrid pins the grid cap: a grid of more than
// maxSweepJobs (benchmark or workload, point) jobs is refused with 413
// before any of its workloads is registered, and starts no job.
func TestOversizedSweepGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{Dir: t.TempDir()})
	req := labapi.SweepRequest{Axes: []string{"idle", "mem", "l2"}} // 27 points
	for seed := 0; len(req.Workloads)*27 <= maxSweepJobs; seed++ {
		req.Workloads = append(req.Workloads, fmt.Sprintf("pointer-chase:%d", 900000+seed))
	}
	before := preexec.Benchmarks()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
	if n := len(getStats(t, ts.URL).Jobs); n != 0 {
		t.Errorf("%d jobs after an oversized grid, want 0", n)
	}
	if after := preexec.Benchmarks(); !slices.Equal(before, after) {
		t.Errorf("oversized grid registered %d workloads", len(after)-len(before))
	}
}
