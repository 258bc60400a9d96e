package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// quickSpec is the cheap 4x4 job most tests submit; distinct tests
// vary the seed so they don't share cache keys across subtests.
func quickSpec(seed int64) JobSpec {
	return JobSpec{
		Scheme:  "PowerPunch-PG",
		Width:   4,
		Height:  4,
		Pattern: "uniform",
		Rate:    0.05,
		Cycles:  300,
		Seed:    seed,
	}
}

// testServer wires a Server into an httptest listener and tears both
// down (listener first, then a drained Shutdown) at test end.
type testServer struct {
	*Server
	ts *httptest.Server
}

func newTestServer(t *testing.T, opts Options) *testServer {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return &testServer{Server: s, ts: ts}
}

func (ts *testServer) post(t *testing.T, path string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encoding request: %v", err)
		}
	}
	resp, err := http.Post(ts.ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading POST %s response: %v", path, err)
	}
	return resp.StatusCode, out.Bytes()
}

func (ts *testServer) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading GET %s response: %v", path, err)
	}
	return resp.StatusCode, out.Bytes()
}

// mustJSON decodes body into v, failing the test on bad JSON.
func mustJSON(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
}

// errorOf asserts body is the JSON error envelope and returns the
// message.
func errorOf(t *testing.T, body []byte) string {
	t.Helper()
	var e errorBody
	mustJSON(t, body, &e)
	if e.Error == "" {
		t.Fatalf("error response %q has empty error field", body)
	}
	return e.Error
}

// submit POSTs a spec and requires the given status code.
func (ts *testServer) submit(t *testing.T, spec JobSpec, wantCode int) submitResponse {
	t.Helper()
	code, body := ts.post(t, "/api/v1/jobs", spec)
	if code != wantCode {
		t.Fatalf("submit = %d (%s), want %d", code, body, wantCode)
	}
	var sr submitResponse
	mustJSON(t, body, &sr)
	return sr
}

// waitJob polls a job's status until it leaves the queue/pool.
func (ts *testServer) waitJob(t *testing.T, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := ts.get(t, "/api/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s = %d (%s)", id, code, body)
		}
		var js jobStatus
		mustJSON(t, body, &js)
		if js.Status == "done" || js.Status == "failed" {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, js.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCampaign polls campaign progress until complete.
func (ts *testServer) waitCampaign(t *testing.T, id string) campaignProgress {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := ts.get(t, "/api/v1/campaigns/"+id)
		if code != http.StatusOK {
			t.Fatalf("campaign status %s = %d (%s)", id, code, body)
		}
		var cp campaignProgress
		mustJSON(t, body, &cp)
		if cp.Complete || cp.Failed > 0 {
			return cp
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck at %+v", id, cp)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// statsOf fetches /api/v1/stats as a numeric map.
func (ts *testServer) statsOf(t *testing.T) map[string]float64 {
	t.Helper()
	code, body := ts.get(t, "/api/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d (%s)", code, body)
	}
	var m map[string]float64
	mustJSON(t, body, &m)
	return m
}

func TestSubmitAndResult(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})
	spec := quickSpec(21)

	sr := ts.submit(t, spec, http.StatusAccepted)
	if sr.ID == "" || sr.Key == "" || sr.Status != "queued" || sr.Cached {
		t.Fatalf("unexpected submit response %+v", sr)
	}
	js := ts.waitJob(t, sr.ID)
	if js.Status != "done" || js.Error != "" {
		t.Fatalf("job finished as %+v", js)
	}

	code, body := ts.get(t, "/api/v1/jobs/"+sr.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result = %d (%s)", code, body)
	}
	var rec JobRecord
	mustJSON(t, body, &rec)
	if rec.Key != sr.Key {
		t.Errorf("record key %s, want %s", rec.Key, sr.Key)
	}
	// The stored spec is the normalized form: defaults filled in.
	if rec.Spec.Topology != "mesh" || rec.Spec.Scheme != "PowerPunch-PG" {
		t.Errorf("record spec not normalized: %+v", rec.Spec)
	}
	// Cycles counts the whole run including the post-measurement drain.
	if rec.Result.Cycles < spec.Cycles {
		t.Errorf("measured %d cycles, want >= %d", rec.Result.Cycles, spec.Cycles)
	}
	if !rec.Result.Drained {
		t.Error("quick run did not drain")
	}
	if rec.Result.Summary.Injected == 0 || rec.Throughput <= 0 {
		t.Errorf("empty run: injected=%d throughput=%g", rec.Result.Summary.Injected, rec.Throughput)
	}
}

func TestSubmitErrors(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"scheme":`},
		{"unknown field", `{"shceme":"No-PG"}`},
		{"trailing garbage", `{}{"scheme":"No-PG"}`},
		{"unknown scheme", `{"scheme":"Turbo-PG"}`},
		{"unknown pattern", `{"pattern":"zigzag"}`},
		{"unknown bench", `{"bench":"doom"}`},
		{"rate out of range", `{"rate":1.5}`},
		{"negative cycles", `{"cycles":-5}`},
		{"bench with rate", `{"bench":"canneal","rate":0.1}`},
		{"bench with warmup", `{"bench":"canneal","warmup":100}`},
		{"instr without bench", `{"instr":5000}`},
		{"ring with height 2", `{"topology":"ring","height":2}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := ts.post(t, "/api/v1/jobs", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("submit(%s) = %d (%s), want 400", tc.body, code, body)
			}
			errorOf(t, body)
		})
	}
}

func TestUnknownIDs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	paths := []struct {
		method, path string
	}{
		{"GET", "/api/v1/jobs/j-999"},
		{"GET", "/api/v1/jobs/j-999/result"},
		{"GET", "/api/v1/campaigns/c-999"},
		{"GET", "/api/v1/campaigns/c-999/result.csv"},
		{"POST", "/api/v1/campaigns/c-999/resume"},
	}
	for _, p := range paths {
		var code int
		var body []byte
		if p.method == "GET" {
			code, body = ts.get(t, p.path)
		} else {
			code, body = ts.post(t, p.path, "{}")
		}
		if code != http.StatusNotFound {
			t.Errorf("%s %s = %d (%s), want 404", p.method, p.path, code, body)
		}
		errorOf(t, body)
	}
}

// blockPool installs a hookRunning that parks every worker pickup
// until release is closed, and reports each pickup on started. The
// registered cleanup tolerates tests that already closed release.
func blockPool(t *testing.T, s *Server) (started chan *job, release chan struct{}) {
	started = make(chan *job, 64)
	release = make(chan struct{})
	s.hookRunning = func(j *job) {
		started <- j
		<-release
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	return started, release
}

func TestResultConflictWhileQueued(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	started, _ := blockPool(t, ts.Server)

	a := ts.submit(t, quickSpec(31), http.StatusAccepted)
	<-started // the lone worker is now parked inside job A
	b := ts.submit(t, quickSpec(32), http.StatusAccepted)

	code, body := ts.get(t, "/api/v1/jobs/"+b.ID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of queued job = %d (%s), want 409", code, body)
	}
	if msg := errorOf(t, body); !strings.Contains(msg, "queued") {
		t.Errorf("conflict message %q does not name the state", msg)
	}
	code, body = ts.get(t, "/api/v1/jobs/"+a.ID)
	var js jobStatus
	mustJSON(t, body, &js)
	if code != http.StatusOK || js.Status != "running" {
		t.Fatalf("job A status = %d %+v, want running", code, js)
	}
}

func TestAdmissionControl(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	started, release := blockPool(t, ts.Server)

	j1 := ts.submit(t, quickSpec(41), http.StatusAccepted)
	<-started // worker holds j1; the queue itself is empty
	j2 := ts.submit(t, quickSpec(42), http.StatusAccepted)

	// Queue now full: admission control rejects with 429.
	code, body := ts.post(t, "/api/v1/jobs", quickSpec(43))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d (%s), want 429", code, body)
	}
	if msg := errorOf(t, body); !strings.Contains(msg, "queue full") {
		t.Errorf("rejection message %q does not mention the queue", msg)
	}
	if got := ts.statsOf(t)["jobs_rejected"]; got != 1 {
		t.Errorf("jobs_rejected = %v, want 1", got)
	}
	// The rejected job leaves no tracked residue.
	if code, _ := ts.get(t, "/api/v1/jobs/j-3"); code != http.StatusNotFound {
		t.Errorf("rejected job still resolvable, status %d", code)
	}

	close(release)
	for _, id := range []string{j1.ID, j2.ID} {
		if js := ts.waitJob(t, id); js.Status != "done" {
			t.Errorf("job %s finished as %+v", id, js)
		}
	}
}

func TestCampaignLifecycle(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 4})
	spec := CampaignSpec{
		Base:     JobSpec{Width: 4, Height: 4, Cycles: 300, Seed: 51},
		Patterns: []string{"uniform", "transpose"},
		Rates:    []float64{0.02, 0.05},
	}
	code, body := ts.post(t, "/api/v1/campaigns", spec)
	if code != http.StatusAccepted {
		t.Fatalf("campaign create = %d (%s), want 202", code, body)
	}
	var cp campaignProgress
	mustJSON(t, body, &cp)
	if cp.ID == "" || cp.Total != 4 {
		t.Fatalf("campaign progress %+v, want 4 points", cp)
	}

	done := ts.waitCampaign(t, cp.ID)
	if done.Done != 4 || done.Failed != 0 || done.Pending != 0 || !done.Complete {
		t.Fatalf("campaign finished as %+v", done)
	}

	resp, err := http.Get(ts.ts.URL + "/api/v1/campaigns/" + cp.ID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result.csv = %d (%s)", resp.StatusCode, buf.Bytes())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("result.csv content type %q, want text/csv", ct)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("result.csv has %d lines, want header + 4 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "pattern,rate_flits_node_cycle,scheme") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}

	// Resuming a complete campaign is a no-op reporting progress.
	code, body = ts.post(t, "/api/v1/campaigns/"+cp.ID+"/resume", "{}")
	var after campaignProgress
	mustJSON(t, body, &after)
	if code != http.StatusOK || !after.Complete {
		t.Fatalf("resume of complete campaign = %d %+v", code, after)
	}
	if got := ts.statsOf(t)["campaigns_resumed"]; got != 0 {
		t.Errorf("campaigns_resumed = %v after a no-op resume, want 0", got)
	}
}

func TestCampaignCSVConflict(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	started, _ := blockPool(t, ts.Server)

	spec := CampaignSpec{
		Base:  JobSpec{Width: 4, Height: 4, Cycles: 300, Seed: 61},
		Rates: []float64{0.02, 0.05},
	}
	code, body := ts.post(t, "/api/v1/campaigns", spec)
	if code != http.StatusAccepted {
		t.Fatalf("campaign create = %d (%s)", code, body)
	}
	var cp campaignProgress
	mustJSON(t, body, &cp)
	<-started // first point running, second queued: definitely incomplete

	code, body = ts.get(t, "/api/v1/campaigns/"+cp.ID+"/result.csv")
	if code != http.StatusConflict {
		t.Fatalf("incomplete result.csv = %d (%s), want 409", code, body)
	}
	if msg := errorOf(t, body); !strings.Contains(msg, "incomplete") {
		t.Errorf("conflict message %q does not say incomplete", msg)
	}
}

func TestBadCampaigns(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"base":`},
		{"bad point", `{"rates":[0.02,2.5]}`},
		{"fanout too large", fmt.Sprintf(`{"seeds":[%s]}`, seedList(maxCampaignPoints+1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := ts.post(t, "/api/v1/campaigns", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("campaign(%s) = %d (%s), want 400", tc.name, code, body)
			}
			errorOf(t, body)
		})
	}
}

func seedList(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i)
	}
	return b.String()
}

func TestStreamEvents(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})
	spec := quickSpec(71)

	body := func(extra string) string {
		return fmt.Sprintf(`{"scheme":%q,"width":4,"height":4,"pattern":"uniform","rate":0.05,"cycles":300,"seed":71%s}`,
			spec.Scheme, extra)
	}

	t.Run("events", func(t *testing.T) {
		resp, err := http.Post(ts.ts.URL+"/api/v1/stream", "application/json",
			strings.NewReader(body(`,"kinds":"inject,eject"`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("stream content type %q", ct)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		if len(lines) < 2 {
			t.Fatalf("stream produced %d lines, want events plus terminator", len(lines))
		}
		for i, ln := range lines {
			if !json.Valid([]byte(ln)) {
				t.Fatalf("line %d is not JSON: %q", i, ln)
			}
		}
		var end streamEnd
		mustJSON(t, []byte(lines[len(lines)-1]), &end)
		if !end.StreamEnd || end.Cycles < spec.Cycles || end.Events != int64(len(lines)-1) {
			t.Errorf("terminator %+v does not match %d event lines", end, len(lines)-1)
		}
	})

	t.Run("timeline", func(t *testing.T) {
		resp, err := http.Post(ts.ts.URL+"/api/v1/stream", "application/json",
			strings.NewReader(body(`,"mode":"timeline","interval":50`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("timeline stream = %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		var end streamEnd
		mustJSON(t, []byte(lines[len(lines)-1]), &end)
		if !end.StreamEnd || end.Samples != len(lines)-1 || end.Samples < 300/50 {
			t.Errorf("timeline terminator %+v vs %d sample lines", end, len(lines)-1)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for name, payload := range map[string]string{
			"unknown kind": body(`,"kinds":"pg_wake,bogus"`),
			"bad mode":     body(`,"mode":"firehose"`),
			"bad spec":     `{"rate":7}`,
		} {
			code, respBody := ts.post(t, "/api/v1/stream", payload)
			if code != http.StatusBadRequest {
				t.Errorf("%s = %d (%s), want 400", name, code, respBody)
				continue
			}
			errorOf(t, respBody)
		}
	})
}

func TestRateLimit(t *testing.T) {
	var nanos atomic.Int64
	nanos.Store(time.Hour.Nanoseconds())
	ts := newTestServer(t, Options{
		Workers:   1,
		RateLimit: 1,
		RateBurst: 2,
		now:       func() time.Time { return time.Unix(0, nanos.Load()) },
	})

	for i := 0; i < 2; i++ {
		if code, body := ts.get(t, "/api/v1/stats"); code != http.StatusOK {
			t.Fatalf("request %d = %d (%s), want 200", i+1, code, body)
		}
	}
	code, body := ts.get(t, "/api/v1/stats")
	if code != http.StatusTooManyRequests {
		t.Fatalf("burst-exhausted request = %d (%s), want 429", code, body)
	}
	errorOf(t, body)
	if got := ts.mRateLimited.Value(); got != 1 {
		t.Errorf("rate_limited = %d, want 1", got)
	}

	// healthz is exempt: probes must not burn client tokens.
	if code, _ := ts.get(t, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz rate-limited, status %d", code)
	}

	// One second at 1 req/s buys exactly one more request.
	nanos.Add(time.Second.Nanoseconds())
	if code, _ := ts.get(t, "/api/v1/stats"); code != http.StatusOK {
		t.Errorf("post-refill request = %d, want 200", code)
	}
	if code, _ := ts.get(t, "/api/v1/stats"); code != http.StatusTooManyRequests {
		t.Errorf("second post-refill request = %d, want 429", code)
	}
}

func TestDrainingRejects(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ts.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for name, path := range map[string]string{
		"job":      "/api/v1/jobs",
		"campaign": "/api/v1/campaigns",
		"stream":   "/api/v1/stream",
	} {
		code, body := ts.post(t, path, "{}")
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s submit while draining = %d (%s), want 503", name, code, body)
		}
		errorOf(t, body)
	}
	// Reads still work on a draining server.
	if code, _ := ts.get(t, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining = %d", code)
	}
}

// TestSubmitFlyOverScheme pins the bypass scheme's HTTP exposure: a
// job naming FlyOver-PG runs to completion through the same registry
// path as every other scheme, and its cache key is distinct from the
// identical spec under ConvOpt-PG (the scheme name is part of the key).
func TestSubmitFlyOverScheme(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})
	spec := quickSpec(77)
	spec.Scheme = "FlyOver-PG"

	sr := ts.submit(t, spec, http.StatusAccepted)
	js := ts.waitJob(t, sr.ID)
	if js.Status != "done" || js.Error != "" {
		t.Fatalf("FlyOver job finished as %+v", js)
	}
	code, body := ts.get(t, "/api/v1/jobs/"+sr.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result = %d (%s)", code, body)
	}
	var rec JobRecord
	mustJSON(t, body, &rec)
	if rec.Spec.Scheme != "FlyOver-PG" {
		t.Errorf("record spec scheme %q", rec.Spec.Scheme)
	}
	if !rec.Result.Drained || rec.Result.Summary.Injected == 0 {
		t.Errorf("empty FlyOver run: %+v", rec.Result.Summary)
	}

	conv := spec
	conv.Scheme = "ConvOpt-PG"
	cr := ts.submit(t, conv, http.StatusAccepted)
	if cr.Key == sr.Key {
		t.Errorf("ConvOpt-PG spec shares cache key %s with FlyOver-PG", cr.Key)
	}
	ts.waitJob(t, cr.ID)
}

// TestPanickingJobFailsAndServerSurvives pins that one panicking job
// cannot take the server down: the job fails with the panic text,
// jobs_failed counts it, and the lone worker goes on to complete the
// next job.
func TestPanickingJobFailsAndServerSurvives(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	var calls atomic.Int32
	ts.hookRunning = func(*job) {
		if calls.Add(1) == 1 {
			panic("injected job fault")
		}
	}

	bad := ts.submit(t, quickSpec(91), http.StatusAccepted)
	js := ts.waitJob(t, bad.ID)
	if js.Status != "failed" || !strings.Contains(js.Error, "injected job fault") {
		t.Fatalf("panicking job = %+v, want failed with the panic text", js)
	}

	good := ts.submit(t, quickSpec(92), http.StatusAccepted)
	if js := ts.waitJob(t, good.ID); js.Status != "done" {
		t.Fatalf("job after the panic = %+v, want done", js)
	}
	st := ts.statsOf(t)
	if st["jobs_failed"] != 1 || st["jobs_completed"] != 1 {
		t.Errorf("failed=%v completed=%v, want 1 and 1", st["jobs_failed"], st["jobs_completed"])
	}
}

// TestPanickingOwnerReleasesWaiters pins the owner half of panic
// recovery: a job that panics while it owns its key's cache entry
// fills the entry with the panic, so a waiter that joined the in-flight
// entry is released with that error instead of hanging, and the failed
// entry is forgotten — the next submission of the key simulates afresh.
func TestPanickingOwnerReleasesWaiters(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	joined := make(chan *cacheEntry, 1)
	ts.simulate = func(spec JobSpec) (*JobRecord, error) {
		e, owner := ts.cache.acquire(spec.Key())
		if owner {
			t.Error("a second acquire of an in-flight key became its owner")
		}
		joined <- e
		panic("injected simulation fault")
	}

	bad := ts.submit(t, quickSpec(93), http.StatusAccepted)
	js := ts.waitJob(t, bad.ID)
	if js.Status != "failed" || !strings.Contains(js.Error, "injected simulation fault") {
		t.Fatalf("panicking owner = %+v, want failed with the panic text", js)
	}
	e := <-joined
	select {
	case <-e.ready:
	default:
		t.Fatal("the waiter on the panicking owner's entry was never released")
	}
	if e.err == nil || !strings.Contains(e.err.Error(), "injected simulation fault") {
		t.Errorf("waiter released with err %v, want the panic text", e.err)
	}

	// The submission below is received by the worker after this write.
	ts.simulate = runSpec
	retry := ts.submit(t, quickSpec(93), http.StatusAccepted)
	if js := ts.waitJob(t, retry.ID); js.Status != "done" || js.Cached {
		t.Fatalf("resubmitted key = %+v, want a fresh successful simulation", js)
	}
}
