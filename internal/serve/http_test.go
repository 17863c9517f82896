package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"quditkit/internal/core"
	"quditkit/internal/httpapi"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, Config{})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func ghzRequest() JobRequest {
	return JobRequest{
		Circuit: CircuitSpec{
			Dims: []int{3, 3, 3},
			Ops: []OpSpec{
				{Gate: "dft", Targets: []int{0}},
				{Gate: "csum", Targets: []int{0, 1}},
				{Gate: "csum", Targets: []int{0, 2}},
			},
		},
		Shots: 256,
	}
}

func postJob(t *testing.T, url string, req JobRequest) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode >= 400 {
		// Error responses carry the httpapi envelope, not a JobView.
		return view, resp.StatusCode
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return view, resp.StatusCode
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s (status %d): %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode
}

// TestHTTPSubmitTwiceSecondIsCacheHit is the end-to-end acceptance
// test of the service: the same circuit submitted twice over HTTP, the
// second response a cache hit (verified via /v1/stats), both results
// byte-identical to each other and to the synchronous Submit path.
func TestHTTPSubmitTwiceSecondIsCacheHit(t *testing.T) {
	_, ts := newTestServer(t)

	first, status := postJob(t, ts.URL+"/v1/jobs?wait=1", ghzRequest())
	if status != http.StatusOK && status != http.StatusAccepted {
		t.Fatalf("first submit status = %d", status)
	}
	if first.State != "done" || first.Result == nil {
		t.Fatalf("first job view = %+v", first)
	}
	if first.Cached {
		t.Error("first submission claims to be cached")
	}

	second, status := postJob(t, ts.URL+"/v1/jobs", ghzRequest())
	if status != http.StatusOK {
		t.Fatalf("cache-hit submit status = %d, want 200", status)
	}
	if second.State != "done" || !second.Cached || second.Result == nil {
		t.Fatalf("second job view = %+v, want cached done", second)
	}

	var stats Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if stats.CacheHits < 1 {
		t.Errorf("stats report %d cache hits, want >= 1", stats.CacheHits)
	}
	if stats.Enqueued != 2 {
		t.Errorf("stats report %d enqueued, want 2", stats.Enqueued)
	}

	// Byte-identical across the HTTP boundary and vs. the synchronous path.
	firstJSON, _ := json.Marshal(first.Result)
	secondJSON, _ := json.Marshal(second.Result)
	if !bytes.Equal(firstJSON, secondJSON) {
		t.Errorf("cached response differs:\nfirst  %s\nsecond %s", firstJSON, secondJSON)
	}
	direct, err := testProcessor(t).SubmitOne(ghz(t), core.WithShots(256))
	if err != nil {
		t.Fatal(err)
	}
	directJSON, _ := json.Marshal(NewResultView(direct))
	if !bytes.Equal(firstJSON, directJSON) {
		t.Errorf("HTTP result differs from synchronous Submit:\nhttp %s\nsync %s", firstJSON, directJSON)
	}
}

func TestHTTPJobPollingAndCancel(t *testing.T) {
	_, ts := newTestServer(t)

	// Async submit, then poll with wait.
	view, status := postJob(t, ts.URL+"/v1/jobs", ghzRequest())
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit status = %d", status)
	}
	var polled JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+view.ID+"?wait=1", &polled); code != http.StatusOK {
		t.Fatalf("poll status = %d", code)
	}
	if polled.State != "done" || polled.Result == nil {
		t.Fatalf("polled view = %+v", polled)
	}
	if polled.Result.Counts == nil || countTotal(polled.Result.Counts) != 256 {
		t.Errorf("polled counts = %v", polled.Result.Counts)
	}

	// Unknown job → 404 with the structured envelope.
	var missing httpapi.Envelope
	if code := getJSON(t, ts.URL+"/v1/jobs/j-424242", &missing); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if missing.Error.Code != httpapi.CodeNotFound {
		t.Errorf("unknown job code = %q, want %q", missing.Error.Code, httpapi.CodeNotFound)
	}

	// Cancel a settled job → 409.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel settled job status = %d, want 409", resp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for name, req := range map[string]JobRequest{
		"no wires":     {Circuit: CircuitSpec{}},
		"bad gate":     {Circuit: CircuitSpec{Dims: []int{3}, Ops: []OpSpec{{Gate: "frobnicate", Targets: []int{0}}}}},
		"bad target":   {Circuit: CircuitSpec{Dims: []int{3}, Ops: []OpSpec{{Gate: "dft", Targets: []int{7}}}}},
		"bad backend":  {Circuit: CircuitSpec{Dims: []int{3}}, Backend: "abacus"},
		"huge dim":     {Circuit: CircuitSpec{Dims: []int{100000}, Ops: []OpSpec{{Gate: "dft", Targets: []int{0}}}}},
		"huge width":   {Circuit: CircuitSpec{Dims: make([]int, MaxWires+1)}},
		"huge gate":    {Circuit: CircuitSpec{Dims: []int{64, 64}, Ops: []OpSpec{{Gate: "csum", Targets: []int{0, 1}}}}},
		"bad noise":    {Circuit: CircuitSpec{Dims: []int{3}}, Backend: "density-matrix", Noise: &NoiseSpec{Damping: 2.0}},
		"neg noise":    {Circuit: CircuitSpec{Dims: []int{3}}, Backend: "density-matrix", Noise: &NoiseSpec{Dephasing: -0.5}},
		"neg shots":    {Circuit: CircuitSpec{Dims: []int{3}}, Shots: -5},
		"huge shots":   {Circuit: CircuitSpec{Dims: []int{3}}, Shots: MaxShots + 1},
		"huge workers": {Circuit: CircuitSpec{Dims: []int{3}}, Shots: 8, Workers: MaxWorkers + 1},
		"double noise": {Circuit: CircuitSpec{Dims: []int{3}}, Noise: &NoiseSpec{Damping: 1e-3}, DeriveNoiseDim: 3},
	} {
		_, status := postJob(t, ts.URL+"/v1/jobs", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, status)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPDerivedNoiseTrajectory(t *testing.T) {
	_, ts := newTestServer(t)
	req := ghzRequest()
	req.Backend = "trajectory"
	req.DeriveNoiseDim = 3
	req.Workers = 2
	seed := int64(7)
	req.Seed = &seed
	view, status := postJob(t, ts.URL+"/v1/jobs?wait=1", req)
	if status != http.StatusOK {
		t.Fatalf("submit status = %d (view %+v)", status, view)
	}
	if view.State != "done" || view.Result == nil {
		t.Fatalf("view = %+v", view)
	}
	if view.Result.Backend != "trajectory" || view.Result.Seed != seed {
		t.Errorf("result = %+v", view.Result)
	}
	if countTotal(view.Result.Counts) != req.Shots {
		t.Errorf("counts total = %d, want %d", countTotal(view.Result.Counts), req.Shots)
	}
}

func countTotal(counts map[string]int) int {
	n := 0
	for _, v := range counts {
		n += v
	}
	return n
}

// TestShotBatchIsIgnored: shot_batch is deprecated and does nothing. A
// trajectory request that sends it resolves to the same options digest
// as one without it and answers with byte-identical result JSON, while
// a value over MaxShotBatch is still a 400 with the same message.
func TestShotBatchIsIgnored(t *testing.T) {
	s := newTestService(t, Config{CacheSize: -1})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	seed := int64(5)
	plain := ghzRequest()
	plain.Backend = "trajectory"
	plain.Noise = &NoiseSpec{Depol1: 0.02, Damping: 0.01}
	plain.Seed = &seed
	batched := plain
	batched.ShotBatch = 32

	po, err := plain.Options(s.Processor())
	if err != nil {
		t.Fatal(err)
	}
	bo, err := batched.Options(s.Processor())
	if err != nil {
		t.Fatal(err)
	}
	if core.OptionsDigest(po...) != core.OptionsDigest(bo...) {
		t.Fatal("shot_batch changed the options digest")
	}

	post := func(req JobRequest) (int, map[string]json.RawMessage) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fields map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, fields
	}
	status, want := post(plain)
	if status != http.StatusOK || len(want["result"]) == 0 {
		t.Fatalf("plain request: status %d, body %v", status, want)
	}
	status, got := post(batched)
	if status != http.StatusOK || string(got["result"]) != string(want["result"]) {
		t.Fatalf("shot_batch 32: status %d, result\n%s\nwant\n%s", status, got["result"], want["result"])
	}
	if string(got["cached"]) == "true" {
		t.Fatal("the second run came from the result cache, so the comparison proves nothing")
	}

	batched.ShotBatch = MaxShotBatch + 1
	status, fields := post(batched)
	var detail httpapi.ErrorDetail
	if err := json.Unmarshal(fields["error"], &detail); err != nil {
		t.Fatal(err)
	}
	if want := "serve: 4097 shot_batch exceeds the limit of 4096"; status != http.StatusBadRequest || detail.Message != want {
		t.Fatalf("shot_batch 4097: status %d, message %q; want 400, %q", status, detail.Message, want)
	}
}
