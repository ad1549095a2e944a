package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/course"
)

const (
	refQ   = `project[name, major](select[dept = 'CS'](Student join Registration))`
	wrongQ = `project[name, major](Student join Registration)`
)

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any, into any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode
}

func courseSpec(size int) InstanceSpec {
	return InstanceSpec{Kind: "course", Size: size, Seed: 1}
}

// jsonBody marshals a request body for tests that need the raw
// *http.Response (headers, status line).
func jsonBody(t *testing.T, body any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func decodeBody(t *testing.T, resp *http.Response, into any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var body map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body = %v", body)
	}
}

// A found counterexample must verify against the same instance generated
// locally, and the response must carry the rendered relations.
func TestExplainFindsVerifiedCounterexample(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp ExplainResponse
	code := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Q1: refQ, Q2: wrongQ, Instance: courseSpec(500),
	}, &resp)
	if code != http.StatusOK || resp.Status != StatusOK {
		t.Fatalf("explain = %d / %q (%s), want 200 / ok", code, resp.Status, resp.Error)
	}
	if resp.Counterexample == nil || resp.Counterexample.Size == 0 {
		t.Fatal("no counterexample in response")
	}
	if resp.Stats == nil || resp.Stats.Algorithm == "" {
		t.Fatal("no stats in response")
	}
	if len(resp.Counterexample.Relations) == 0 || resp.Counterexample.Rendered == "" {
		t.Fatal("counterexample not rendered")
	}

	// Rebuild the instance the server used and verify the id set server-side
	// decisions are real, not just well-formed JSON.
	db := course.GenerateDB(500, 1)
	keep := map[ratest.TupleID]bool{}
	for _, id := range resp.Counterexample.IDs {
		keep[ratest.TupleID(id)] = true
	}
	sub := db.Subinstance(keep)
	q1, q2 := ratest.MustParseQuery(refQ), ratest.MustParseQuery(wrongQ)
	eq, err := ratest.Equivalent(q1, q2, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatalf("returned ids %v are not a counterexample", resp.Counterexample.IDs)
	}
}

// A repeated identical request must hit both the plan and instance caches,
// and /stats must expose the hit counts.
func TestRepeatRequestHitsCaches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := ExplainRequest{Q1: refQ, Q2: wrongQ, Instance: courseSpec(500)}
	var first, second ExplainResponse
	postJSON(t, ts.URL+"/explain", req, &first)
	if first.Cache == nil || first.Cache.PlanQ1 != "miss" || first.Cache.Instance != "miss" {
		t.Fatalf("first request cache = %+v, want misses", first.Cache)
	}
	// Whitespace variants of the same query must share the plan entry.
	req.Q1 = "  " + strings.ReplaceAll(refQ, " ", "\n ")
	postJSON(t, ts.URL+"/explain", req, &second)
	if second.Cache == nil || second.Cache.PlanQ1 != "hit" || second.Cache.PlanQ2 != "hit" || second.Cache.Instance != "hit" {
		t.Fatalf("second request cache = %+v, want hits", second.Cache)
	}
	if second.Status != StatusOK {
		t.Fatalf("second request status = %q (%s)", second.Status, second.Error)
	}

	var stats struct {
		PlanCache     cacheStats `json:"plan_cache"`
		InstanceCache cacheStats `json:"instance_cache"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.PlanCache.Hits < 2 || stats.InstanceCache.Hits < 1 {
		t.Fatalf("stats = %+v, want recorded hits", stats)
	}
	if stats.PlanCache.Misses < 2 || stats.InstanceCache.Misses < 1 {
		t.Fatalf("stats = %+v, want recorded misses", stats)
	}
}

// Evicted plans must be transparently re-parsed: correctness never depends
// on cache residency.
func TestPlanCacheEvictionStaysCorrect(t *testing.T) {
	srv, ts := newTestServer(t, Config{PlanCacheSize: 2})
	pairs := [][2]string{
		{refQ, wrongQ},
		{`project[name](Student)`, `project[name](select[major = 'CS'](Student))`},
		{`project[course](Registration)`, `project[course](select[dept = 'CS'](Registration))`},
	}
	run := func(p [2]string) ExplainResponse {
		var resp ExplainResponse
		code := postJSON(t, ts.URL+"/explain", ExplainRequest{Q1: p[0], Q2: p[1], Instance: courseSpec(500)}, &resp)
		if code != http.StatusOK || resp.Status != StatusOK {
			t.Fatalf("explain(%q vs %q) = %d / %q (%s)", p[0], p[1], code, resp.Status, resp.Error)
		}
		return resp
	}
	first := run(pairs[0])
	for _, p := range pairs[1:] {
		run(p)
	}
	if srv.plans.Len() > 2 {
		t.Fatalf("plan cache grew past its cap: %d", srv.plans.Len())
	}
	// The first pair was evicted; rerunning it must miss and still answer
	// identically.
	again := run(pairs[0])
	if again.Cache.PlanQ1 != "miss" {
		t.Fatalf("expected evicted plan to miss, got %+v", again.Cache)
	}
	if fmt.Sprint(again.Counterexample.IDs) != fmt.Sprint(first.Counterexample.IDs) {
		t.Fatalf("eviction changed the answer: %v vs %v", again.Counterexample.IDs, first.Counterexample.IDs)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  ExplainRequest
	}{
		{"bad q1", ExplainRequest{Q1: "project[(", Q2: wrongQ, Instance: courseSpec(100)}},
		{"bad q2", ExplainRequest{Q1: refQ, Q2: "join join", Instance: courseSpec(100)}},
		{"empty q", ExplainRequest{Q1: refQ, Instance: courseSpec(100)}},
		{"no instance kind", ExplainRequest{Q1: refQ, Q2: wrongQ}},
		{"bad instance kind", ExplainRequest{Q1: refQ, Q2: wrongQ, Instance: InstanceSpec{Kind: "nope"}}},
		{"oversized instance", ExplainRequest{Q1: refQ, Q2: wrongQ, Instance: courseSpec(10_000_000)}},
		{"empty inline", ExplainRequest{Q1: refQ, Q2: wrongQ, Instance: InstanceSpec{Kind: "inline"}}},
	}
	for _, tc := range cases {
		var resp ExplainResponse
		code := postJSON(t, ts.URL+"/explain", tc.req, &resp)
		if code != http.StatusBadRequest || resp.Status != StatusError || resp.Error == "" {
			t.Errorf("%s: got %d / %q (%s), want 400 / error", tc.name, code, resp.Status, resp.Error)
		}
	}

	// Non-JSON body and wrong method.
	resp, err := http.Post(ts.URL+"/explain", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d, want 400", resp.StatusCode)
	}
	get, err := http.Get(ts.URL + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /explain = %d, want 405", get.StatusCode)
	}
}

func TestAgreeingQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp ExplainResponse
	code := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Q1: refQ, Q2: refQ, Instance: courseSpec(200),
	}, &resp)
	if code != http.StatusOK || resp.Status != StatusAgree {
		t.Fatalf("identical queries = %d / %q (%s), want 200 / agree", code, resp.Status, resp.Error)
	}
	if resp.Counterexample != nil {
		t.Fatal("agree response carries a counterexample")
	}
}

// A 50ms budget on a deliberately large instance must come back as a
// budget_exceeded JSON response (not a 500, not a hang) with partial stats
// and an unknown solver status.
func TestBudgetExceeded(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	q4 := `project[name, major](select[dept = 'CS'](Student join Registration)) diff project[name, major](select[dept = 'ECON'](Student join Registration))`
	q6 := `project[name, major](select[dept = 'CS'](Student join Registration)) diff project[name, major](select[dept <> 'CS'](Student join Registration))`
	var resp ExplainResponse
	done := make(chan int, 1)
	go func() {
		done <- postJSON(t, ts.URL+"/explain", ExplainRequest{
			Q1: q4, Q2: q6, Instance: courseSpec(100_000), TimeoutMS: 50,
		}, &resp)
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("budget-exceeded request = %d, want 200", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("budgeted request hung")
	}
	if resp.Status != StatusBudgetExceeded {
		t.Fatalf("status = %q (%s), want budget_exceeded", resp.Status, resp.Error)
	}
	if resp.Stats == nil || resp.Stats.SolverStatus != "unknown" {
		t.Fatalf("stats = %+v, want partial stats with unknown solver status", resp.Stats)
	}
	if n := srvBudgetCount(srv); n != 1 {
		t.Fatalf("budget_exceeded counter = %d, want 1", n)
	}
}

func srvBudgetCount(srv *Server) int64 {
	return srv.budgetExceeded.Load()
}

func TestGrade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inst := courseSpec(500)

	var pass GradeResponse
	postJSON(t, ts.URL+"/grade", GradeRequest{Question: "q1", Q: refQ, Instance: inst}, &pass)
	if pass.Status != StatusAgree || pass.Grade != "pass" {
		t.Fatalf("correct submission = %q/%q (%s), want agree/pass", pass.Status, pass.Grade, pass.Error)
	}

	var fail GradeResponse
	postJSON(t, ts.URL+"/grade", GradeRequest{Question: "q1", Q: wrongQ, Instance: inst}, &fail)
	if fail.Status != StatusOK || fail.Grade != "fail" {
		t.Fatalf("wrong submission = %q/%q (%s), want ok/fail", fail.Status, fail.Grade, fail.Error)
	}
	if fail.Counterexample == nil || fail.Counterexample.Size == 0 {
		t.Fatal("failing grade carries no counterexample")
	}

	var bad GradeResponse
	if code := postJSON(t, ts.URL+"/grade", GradeRequest{Question: "q99", Q: refQ}, &bad); code != http.StatusBadRequest {
		t.Fatalf("unknown question = %d, want 400", code)
	}
	var tpch GradeResponse
	if code := postJSON(t, ts.URL+"/grade", GradeRequest{Question: "q1", Q: refQ, Instance: InstanceSpec{Kind: "tpch"}}, &tpch); code != http.StatusBadRequest {
		t.Fatalf("tpch grading = %d, want 400", code)
	}
}

// Concurrent clients mixing cached and uncached work must all get correct,
// independent answers (this is the -race coverage for the shared caches,
// admission and counters).
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	type job struct {
		q1, q2 string
		want   string
	}
	jobs := []job{
		{refQ, wrongQ, StatusOK},
		{refQ, refQ, StatusAgree},
		{`project[name](Student)`, `project[name](select[major = 'CS'](Student))`, StatusOK},
		{wrongQ, wrongQ, StatusAgree},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				j := jobs[(g+i)%len(jobs)]
				var resp ExplainResponse
				code := postJSON(t, ts.URL+"/explain", ExplainRequest{
					Q1: j.q1, Q2: j.q2, Instance: courseSpec(500),
				}, &resp)
				if code != http.StatusOK || resp.Status != j.want {
					errs <- fmt.Errorf("goroutine %d: %q vs %q = %d/%q (%s), want %q",
						g, j.q1, j.q2, code, resp.Status, resp.Error, j.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var stats struct {
		Admission map[string]int64 `json:"admission"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Admission["in_flight"] != 0 || stats.Admission["waiting"] != 0 {
		t.Fatalf("admission leaked: %+v", stats.Admission)
	}
}

// Admission must refuse a request whose budget expires while queued, and
// release slots exactly once.
func TestAdmission(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrent: 1})
	// Occupy the only slot.
	if !srv.admit(context.Background(), "a") {
		t.Fatal("admit failed with a free slot")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if srv.admit(ctx, "b") {
		t.Fatal("admit succeeded with the slot occupied and the deadline expiring")
	}
	srv.release()
	if !srv.admit(context.Background(), "b") {
		t.Fatal("admit failed after release")
	}
	srv.release()
	if n := srv.inFlight.Load(); n != 0 {
		t.Fatalf("in-flight leaked: %d", n)
	}
	if n := srv.waiting.Load(); n != 0 {
		t.Fatalf("waiting leaked: %d", n)
	}
}

func TestBudgetClamp(t *testing.T) {
	srv := mustNew(t, Config{DefaultTimeout: 10 * time.Second, MaxTimeout: 30 * time.Second})
	if d := srv.budget(0); d != 10*time.Second {
		t.Fatalf("default budget = %v", d)
	}
	if d := srv.budget(500); d != 500*time.Millisecond {
		t.Fatalf("explicit budget = %v", d)
	}
	if d := srv.budget(10 * 60 * 1000); d != 30*time.Second {
		t.Fatalf("clamped budget = %v", d)
	}
}

// Inline instances are request-private, parsed from the text format, and
// never cached.
func TestInlineInstance(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	data := `relation S(a: int)
1
2

relation T(a: int)
1
`
	var resp ExplainResponse
	code := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Q1: "S", Q2: "T", Instance: InstanceSpec{Kind: "inline", Data: data},
	}, &resp)
	if code != http.StatusOK || resp.Status != StatusOK {
		t.Fatalf("inline explain = %d / %q (%s)", code, resp.Status, resp.Error)
	}
	if resp.Counterexample.Size != 1 {
		t.Fatalf("counterexample size = %d, want 1 (the tuple S(2))", resp.Counterexample.Size)
	}
	if srv.instances.Len() != 0 {
		t.Fatal("inline instance leaked into the cache")
	}
}

// The opt-in explain_plan field must carry the join planner's decisions:
// a three-leaf natural-join chain on the course schema is a planned,
// acyclic region with semi-joins, and plan-cache entries must be keyed per
// instance (the same query against a different instance is a fresh miss).
// TestExplainTinyTPCH: a TPC-H instance whose scale factor asks for more
// partsupp pairs than exist (sf 0.0002: 160 wanted, 120 possible) is
// generated and explained like any other, not spun on forever.
func TestExplainTinyTPCH(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp ExplainResponse
	code := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Q1:       "project[ps_partkey](partsupp)",
		Q2:       "project[ps_partkey](select[ps_availqty > 5000](partsupp))",
		Instance: InstanceSpec{Kind: "tpch", SF: 0.0002, Seed: 1},
	}, &resp)
	if code != http.StatusOK || (resp.Status != StatusOK && resp.Status != StatusAgree) {
		t.Fatalf("explain = %d / %q (%s), want 200 with an answer", code, resp.Status, resp.Error)
	}
}

func TestExplainPlanField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := `project[name](Student join Registration join Student)`
	var resp ExplainResponse
	code := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Q1: q, Q2: q, Instance: courseSpec(300), ExplainPlan: true,
	}, &resp)
	if code != http.StatusOK || resp.Status != StatusAgree {
		t.Fatalf("explain = %d / %q (%s), want 200 / agree", code, resp.Status, resp.Error)
	}
	if resp.Plan == nil || len(resp.Plan.Q1) == 0 {
		t.Fatalf("explain_plan requested but plan missing: %+v", resp.Plan)
	}
	reg := resp.Plan.Q1[0]
	if !reg.Planned || len(reg.Leaves) != 3 {
		t.Fatalf("region = %+v, want a planned 3-leaf region", reg)
	}
	if !reg.Acyclic || reg.SemiJoins == 0 {
		t.Fatalf("region = %+v, want the acyclic semi-join path to fire", reg)
	}
	if len(reg.Joins) != 2 || reg.Joins[0].EstRows <= 0 {
		t.Fatalf("joins = %+v, want 2 joins with positive estimates", reg.Joins)
	}

	// Same query, different named instance: the plan cache must miss (entries
	// are keyed by instance), then hit on repeat.
	var resp2 ExplainResponse
	postJSON(t, ts.URL+"/explain", ExplainRequest{Q1: q, Q2: q, Instance: courseSpec(400)}, &resp2)
	if resp2.Cache.PlanQ1 != "miss" {
		t.Fatalf("plan cache for new instance = %q, want miss", resp2.Cache.PlanQ1)
	}
	postJSON(t, ts.URL+"/explain", ExplainRequest{Q1: q, Q2: q, Instance: courseSpec(400)}, &resp2)
	if resp2.Cache.PlanQ1 != "hit" {
		t.Fatalf("repeated plan cache lookup = %q, want hit", resp2.Cache.PlanQ1)
	}

	// Without explain_plan the field stays absent.
	var resp3 ExplainResponse
	postJSON(t, ts.URL+"/explain", ExplainRequest{Q1: q, Q2: q, Instance: courseSpec(300)}, &resp3)
	if resp3.Plan != nil {
		t.Fatalf("plan field present without explain_plan: %+v", resp3.Plan)
	}
}

// Inline instances are request-private: their plan-cache entries are keyed
// by query text alone and stay statistics-free, and explain_plan still
// works by planning per request against the inline data.
func TestExplainPlanInlineInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := `
relation R(a: int, b: int)
1, 1
2, 2
relation S(b: int, c: int)
1, 10
2, 20
relation T(c: int, d: int)
10, 100
`
	q := `project[a](R join S join T)`
	var resp ExplainResponse
	code := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Q1: q, Q2: q, Instance: InstanceSpec{Kind: "inline", Data: data}, ExplainPlan: true,
	}, &resp)
	if code != http.StatusOK || resp.Status != StatusAgree {
		t.Fatalf("explain = %d / %q (%s), want 200 / agree", code, resp.Status, resp.Error)
	}
	if resp.Plan == nil || len(resp.Plan.Q1) == 0 || !resp.Plan.Q1[0].Planned {
		t.Fatalf("inline explain_plan missing or unplanned: %+v", resp.Plan)
	}
}

// A request no route takes gets the same structured error shape as every
// other failure: JSON with status "error", 404 for an unknown path and 405
// (with Allow) for a wrong method on a session route.
func TestUnroutedIsStructured(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		method, path string
		code         int
		allow        string
	}{
		{http.MethodPost, "/nope", http.StatusNotFound, ""},
		{http.MethodPut, "/session/s1", http.StatusMethodNotAllowed, "DELETE, GET, HEAD"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body ExplainResponse
		decodeBody(t, resp, &body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || body.Status != StatusError || body.Error == "" {
			t.Errorf("%s %s = %d / %q (%s), want %d / error", tc.method, tc.path, resp.StatusCode, body.Status, body.Error, tc.code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}
