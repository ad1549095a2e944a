package main

// The classroom workload: two students in a closed loop of rounds against one
// ratestd with default flags, over loopback HTTP. Each session grades a wrong
// submission, opens a live-grading session on it, streams revisions (mostly
// single-tuple Registration edits, with a query edit every few revisions),
// reads the session's grade, grades the final query, and deletes the
// session. One operation is one HTTP request, timed at the client from
// encoding the request to decoding the response.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
)

// The session mix below is an assumption, not measured traffic: nothing in
// the repository records how students use the deployed tool. Every
// classroom end-to-end metric but setup_s depends on it, through the share
// of cheap instance edits against grades, session creations and query
// edits.
const (
	classroomSize        = 1000 // ratestd's default instance size
	classroomPerQuestion = 4    // bank mutants kept per question
	students             = 2    // concurrent callers (nproc here)
	revisionsPerSession  = 12
	queryEditEvery       = 4  // every fourth revision edits the query
	scriptsPerStudent    = 32 // distinct session scripts each student cycles through
)

// Wire formats of the ratestd endpoints the workload calls.
type instanceSpec struct {
	Kind string `json:"kind"`
	Size int    `json:"size"`
	Seed int64  `json:"seed"`
}

type sessionOp struct {
	Op    string   `json:"op"`
	Rel   string   `json:"rel,omitempty"`
	ID    int      `json:"id,omitempty"`
	Tuple []string `json:"tuple,omitempty"`
}

type ceJSON struct {
	Size      int `json:"size"`
	Relations []struct {
		Name string     `json:"name"`
		Rows [][]string `json:"rows"`
	} `json:"relations"`
	IDs     []int    `json:"ids"`
	Witness []string `json:"witness"`
}

type response struct {
	Status         string  `json:"status"`
	Grade          string  `json:"grade"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	Error          string  `json:"error"`
	Counterexample *ceJSON `json:"counterexample"`
	Stats          *struct {
		TotalMS float64 `json:"total_ms"`
		Optimal bool    `json:"optimal"`
	} `json:"stats"`
	SessionID string   `json:"session_id"`
	Size12    int      `json:"size12"`
	Size21    int      `json:"size21"`
	Witness12 []string `json:"witness12"`
	Witness21 []string `json:"witness21"`
}

// revision is one revise request: instance edits or a query edit.
type revision struct {
	ops []sessionOp
	q2  string
}

// script is one student session, fixed in set-up from the seed.
type script struct {
	question  string
	q1, q2    string // reference and first submission
	revisions []revision
	final     string // the submission after the last query edit
}

// classInputs are the classroom's generated inputs.
type classInputs struct {
	db      *relation.Database
	scripts [students][]script
}

// buildScripts draws every student's session scripts from the seed. It
// tracks the tuple ids the session will hold, so deletes and updates name
// live tuples: the instance's tuples keep ids 1..|D|, and each inserted
// tuple takes the next id, in request order.
func buildScripts(db *relation.Database, found []course.WrongQuery, seed int64) [students][]script {
	correct := map[string]string{}
	byQ := map[string][]string{}
	for _, q := range course.Questions() {
		correct[q.ID] = q.Correct.String()
	}
	for _, w := range found {
		byQ[w.Question] = append(byQ[w.Question], w.Query.String())
	}
	var names []string
	for _, t := range db.Relation("Student").Tuples {
		names = append(names, t[0].AsString())
	}
	regs := db.Relation("Registration")
	var out [students][]script
	for s := 0; s < students; s++ {
		for k := 0; k < scriptsPerStudent; k++ {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(s*scriptsPerStudent+k)))
			// Each student rotates through every submission, the students
			// half a rotation apart, so that the heaviest sessions (q7's
			// cross products) do not run at the same time: measure plays
			// both students' k-th scripts in one round.
			w := found[(k+s*len(found)/students)%len(found)]
			sc := script{question: w.Question, q1: correct[w.Question], q2: w.Query.String()}
			live := map[relation.TupleID]relation.Tuple{}
			var ids []relation.TupleID
			taken := map[string]bool{}
			for i, t := range regs.Tuples {
				live[regs.ID(i)] = t
				ids = append(ids, regs.ID(i))
				taken[t[0].AsString()+"/"+t[1].AsString()] = true
			}
			next := relation.TupleID(db.Size())
			drop := func(i int) relation.TupleID {
				id := ids[i]
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				delete(live, id)
				return id
			}
			add := func(t relation.Tuple) {
				next++
				live[next] = t
				ids = append(ids, next)
			}
			q2 := sc.q2
			cands := append(append([]string{}, byQ[sc.question]...), sc.q1)
			for r := 0; r < revisionsPerSession; r++ {
				if r%queryEditEvery == queryEditEvery-1 {
					// A query edit: the question's next wrong query, or the
					// correct one, in a fixed rotation, so that the mix of
					// queries is the same on every seed.
					q2 = cands[(k+r/queryEditEvery+1)%len(cands)]
					sc.revisions = append(sc.revisions, revision{q2: q2})
					continue
				}
				var op sessionOp
				switch x := rng.Intn(4); {
				case x < 2: // insert a new registration of an existing student
					var t relation.Tuple
					for t == nil || taken[t[0].AsString()+"/"+t[1].AsString()] {
						dept := []string{"CS", "ECON", "MATH", "PHYS", "HIST"}[rng.Intn(5)]
						t = relation.Tuple{relation.String(names[rng.Intn(len(names))]),
							relation.String(fmt.Sprintf("%s%03d", dept, 100+rng.Intn(400)*2)),
							relation.String(dept), relation.Int(int64(40 + rng.Intn(61)))}
					}
					taken[t[0].AsString()+"/"+t[1].AsString()] = true
					add(t)
					op = sessionOp{Op: "insert", Rel: "Registration", Tuple: wire(t)}
				case x == 2: // drop a registration
					i := rng.Intn(len(ids))
					old := live[ids[i]]
					delete(taken, old[0].AsString()+"/"+old[1].AsString())
					op = sessionOp{Op: "delete", ID: int(drop(i))}
				default: // regrade a registration
					i := rng.Intn(len(ids))
					old := live[ids[i]]
					id := drop(i)
					t := relation.Tuple{old[0], old[1], old[2], relation.Int(int64(40 + rng.Intn(61)))}
					add(t)
					op = sessionOp{Op: "update", Rel: "Registration", ID: int(id), Tuple: wire(t)}
				}
				sc.revisions = append(sc.revisions, revision{ops: []sessionOp{op}})
			}
			sc.final = q2
			out[s] = append(out[s], sc)
		}
	}
	return out
}

func wire(t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.Quote()
	}
	return out
}

// replay applies a script's edits to a fresh copy of the instance, the way
// the session contract defines them: deletes by id, inserts taking the
// next id in request order, an update as a delete plus an insert.
func replay(base *relation.Database, sc script) *relation.Database {
	type row struct {
		rel string
		t   relation.Tuple
	}
	live := map[relation.TupleID]row{}
	for _, id := range base.AllIDs() {
		rel, t, _ := base.Lookup(id)
		live[id] = row{rel, t}
	}
	next := relation.TupleID(base.Size())
	for _, r := range sc.revisions {
		for _, op := range r.ops {
			if op.Op == "delete" || op.Op == "update" {
				delete(live, relation.TupleID(op.ID))
			}
			if op.Op == "insert" || op.Op == "update" {
				t := make(relation.Tuple, len(op.Tuple))
				for i, v := range op.Tuple {
					t[i] = relation.ParseValue(v)
				}
				next++
				live[next] = row{op.Rel, t}
			}
		}
	}
	out := relation.NewDatabase()
	for _, name := range base.Names() {
		out.CreateRelation(name, base.Relation(name).Schema)
	}
	ids := make([]relation.TupleID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out.Insert(live[id].rel, live[id].t)
	}
	return out
}

// httpOp is one completed request.
type httpOp struct {
	kind    string // grade, session_create, revise_edit, revise_query, session_get, session_delete
	start   time.Time
	latency time.Duration
	resp    response
	q       string // grade: the graded query
	script  [2]int // student, script index
	failed  bool
}

// daemon is a running ratestd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	tr     *tracer      // spans of the traced window
	opID   atomic.Int64 // operation ids for spans
}

func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("classroom needs --ratestd")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = io.Discard
	// ratestd must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, tr: newTracer(false), client: &http.Client{
		// ratestd answers budget_exceeded once a request's budget, opTimeout
		// by default, runs out; the client gives up at twice that.
		Timeout:   2 * opTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * students},
	}}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	d.stop()
	return nil, fmt.Errorf("ratestd did not become healthy on %s", addr)
}

// stop ends ratestd and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// call sends one request and decodes the response, timing both.
func (d *daemon) call(method, path string, body any) (response, time.Duration, error) {
	start := time.Now()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return response{}, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return response{}, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return response{}, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, 0, err
	}
	var out response
	if err := json.Unmarshal(b, &out); err != nil {
		return response{}, 0, fmt.Errorf("%s %s: %v", method, path, err)
	}
	lat := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return out, lat, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, out.Error)
	}
	return out, lat, nil
}

// runSession plays one script and returns its requests; it stops at the
// first failed request.
func (d *daemon) runSession(spec instanceSpec, sc script, who [2]int) ([]httpOp, error) {
	var ops []httpOp
	do := func(kind, method, path string, body any, q string) (response, error) {
		start := time.Now()
		r, lat, err := d.call(method, path, body)
		if err == nil && (r.Status == "error" || r.Status == "budget_exceeded" || r.Status == "shed") {
			err = fmt.Errorf("%s: status %s: %s", kind, r.Status, r.Error)
		}
		ops = append(ops, httpOp{kind: kind, start: start, latency: lat, resp: r, q: q, script: who, failed: err != nil})
		if d.tr.on && err == nil {
			// The server reports its own time and, for /grade, the core's;
			// they nest inside the client's interval.
			id := int(d.opID.Add(1))
			root := d.tr.record("http."+kind, id, -1, start, start.Add(lat))
			srv := d.tr.record("server."+kind, id, root, start, start.Add(time.Duration(r.ElapsedMS*float64(time.Millisecond))))
			if kind == "grade" && r.Stats != nil {
				d.tr.record("core.grade", id, srv, start, start.Add(time.Duration(r.Stats.TotalMS*float64(time.Millisecond))))
			}
		}
		return r, err
	}
	grade := func(q string) error {
		_, err := do("grade", "POST", "/grade", map[string]any{"question": sc.question, "q": q, "instance": spec}, q)
		return err
	}
	if err := grade(sc.q2); err != nil {
		return ops, err
	}
	r, err := do("session_create", "POST", "/session", map[string]any{"q1": sc.q1, "q2": sc.q2, "instance": spec}, "")
	if err != nil {
		return ops, err
	}
	id := r.SessionID
	for _, rev := range sc.revisions {
		kind, body := "revise_edit", map[string]any{"ops": rev.ops}
		if rev.ops == nil {
			kind, body = "revise_query", map[string]any{"q2": rev.q2}
		}
		if _, err := do(kind, "POST", "/session/"+id+"/revise", body, ""); err != nil {
			return ops, err
		}
	}
	if _, err := do("session_get", "GET", "/session/"+id, nil, ""); err != nil {
		return ops, err
	}
	if err := grade(sc.final); err != nil {
		return ops, err
	}
	_, err = do("session_delete", "DELETE", "/session/"+id, nil, "")
	return ops, err
}

// measure runs rounds until the window has lasted seconds. In a round each
// student plays its next script, both starting together, and the round ends
// when both have finished; next is the round's script index. Rounds keep the
// students half a rotation apart, so the sessions on q7's cross product
// never run at the same time. Students running free drift apart by chance,
// and how often those sessions overlapped, and with it ratestd's peak RSS,
// then varied from run to run.
func (d *daemon) measure(in *classInputs, spec instanceSpec, seconds float64, next *int) (*window, []httpOp) {
	w := &window{}
	var mu sync.Mutex
	var all []httpOp
	// ratestd's CPU time at every whole second of the window bounds the
	// one-second slices.
	var cpu []time.Duration
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	start := time.Now()
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			c, err := procCPU(d.cmd.Process.Pid)
			if err != nil {
				return
			}
			cpu = append(cpu, c)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	for time.Since(start).Seconds() < seconds {
		k := *next % scriptsPerStudent
		*next++
		var wg sync.WaitGroup
		for s := 0; s < students; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				ops, err := d.runSession(spec, in.scripts[s][k], [2]int{s, k})
				mu.Lock()
				all = append(all, ops...)
				w.attempted += len(ops)
				if err != nil {
					w.failed++
					fmt.Println("failed:", err)
				}
				mu.Unlock()
			}(s)
		}
		wg.Wait()
	}
	close(stop)
	sampler.Wait()
	for i := 0; i+1 < len(cpu); i++ {
		w.slices = append(w.slices, slice{dur: time.Second, cpu: cpu[i+1] - cpu[i]})
	}
	for _, op := range all {
		i := int(op.start.Add(op.latency).Sub(start) / time.Second)
		if i >= len(w.slices) {
			continue
		}
		w.slices[i].attempted++
		if !op.failed {
			w.slices[i].completed++
			w.slices[i].lat = append(w.slices[i].lat, op.latency)
		}
	}
	w.ceSizes = map[string]int{}
	for _, op := range all {
		if op.resp.Counterexample != nil {
			w.ceSizes[op.q] = op.resp.Counterexample.Size
		}
	}
	for _, op := range all {
		if !op.failed {
			w.lat = append(w.lat, op.latency)
		}
	}
	return w, all
}

func (d *daemon) stats() (map[string]any, error) {
	resp, err := d.client.Get(d.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// classSetUp generates the instance and the session scripts, starts
// ratestd, warms its caches with one grade per question, and runs one
// untimed warm-up session per student. Failed warm-up requests count in the
// result like those of the timed window.
func classSetUp(cfg config, spec instanceSpec) (*classInputs, *daemon, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	db := course.GenerateDB(spec.Size, spec.Seed)
	t.generate = time.Since(start).Seconds()
	b := time.Now()
	found, err := course.DiscoveredWrong(db, course.WrongQueryBank(db, classroomPerQuestion))
	if err != nil {
		return nil, nil, t, err
	}
	if len(found) == 0 {
		return nil, nil, t, fmt.Errorf("classroom: no discovered wrong queries")
	}
	in := &classInputs{db: db, scripts: buildScripts(db, found, cfg.seed)}
	t.bank = time.Since(b).Seconds()
	wu := time.Now()
	d, err := startDaemon(cfg.ratestd)
	if err != nil {
		return nil, nil, t, err
	}
	seen := map[string]bool{}
	for _, w := range found {
		if !seen[w.Question] {
			seen[w.Question] = true
			t.attempted++
			if _, _, err := d.call("POST", "/grade", map[string]any{"question": w.Question, "q": w.Query.String(), "instance": spec}); err != nil {
				t.failed++
				fmt.Println("failed: warming ratestd:", err)
			}
		}
	}
	for s := 0; s < students; s++ {
		ops, err := d.runSession(spec, in.scripts[s][scriptsPerStudent-1], [2]int{s, scriptsPerStudent - 1})
		t.attempted += len(ops)
		if err != nil {
			t.failed++
			fmt.Println("failed: warm-up session:", err)
		}
	}
	t.warmup = time.Since(wu).Seconds()
	t.total = time.Since(start).Seconds()
	return in, d, t, nil
}

func runClassroom(cfg config) (*result, error) {
	spec := instanceSpec{Kind: "course", Size: classroomSize, Seed: cfg.seed}
	var in *classInputs
	var d *daemon
	var times []setupTimes
	for i := 0; i < setupRepeats; i++ {
		var t setupTimes
		var err error
		if d != nil {
			d.stop()
		}
		if in, d, t, err = classSetUp(cfg, spec); err != nil {
			return nil, err
		}
		times = append(times, t)
	}
	defer d.stop()
	setupTotals, setupParts, setupAttempted, setupFailed := medianSetup(times)
	h := sha256.New()
	hashDB(h, in.db)
	counts := map[string]int{}
	var groups []string
	for s := range in.scripts {
		for _, sc := range in.scripts[s] {
			fmt.Fprintf(h, "%s\x00%s\x00%v\n", sc.q1, sc.q2, sc.revisions)
			if counts[sc.question] == 0 {
				groups = append(groups, sc.question)
			}
			counts[sc.question]++
		}
	}
	sort.Strings(groups)
	fingerprint(fmt.Sprintf("%x", h.Sum(nil))[:16], groups, counts)

	var next int
	res := &result{Attempted: setupAttempted, Failed: setupFailed}
	var all []httpOp
	if !cfg.trace {
		w, ops := d.measure(in, spec, cfg.seconds, &next)
		all = ops
		rss, err := peakRSS(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		res.Attempted += w.attempted
		res.Failed += w.failed
		res.Metrics = endToEnd(w, setupTotals, rss)
	} else {
		plain, ops := d.measure(in, spec, cfg.seconds/2, &next)
		s0, err := d.stats()
		if err != nil {
			return nil, err
		}
		tr := newTracer(true)
		d.tr = tr
		w, traced := d.measure(in, spec, cfg.seconds/2, &next)
		d.tr = newTracer(false)
		s1, err := d.stats()
		if err != nil {
			return nil, err
		}
		all = append(ops, traced...)
		res.Attempted += plain.attempted + w.attempted
		res.Failed += plain.failed + w.failed
		values := classLayers(tr, traced, s0, s1)
		for k, v := range setupParts {
			values[k] = v
		}
		for k, v := range replayInProcess(in, traced) {
			values[k] = v
		}
		res.Metrics = layerMetrics(values)
		fmt.Printf("tracing overhead: throughput %.4f/s untraced, %.4f/s traced (%+.2f%%)\n",
			plain.throughput(), w.throughput(), 100*(w.throughput()/plain.throughput()-1))
		path := fmt.Sprintf("%s/classroom-seed%d.jsonl", cfg.outDir, cfg.seed)
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}
	byKind := map[string][]float64{}
	for _, op := range all {
		byKind[op.kind] = append(byKind[op.kind], ms(op.latency))
	}
	fmt.Println("median latency per request kind:")
	for _, k := range []string{"grade", "session_create", "revise_edit", "revise_query", "session_get", "session_delete"} {
		fmt.Printf("  %-15s %10.3f ms (%d requests)\n", k, median(byKind[k]), len(byKind[k]))
	}
	res.Correct = checkClassroom(in, spec, all)
	return res, nil
}

// classLayers computes the server metrics from the traced window's spans:
// one per request, with the server's reported elapsed time (and, for
// /grade, its core time) as children. Request times are means per request
// of each kind; the kinds' total over all requests is the mean operation
// time.
func classLayers(tr *tracer, ops []httpOp, s0, s1 map[string]any) map[string]float64 {
	total, self := tr.totals()
	mean := func(name string) float64 {
		if n := tr.count(name); n > 0 {
			return ms(total[name]) / float64(n)
		}
		return 0
	}
	v := map[string]float64{
		"server.grade_ms":          mean("server.grade"),
		"server.grade_core_ms":     ms(total["core.grade"]) / float64(max(1, tr.count("server.grade"))),
		"server.revise_edit_ms":    mean("server.revise_edit"),
		"server.revise_query_ms":   mean("server.revise_query"),
		"server.session_create_ms": mean("server.session_create"),
	}
	var overhead time.Duration
	var sum float64
	for _, k := range []string{"grade", "session_create", "revise_edit", "revise_query", "session_get", "session_delete"} {
		overhead += self["http."+k]
		sum += ms(total["server."+k])
	}
	n := float64(len(ops))
	v["server.client_overhead_ms"] = ms(overhead) / n
	fmt.Printf("layer sum %.4f ms (server %.4f + client %.4f) = mean operation %.4f ms over %d traced requests\n",
		sum/n+ms(overhead)/n, sum/n, ms(overhead)/n, meanLatency(ops), len(ops))

	num := func(m map[string]any, path ...string) float64 {
		var x any = m
		for _, p := range path {
			mm, ok := x.(map[string]any)
			if !ok {
				return 0
			}
			x = mm[p]
		}
		f, _ := x.(float64)
		return f
	}
	delta := func(path ...string) float64 { return num(s1, path...) - num(s0, path...) }
	ratio := func(cache string) float64 {
		h, m := delta(cache, "hits"), delta(cache, "misses")
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	v["server.plan_cache_hit_ratio"] = ratio("plan_cache")
	v["server.instance_cache_hit_ratio"] = ratio("instance_cache")
	v["server.revisions_incremental"] = delta("sessions", "revisions", "incremental")
	v["server.revisions_reprepare"] = delta("sessions", "revisions", "reprepare")
	v["server.revisions_fallback"] = delta("sessions", "revisions", "fallback")
	return v
}

func meanLatency(ops []httpOp) float64 {
	var sum time.Duration
	for _, op := range ops {
		sum += op.latency
	}
	return ms(sum) / float64(len(ops))
}

// replayInProcess replays the traced window's sessions through
// core.LiveSession directly, timing each call, to split a revision's
// server time into the session's own work and serving.
func replayInProcess(in *classInputs, ops []httpOp) map[string]float64 {
	seen := map[[2]int]bool{}
	var create, update, grade, revise []time.Duration
	cons := course.Constraints()
	for _, op := range ops {
		if op.kind != "session_create" || seen[op.script] {
			continue
		}
		seen[op.script] = true
		sc := in.scripts[op.script[0]][op.script[1]]
		q1, q2 := raparser.MustParse(sc.q1), raparser.MustParse(sc.q2)
		ctx := context.Background()
		t := time.Now()
		ls, err := core.NewLiveSession(core.Problem{Q1: q1, Q2: q2, DB: in.db.Clone(), Constraints: cons, Ctx: ctx})
		if err != nil {
			continue
		}
		create = append(create, time.Since(t))
		timed := func(f func()) time.Duration { t := time.Now(); f(); return time.Since(t) }
		grade = append(grade, timed(func() { _, _ = ls.Grade(ctx) }))
		for _, rev := range sc.revisions {
			if rev.ops == nil {
				q := raparser.MustParse(rev.q2)
				revise = append(revise, timed(func() { _, _ = ls.ReviseQuery(ctx, q) }))
			} else {
				up := lower(rev.ops)
				update = append(update, timed(func() { _, _ = ls.Update(ctx, up) }))
			}
			grade = append(grade, timed(func() { _, _ = ls.Grade(ctx) }))
		}
	}
	mean := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		var s time.Duration
		for _, d := range ds {
			s += d
		}
		return ms(s) / float64(len(ds))
	}
	return map[string]float64{
		"core.session_create_ms":       mean(create),
		"core.session_update_ms":       mean(update),
		"core.session_grade_ms":        mean(grade),
		"core.session_revise_query_ms": mean(revise),
	}
}

// lower turns wire ops into a session update, as the session contract
// defines them.
func lower(ops []sessionOp) core.SessionUpdate {
	var up core.SessionUpdate
	for _, op := range ops {
		if op.Op == "delete" || op.Op == "update" {
			up.Remove = append(up.Remove, relation.TupleID(op.ID))
		}
		if op.Op == "insert" || op.Op == "update" {
			t := make(relation.Tuple, len(op.Tuple))
			for i, v := range op.Tuple {
				t[i] = relation.ParseValue(v)
			}
			up.Insert = append(up.Insert, engine.Insert{Rel: op.Rel, Tuple: t})
		}
	}
	return up
}

// checkClassroom checks every answer: each /grade against the reference
// evaluator on the benchmark's own regeneration of the instance, and each
// session's final grade against a from-scratch evaluation of the
// benchmark's replay of its edits onto a fresh copy of the instance.
func checkClassroom(in *classInputs, spec instanceSpec, ops []httpOp) bool {
	ref := course.GenerateDB(spec.Size, spec.Seed)
	cons := course.Constraints()
	correct := map[string]ra.Node{}
	for _, q := range course.Questions() {
		correct[q.ID] = q.Correct
	}
	ok := true
	fail := func(format string, args ...any) {
		fmt.Printf("check failed: "+format+"\n", args...)
		ok = false
	}
	checkedGrades, checkedSessions := map[string]bool{}, map[[2]int]bool{}
	for _, op := range ops {
		sc := in.scripts[op.script[0]][op.script[1]]
		switch op.kind {
		case "grade":
			key := op.q
			if op.resp.Counterexample != nil {
				key += fmt.Sprint(op.resp.Counterexample.IDs)
			}
			if checkedGrades[key] {
				continue
			}
			checkedGrades[key] = true
			q2, err := raparser.Parse(op.q)
			if err != nil {
				fail("grade: %v", err)
				continue
			}
			if err := checkGrade(ref, cons, correct[sc.question], q2, op.resp); err != nil {
				fail("grade %s %s: %v", sc.question, op.q, err)
			}
		case "session_get":
			if checkedSessions[op.script] {
				continue
			}
			checkedSessions[op.script] = true
			q1, q2 := raparser.MustParse(sc.q1), raparser.MustParse(sc.final)
			d12, d21, err := refDiffers(q1, q2, replay(ref, sc), nil)
			if err != nil {
				fail("session replay: %v", err)
				continue
			}
			r := op.resp
			agree := len(d12) == 0 && len(d21) == 0
			if r.Size12 != len(d12) || r.Size21 != len(d21) || (r.Status == "agree") != agree ||
				!sample(r.Witness12, d12) || !sample(r.Witness21, d21) {
				fail("session %v: server grade |Q1-Q2|=%d |Q2-Q1|=%d %s, replay %d %d",
					op.script, r.Size12, r.Size21, r.Status, len(d12), len(d21))
			}
		}
	}
	fmt.Printf("checked %d requests: %d distinct grades, %d session replays: ok=%v\n",
		len(ops), len(checkedGrades), len(checkedSessions), ok)
	return ok
}

// checkGrade checks a /grade answer: "fail" must carry a counterexample
// that passes checkCounterexample; "pass" must mean the reference evaluator
// finds the queries equal on the instance.
func checkGrade(ref *relation.Database, cons []relation.Constraint, q1, q2 ra.Node, r response) error {
	if r.Grade == "pass" {
		d12, d21, err := refDiffers(q1, q2, ref, nil)
		if err != nil {
			return err
		}
		if len(d12)+len(d21) > 0 {
			return fmt.Errorf("graded pass, but the queries differ on %d tuples", len(d12)+len(d21))
		}
		return nil
	}
	ce := r.Counterexample
	if r.Grade != "fail" || ce == nil {
		return fmt.Errorf("grade %q without a counterexample", r.Grade)
	}
	keep := map[relation.TupleID]bool{}
	ids := make([]relation.TupleID, len(ce.IDs))
	for i, id := range ce.IDs {
		ids[i] = relation.TupleID(id)
		keep[ids[i]] = true
	}
	sub := ref.Subinstance(keep)
	// The rows the server rendered must be the instance's tuples under
	// those ids.
	want := map[string]bool{}
	for _, name := range sub.Names() {
		for _, t := range sub.Relation(name).Tuples {
			want[name+":"+strings.Join(render(t), "|")] = true
		}
	}
	got := 0
	for _, rel := range ce.Relations {
		for _, row := range rel.Rows {
			if !want[rel.Name+":"+strings.Join(row, "|")] {
				return fmt.Errorf("row %v of %s is not the instance's tuple under the listed ids", row, rel.Name)
			}
			got++
		}
	}
	if got != len(want) || ce.Size != len(ids) {
		return fmt.Errorf("counterexample lists %d ids, size %d, and renders %d rows", len(ids), ce.Size, got)
	}
	var witness relation.Tuple
	for _, v := range ce.Witness {
		witness = append(witness, relation.ParseValue(v))
	}
	optimal := r.Stats != nil && r.Stats.Optimal
	return checkCounterexample(ref, cons, q1, q2, &core.Counterexample{DB: sub, IDs: ids, Witness: witness}, optimal)
}

func render(t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.String()
	}
	return out
}

// sample reports whether every witness string is a tuple of d.
func sample(ws []string, d []relation.Tuple) bool {
	in := map[string]bool{}
	for _, t := range d {
		in[t.String()] = true
	}
	for _, w := range ws {
		if !in[w] {
			return false
		}
	}
	return len(ws) <= len(d)
}
