package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The audit log is an append-only JSONL record of every /explain and
// /grade outcome — including recovered panics with their stacks — so a
// crash, a dispute, or a regression can be replayed from what the server
// actually served (the reenactment idea of Arab et al.): feed the file
// back through Replay (cmd/ratestd -replay) and the deterministic fields
// of each outcome must reproduce byte-for-byte.
//
// Deterministic fields: status, grade, counterexample size/ids, witness.
// Non-deterministic fields (timings, seq, time, cache hits, degraded
// level, queue-position-dependent outcomes like budget_exceeded / shed /
// draining and recovered panics) are recorded for forensics but excluded
// from replay comparison.

// RoleFrontend marks audit entries written by the cluster frontend.
const RoleFrontend = "frontend"

// AuditEntry is one JSONL record.
type AuditEntry struct {
	Seq      int64     `json:"seq"`
	Time     time.Time `json:"time"`
	Endpoint string    `json:"endpoint"`
	Tenant   string    `json:"tenant,omitempty"`

	// Cluster provenance. Role is "" for a standalone or worker process and
	// "frontend" for the cluster frontend; RequestID is the frontend-
	// assigned X-Ratest-Request-Id joining the frontend's entry with the
	// worker entries for the same request; Attempt is the 1-based attempt
	// that produced a worker entry (or, on a frontend entry, the total
	// attempts spent); Worker is the worker that served a frontend entry.
	Role      string `json:"role,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
	Worker    string `json:"worker,omitempty"`

	// The replayable request payload (exactly one is set, matching
	// Endpoint).
	Request      *ExplainRequest `json:"request,omitempty"`
	GradeRequest *GradeRequest   `json:"grade_request,omitempty"`

	// Session entries. SessionID is the id the request addressed (or the
	// id create assigned); SessionPath is the revision path the server
	// took; the payloads match the /session and /session/{id}/revise
	// endpoints. Session entries replay in log order through a per-log id
	// mapping (a replay server assigns fresh ids).
	SessionID     string                `json:"session_id,omitempty"`
	SessionPath   string                `json:"session_path,omitempty"`
	SessionCreate *SessionCreateRequest `json:"session_create,omitempty"`
	SessionRevise *SessionReviseRequest `json:"session_revise,omitempty"`

	// Outcome.
	HTTPStatus int      `json:"http_status"`
	Status     string   `json:"status"`
	Grade      string   `json:"grade,omitempty"`
	Degraded   string   `json:"degraded,omitempty"`
	CESize     int      `json:"ce_size,omitempty"`
	CEIDs      []int    `json:"ce_ids,omitempty"`
	Witness    []string `json:"witness,omitempty"`
	Error      string   `json:"error,omitempty"`
	Panic      string   `json:"panic,omitempty"`
	Stack      string   `json:"stack,omitempty"`
	ElapsedMS  float64  `json:"elapsed_ms"`
}

// auditLog serializes entries to one writer. A nil *auditLog is valid and
// discards everything, so the hot path never branches on configuration.
type auditLog struct {
	mu      sync.Mutex
	w       io.Writer
	f       *os.File // non-nil when we own the file (Sync/Close)
	seq     atomic.Int64
	dropped atomic.Int64 // entries lost to write errors
}

// newAuditLog builds the logger: an explicit writer wins (tests), else a
// path is opened append-only, else logging is off.
func newAuditLog(path string, w io.Writer) (*auditLog, error) {
	if w != nil {
		return &auditLog{w: w}, nil
	}
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening audit log: %w", err)
	}
	return &auditLog{w: f, f: f}, nil
}

// append writes one entry, stamping seq and time. Write failures drop the
// entry (and count it) rather than failing the request: the audit log is
// an observer, not a participant.
func (a *auditLog) append(e *AuditEntry) {
	if a == nil {
		return
	}
	e.Seq = a.seq.Add(1)
	e.Time = time.Now().UTC()
	line, err := json.Marshal(e)
	if err != nil {
		a.dropped.Add(1)
		return
	}
	line = append(line, '\n')
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.w.Write(line); err != nil {
		a.dropped.Add(1)
	}
}

// Flush forces the log to stable storage (no-op for non-file writers).
func (a *auditLog) Flush() error {
	if a == nil || a.f == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.f.Sync()
}

// Close flushes and closes the log.
func (a *auditLog) Close() error {
	if a == nil {
		return nil
	}
	if err := a.Flush(); err != nil {
		return err
	}
	if a.f != nil {
		return a.f.Close()
	}
	return nil
}

func (a *auditLog) counters() (seq, dropped int64) {
	if a == nil {
		return 0, 0
	}
	return a.seq.Load(), a.dropped.Load()
}

// sessionReplayable reports whether a session entry's outcome is
// deterministic enough to assert on. Budget exhaustion, shedding, draining
// and panics are load-dependent — and for a revision, leave the original
// session's commit state ambiguous — so they poison the session instead.
func sessionReplayable(e *AuditEntry) bool {
	if e.Panic != "" || e.Stack != "" || e.Degraded != "" {
		return false
	}
	switch e.Endpoint {
	case "/session":
		return e.SessionCreate != nil && (e.Status == StatusOK || e.Status == StatusAgree)
	case "/session/revise":
		return e.SessionRevise != nil && (e.Status == StatusOK || e.Status == StatusAgree)
	case "/session/get":
		return e.Status == StatusOK || e.Status == StatusAgree
	case "/session/delete":
		return e.Status == StatusDeleted
	}
	return false
}

// sessionOutcomeOf mirrors sessionAuditOf's deterministic projection.
func sessionOutcomeOf(resp *SessionResponse) replayOutcome {
	out := replayOutcome{Status: resp.Status}
	switch resp.Status {
	case StatusOK:
		out.Grade = "fail"
		out.CESize = resp.Size12 + resp.Size21
		if w := append(append([]string{}, resp.Witness12...), resp.Witness21...); len(w) > 0 {
			out.Witness = w
		}
	case StatusAgree:
		out.Grade = "pass"
	}
	return out
}

// sessionReplayer re-runs session entries in log order: creates rebuild
// sessions on the replay server (which assigns fresh ids), an id map keyed
// by (source log, original id) translates every subsequent entry, and a
// non-replayable or mismatching entry poisons its session so the remaining
// entries for it are skipped instead of reported as cascade mismatches.
type sessionReplayer struct {
	srv      *Server
	idmap    map[string]string
	poisoned map[string]bool
}

func newSessionReplayer(srv *Server) *sessionReplayer {
	return &sessionReplayer{srv: srv, idmap: map[string]string{}, poisoned: map[string]bool{}}
}

func (sr *sessionReplayer) replay(logIdx int, e *AuditEntry, rep *ReplayReport,
	mismatch func(e *AuditEntry, kind string, got, want replayOutcome)) {
	ctx := context.Background()
	key := fmt.Sprintf("%d/%s", logIdx, e.SessionID)
	compare := func(resp *SessionResponse) bool {
		rep.Replayed++
		got, want := sessionOutcomeOf(resp), outcomeOf(e)
		if reflect.DeepEqual(got, want) {
			rep.Matched++
			return true
		}
		mismatch(e, "session", got, want)
		return false
	}
	if e.Endpoint == "/session" {
		if !sessionReplayable(e) {
			sr.poisoned[key] = true
			rep.Skipped++
			return
		}
		_, resp := sr.srv.sessionCreate(ctx, e.SessionCreate, e.Tenant)
		if resp.SessionID != "" {
			sr.idmap[key] = resp.SessionID
		}
		if !compare(resp) || resp.SessionID == "" {
			sr.poisoned[key] = true
		}
		return
	}
	if sr.poisoned[key] {
		rep.Skipped++
		return
	}
	newID, ok := sr.idmap[key]
	if !ok || !sessionReplayable(e) {
		sr.poisoned[key] = true
		rep.Skipped++
		return
	}
	var resp *SessionResponse
	switch e.Endpoint {
	case "/session/revise":
		_, resp = sr.srv.sessionRevise(ctx, newID, e.SessionRevise, e.Tenant)
	case "/session/get":
		_, resp = sr.srv.sessionGet(ctx, newID)
	case "/session/delete":
		_, resp = sr.srv.sessionDelete(newID)
		delete(sr.idmap, key)
	default:
		rep.Skipped++
		return
	}
	if !compare(resp) {
		sr.poisoned[key] = true
	}
}

// replayOutcome is the deterministic projection of an entry that a replay
// must reproduce byte-for-byte.
type replayOutcome struct {
	Status  string   `json:"status"`
	Grade   string   `json:"grade,omitempty"`
	CESize  int      `json:"ce_size,omitempty"`
	CEIDs   []int    `json:"ce_ids,omitempty"`
	Witness []string `json:"witness,omitempty"`
}

func outcomeOf(e *AuditEntry) replayOutcome {
	return replayOutcome{Status: e.Status, Grade: e.Grade, CESize: e.CESize, CEIDs: e.CEIDs, Witness: e.Witness}
}

// replayable reports whether an entry's outcome is deterministic enough to
// assert on: load-dependent outcomes (budget exhaustion, shedding,
// draining refusals), injected/recovered panics and malformed requests
// replay as whatever they replay as.
func replayable(e *AuditEntry) bool {
	if e.Request == nil && e.GradeRequest == nil {
		return false
	}
	if e.Panic != "" || e.Stack != "" {
		return false
	}
	// A degraded outcome ran a different (clamped / solver-free) pipeline
	// than the recorded request describes; an unloaded replay server would
	// run the full one.
	if e.Degraded != "" {
		return false
	}
	switch e.Status {
	case StatusOK, StatusAgree:
		return true
	}
	return false
}

// ReplayReport summarizes a Replay run.
type ReplayReport struct {
	Total      int // entries read
	Replayed   int // deterministic entries re-run
	Matched    int
	Mismatched int
	Skipped    int // non-deterministic or non-request entries
	Joined     int // frontend entries join-verified against worker entries
	Errors     []string
}

// ReadAuditLog parses one JSONL audit stream into entries (blank lines are
// skipped).
func ReadAuditLog(r io.Reader) ([]AuditEntry, error) {
	var out []AuditEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e AuditEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return out, fmt.Errorf("audit line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("reading audit log: %w", err)
	}
	return out, nil
}

// Replay re-runs an audit-log corpus against srv and compares each
// deterministic outcome byte-for-byte with the logged one. The server
// should be configured like the original (same instance caps; budgets
// only matter for entries that exhausted them, which are skipped). Returns
// an error only for corpus-level problems; per-entry mismatches are
// reported in the report.
func Replay(r io.Reader, srv *Server, progress io.Writer) (*ReplayReport, error) {
	return ReplayLogs([]io.Reader{r}, srv, progress)
}

// ReplayLogs replays a set of audit logs together — typically the cluster
// frontend's log plus the logs of the workers it routed to. Worker (and
// standalone) entries are re-run through srv exactly as in Replay. Every
// deterministic frontend entry is additionally join-verified: a worker
// entry with the same frontend-assigned request id must exist and carry
// the identical deterministic outcome, proving the frontend returned what
// some worker actually computed — regardless of which replica or retry
// attempt produced it. When only a frontend log is supplied (worker logs
// lost), its entries still carry the request payloads and are re-run
// directly instead of joined.
func ReplayLogs(logs []io.Reader, srv *Server, progress io.Writer) (*ReplayReport, error) {
	rep := &ReplayReport{}
	var frontend, workers []AuditEntry
	var workerLog []int // source log of each worker entry (session id scope)
	for i, r := range logs {
		entries, err := ReadAuditLog(r)
		if err != nil {
			return rep, fmt.Errorf("log %d: %w", i+1, err)
		}
		for _, e := range entries {
			if e.Role == RoleFrontend {
				frontend = append(frontend, e)
			} else {
				workers = append(workers, e)
				workerLog = append(workerLog, i)
			}
		}
	}
	rep.Total = len(frontend) + len(workers)

	mismatch := func(e *AuditEntry, kind string, got, want replayOutcome) {
		rep.Mismatched++
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		rep.Errors = append(rep.Errors, fmt.Sprintf("%s seq %d (%s): got %s, want %s", kind, e.Seq, e.Endpoint, gb, wb))
		if progress != nil {
			fmt.Fprintf(progress, "MISMATCH %s seq %d (%s):\n  got  %s\n  want %s\n", kind, e.Seq, e.Endpoint, gb, wb)
		}
	}
	rerun := func(e *AuditEntry, kind string) {
		if !replayable(e) {
			rep.Skipped++
			return
		}
		rep.Replayed++
		got, want := srv.replayEntry(e), outcomeOf(e)
		if reflect.DeepEqual(got, want) {
			rep.Matched++
		} else {
			mismatch(e, kind, got, want)
		}
	}

	// Session entries replay strictly in log order (state carries across
	// entries); stateless explain/grade entries re-run independently.
	sessions := newSessionReplayer(srv)
	for i := range workers {
		if strings.HasPrefix(workers[i].Endpoint, "/session") {
			sessions.replay(workerLog[i], &workers[i], rep, mismatch)
			continue
		}
		rerun(&workers[i], "worker")
	}

	if len(workers) == 0 {
		// Frontend log alone: no join possible, but the entries are
		// self-contained requests — replay them directly.
		for i := range frontend {
			rerun(&frontend[i], "frontend")
		}
		return rep, nil
	}

	// Join: index worker outcomes by request id, then verify each
	// deterministic frontend outcome against them.
	byID := map[string][]replayOutcome{}
	for _, e := range workers {
		if e.RequestID != "" {
			byID[e.RequestID] = append(byID[e.RequestID], outcomeOf(&e))
		}
	}
	for i := range frontend {
		e := &frontend[i]
		if !replayable(e) || e.RequestID == "" {
			rep.Skipped++
			continue
		}
		want := outcomeOf(e)
		matched := false
		for _, got := range byID[e.RequestID] {
			if reflect.DeepEqual(got, want) {
				matched = true
				break
			}
		}
		if matched {
			rep.Joined++
			rep.Matched++
		} else if len(byID[e.RequestID]) == 0 {
			rep.Mismatched++
			msg := fmt.Sprintf("join seq %d (%s): no worker entry for request id %s", e.Seq, e.Endpoint, e.RequestID)
			rep.Errors = append(rep.Errors, msg)
			if progress != nil {
				fmt.Fprintln(progress, "MISMATCH "+msg)
			}
		} else {
			mismatch(e, "join", byID[e.RequestID][0], want)
		}
	}
	return rep, nil
}

// replayEntry re-runs one logged request through the same pipeline the
// handlers use (without HTTP or re-audit) and projects its outcome.
func (srv *Server) replayEntry(e *AuditEntry) replayOutcome {
	ctx := context.Background()
	var resp *ExplainResponse
	var grade string
	if e.GradeRequest != nil {
		_, g := srv.grade(ctx, e.GradeRequest, e.Tenant)
		resp, grade = &g.ExplainResponse, g.Grade
	} else {
		_, resp = srv.explain(ctx, e.Request, e.Tenant)
	}
	out := replayOutcome{Status: resp.Status, Grade: grade}
	if ce := resp.Counterexample; ce != nil {
		out.CESize = ce.Size
		out.CEIDs = ce.IDs
		out.Witness = ce.Witness
	}
	return out
}
