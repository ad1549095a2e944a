package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
)

// Stateful live-grading sessions: POST /session prepares a resident
// core.LiveSession (retained delta state over a private clone of the
// instance) and returns its id; POST /session/{id}/revise streams instance
// edits (insert/delete/update) or query edits at it, re-grading each one
// incrementally — ApplyDelta+Commit for instance edits, one re-prepare for
// query edits, full re-evaluation only for plan pairs the delta subsystem
// refuses. GET /session/{id} reads the current grade; DELETE /session/{id}
// releases the state. Sessions live in a bounded LRU: creating past the cap
// silently evicts the least recently used session, whose subsequent
// revisions answer structured 404s (clients re-create). All revision paths
// are audited and deterministically replayable in order (see audit.go).

// SessionCreateRequest is the body of POST /session.
type SessionCreateRequest struct {
	// Q1 is the reference query, Q2 the query under revision, in the
	// textual RA syntax.
	Q1 string `json:"q1"`
	Q2 string `json:"q2"`
	// Instance names the database instance; the session works on a private
	// copy (its revisions never affect other requests or sessions).
	Instance InstanceSpec `json:"instance"`
	// Params binds @-parameters for the session's lifetime.
	Params map[string]string `json:"params,omitempty"`
	// TimeoutMS bounds the preparation work (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRows tightens the intermediate-row budget for the session.
	MaxRows int `json:"max_rows,omitempty"`
	// NoConstraints drops the instance's integrity constraints.
	NoConstraints bool `json:"no_constraints,omitempty"`
	// Tenant identifies the caller for rate limiting and fair queueing.
	Tenant string `json:"tenant,omitempty"`
}

// SessionOp is one instance edit inside a revision. Op is:
//
//   - "insert": add Tuple (value literals) to relation Rel;
//   - "delete": remove the tuple with id ID;
//   - "update": replace the tuple with id ID by Tuple in relation Rel
//     (lowered to delete+insert of the same revision).
type SessionOp struct {
	Op    string   `json:"op"`
	Rel   string   `json:"rel,omitempty"`
	ID    int      `json:"id,omitempty"`
	Tuple []string `json:"tuple,omitempty"`
}

// SessionReviseRequest is the body of POST /session/{id}/revise: either a
// batch of instance edits or a query edit (exactly one of Ops / Q2).
type SessionReviseRequest struct {
	Ops []SessionOp `json:"ops,omitempty"`
	// Q2 replaces the query under revision (a keystroke-level edit: the
	// session re-prepares once against its current instance).
	Q2        string `json:"q2,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
}

// SessionResponse is the body of every /session endpoint response. Status
// is "ok" when the queries disagree on the session's live instance (the
// difference is the grade), "agree" when they agree.
type SessionResponse struct {
	Status    string `json:"status"`
	SessionID string `json:"session_id,omitempty"`
	// Path reports how the revision was graded: "incremental" (ApplyDelta
	// on retained state), "reprepare" (query edit), or "fallback" (full
	// re-evaluation; the plan pair is not incrementally maintainable).
	Path string `json:"path,omitempty"`
	// Epoch counts the session's applied revisions; Incremental reports
	// whether retained delta state is resident; BaseSize is the live
	// instance size.
	Epoch       int  `json:"epoch"`
	Incremental bool `json:"incremental"`
	BaseSize    int  `json:"base_size"`
	// Size12/Size21 are |Q1−Q2| and |Q2−Q1| on the live instance, with a
	// bounded witness sample per direction.
	Size12      int      `json:"size12"`
	Size21      int      `json:"size21"`
	Witness12   []string `json:"witness12,omitempty"`
	Witness21   []string `json:"witness21,omitempty"`
	RetryAfterS int      `json:"retry_after_s,omitempty"`
	ElapsedMS   float64  `json:"elapsed_ms"`
	Error       string   `json:"error,omitempty"`
}

// session is one resident live-grading session. The mutex serializes all
// access to the LiveSession (which is not concurrency-safe); closed marks a
// deleted or evicted session whose in-flight requests must 404 instead of
// reviving state the server already dropped.
type session struct {
	id      string
	tenant  string
	created time.Time

	mu     sync.Mutex
	ls     *core.LiveSession
	closed bool
}

func (srv *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	srv.sessionReqs.Add(1)
	var req SessionCreateRequest
	if !srv.decode(w, r, &req) {
		return
	}
	tenant := TenantOf(req.Tenant, r.Header.Get("X-Tenant"))
	status, resp := srv.sessionCreate(r.Context(), &req, tenant)
	e := sessionAuditOf("/session", tenant, status, resp)
	e.SessionCreate = &req
	srv.Audit(e)
	writeResponse(w, status, resp.RetryAfterS, resp)
}

func (srv *Server) handleSessionRevise(w http.ResponseWriter, r *http.Request) {
	srv.sessionReqs.Add(1)
	var req SessionReviseRequest
	if !srv.decode(w, r, &req) {
		return
	}
	tenant := TenantOf(req.Tenant, r.Header.Get("X-Tenant"))
	status, resp := srv.sessionRevise(r.Context(), r.PathValue("id"), &req, tenant)
	e := sessionAuditOf("/session/revise", tenant, status, resp)
	e.SessionRevise = &req
	e.SessionID = r.PathValue("id")
	srv.Audit(e)
	writeResponse(w, status, resp.RetryAfterS, resp)
}

func (srv *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	srv.sessionReqs.Add(1)
	status, resp := srv.sessionGet(r.Context(), r.PathValue("id"))
	e := sessionAuditOf("/session/get", "", status, resp)
	e.SessionID = r.PathValue("id")
	srv.Audit(e)
	writeResponse(w, status, resp.RetryAfterS, resp)
}

func (srv *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	srv.sessionReqs.Add(1)
	status, resp := srv.sessionDelete(r.PathValue("id"))
	e := sessionAuditOf("/session/delete", "", status, resp)
	e.SessionID = r.PathValue("id")
	srv.Audit(e)
	writeResponse(w, status, resp.RetryAfterS, resp)
}

// sessionAuditOf projects a session response into an audit entry. The
// session-id the server assigned (create) or served rides along so replay
// can rebuild the id mapping; agree/disagree maps onto the same pass/fail
// grade vocabulary as /grade.
func sessionAuditOf(endpoint, tenant string, status int, resp *SessionResponse) *AuditEntry {
	e := &AuditEntry{
		Endpoint:    endpoint,
		Tenant:      tenant,
		HTTPStatus:  status,
		Status:      resp.Status,
		Error:       resp.Error,
		ElapsedMS:   resp.ElapsedMS,
		SessionID:   resp.SessionID,
		SessionPath: resp.Path,
	}
	switch resp.Status {
	case StatusOK:
		e.Grade = "fail"
		e.CESize = resp.Size12 + resp.Size21
		e.Witness = append(append([]string{}, resp.Witness12...), resp.Witness21...)
	case StatusAgree:
		e.Grade = "pass"
	}
	return e
}

// sessionAnswer returns the exit every session operation answers through:
// it stamps the session id (when the response has none) and the elapsed
// time, and counts the response and feeds the latency EWMA (Gate.finish).
func (srv *Server) sessionAnswer(start time.Time, id string) func(int, *SessionResponse) (int, *SessionResponse) {
	return func(code int, resp *SessionResponse) (int, *SessionResponse) {
		if resp.SessionID == "" {
			resp.SessionID = id
		}
		resp.ElapsedMS = srv.finish(start, resp.Status)
		return code, resp
	}
}

// sessionRefusal renders a gate refusal as a session response.
func sessionRefusal(r *Refusal) *SessionResponse {
	return &SessionResponse{Status: r.Status, RetryAfterS: r.RetryAfterS, Error: r.Error}
}

// fillGrade projects the session's current grade into a response.
func fillGrade(resp *SessionResponse, s *core.LiveSession, g *core.LiveGrade) {
	resp.Epoch = s.Epoch()
	resp.Incremental = s.Incremental()
	resp.BaseSize = s.BaseSize()
	resp.Size12, resp.Size21 = g.Size12, g.Size21
	resp.Witness12 = renderTuples(g.Witness12)
	resp.Witness21 = renderTuples(g.Witness21)
	if g.Agree {
		resp.Status = StatusAgree
	} else {
		resp.Status = StatusOK
	}
}

func renderTuples(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// sessionCreate builds a resident session: resolve the instance, clone it
// (sessions mutate their instance), prepare the retained delta state, grade
// once, and park the session in the LRU (possibly evicting the oldest).
func (srv *Server) sessionCreate(ctx context.Context, req *SessionCreateRequest, tenant string) (int, *SessionResponse) {
	done := srv.sessionAnswer(time.Now(), "")
	pass, refused := srv.Enter(ctx, tenant, req.TimeoutMS)
	if refused != nil {
		return done(refused.HTTPStatus, sessionRefusal(refused))
	}
	defer pass.Done()
	ctx = pass.Ctx

	fail := func(status int, err error) (int, *SessionResponse) {
		return done(status, &SessionResponse{Status: StatusError, Error: err.Error()})
	}
	inst, _, err := srv.resolve(req.Instance)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	instKey := req.Instance.CacheKey()
	p1, _, err := srv.plan(req.Q1, inst, instKey)
	if err != nil {
		return fail(http.StatusBadRequest, fmt.Errorf("parsing q1: %w", err))
	}
	p2, _, err := srv.plan(req.Q2, inst, instKey)
	if err != nil {
		return fail(http.StatusBadRequest, fmt.Errorf("parsing q2: %w", err))
	}
	p := core.Problem{
		Q1: p1.parsed, Q2: p2.parsed,
		// The session owns its instance: committed insertions mutate the
		// database, and the cached copy is shared with every other request.
		DB:      inst.db.Clone(),
		Params:  parseParams(req.Params),
		Ctx:     ctx,
		MaxRows: req.MaxRows,
	}
	if !req.NoConstraints {
		p.Constraints = inst.constraints
	}
	ls, err := core.NewLiveSession(p)
	if errors.Is(err, core.ErrBudget) || (err != nil && ctx.Err() != nil) {
		return done(http.StatusOK, &SessionResponse{Status: StatusBudgetExceeded, Error: err.Error()})
	}
	if err != nil {
		return fail(http.StatusUnprocessableEntity, err)
	}
	g, err := ls.Grade(ctx)
	if err != nil {
		if errors.Is(err, core.ErrBudget) || ctx.Err() != nil {
			return done(http.StatusOK, &SessionResponse{Status: StatusBudgetExceeded, Error: err.Error()})
		}
		return fail(http.StatusUnprocessableEntity, err)
	}
	sess := &session{
		id:      fmt.Sprintf("s%06d", srv.sessionSeq.Add(1)),
		tenant:  tenant,
		created: time.Now(),
		ls:      ls,
	}
	srv.sessions.Add(sess.id, sess)
	srv.sessionsCreated.Add(1)
	resp := &SessionResponse{SessionID: sess.id}
	fillGrade(resp, ls, g)
	return done(http.StatusOK, resp)
}

// sessionLookup fetches a live session, answering the structured 404 shared
// by every per-id endpoint when it is unknown, evicted, or deleted.
func (srv *Server) sessionLookup(id string) (*session, *SessionResponse) {
	sess, ok := srv.sessions.Get(id)
	if !ok {
		srv.sessionsNotFound.Add(1)
		return nil, &SessionResponse{
			Status: StatusError,
			Error:  fmt.Sprintf("unknown session %q (expired, evicted, or never created); POST /session to start a new one", id),
		}
	}
	return sess, nil
}

// sessionRevise applies one revision — a batch of instance edits or a query
// edit — to a resident session and re-grades it.
func (srv *Server) sessionRevise(ctx context.Context, id string, req *SessionReviseRequest, tenant string) (int, *SessionResponse) {
	done := srv.sessionAnswer(time.Now(), id)
	pass, refused := srv.Enter(ctx, tenant, req.TimeoutMS)
	if refused != nil {
		return done(refused.HTTPStatus, sessionRefusal(refused))
	}
	defer pass.Done()
	ctx = pass.Ctx

	fail := func(status int, err error) (int, *SessionResponse) {
		return done(status, &SessionResponse{Status: StatusError, Error: err.Error()})
	}
	if len(req.Ops) > 0 && req.Q2 != "" {
		return fail(http.StatusBadRequest, fmt.Errorf("a revision is either instance edits (ops) or a query edit (q2), not both"))
	}
	if len(req.Ops) == 0 && req.Q2 == "" {
		return fail(http.StatusBadRequest, fmt.Errorf("empty revision: set ops or q2"))
	}
	sess, notFound := srv.sessionLookup(id)
	if notFound != nil {
		return done(http.StatusNotFound, notFound)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// A panic mid-revision (isolated at the handler boundary) may leave the
	// LiveSession half-mutated; fail-stop the session rather than keep
	// serving possibly corrupted state. Runs before the unlock defer (LIFO),
	// so the poisoning is still under the session mutex.
	defer func() {
		if rec := recover(); rec != nil {
			sess.closed = true
			srv.sessions.Remove(id)
			srv.sessionsPoisoned.Add(1)
			panic(rec)
		}
	}()
	if sess.closed {
		srv.sessionsNotFound.Add(1)
		return done(http.StatusNotFound, &SessionResponse{Status: StatusError,
			Error: fmt.Sprintf("session %q was evicted; POST /session to start a new one", id)})
	}

	var path string
	var err error
	if req.Q2 != "" {
		var q2 ra.Node
		q2, err = raparser.Parse(req.Q2)
		if err != nil {
			return fail(http.StatusBadRequest, fmt.Errorf("parsing q2: %w", err))
		}
		path, err = sess.ls.ReviseQuery(ctx, q2)
	} else {
		var up core.SessionUpdate
		up, err = lowerOps(req.Ops)
		if err != nil {
			return fail(http.StatusBadRequest, err)
		}
		path, err = sess.ls.Update(ctx, up)
	}
	if err != nil {
		if errors.Is(err, core.ErrBudget) || ctx.Err() != nil {
			return done(http.StatusOK, &SessionResponse{Status: StatusBudgetExceeded, Error: err.Error()})
		}
		return fail(http.StatusUnprocessableEntity, err)
	}
	switch path {
	case core.PathIncremental:
		srv.revIncremental.Add(1)
	case core.PathReprepare:
		srv.revReprepare.Add(1)
	case core.PathFallback:
		srv.revFallback.Add(1)
	}
	g, err := sess.ls.Grade(ctx)
	if err != nil {
		// The revision is committed; only this grade read ran out of budget.
		if errors.Is(err, core.ErrBudget) || ctx.Err() != nil {
			return done(http.StatusOK, &SessionResponse{Status: StatusBudgetExceeded, Path: path, Error: err.Error()})
		}
		return fail(http.StatusUnprocessableEntity, err)
	}
	resp := &SessionResponse{Path: path}
	fillGrade(resp, sess.ls, g)
	return done(http.StatusOK, resp)
}

// lowerOps translates the wire ops into the core update: updates become
// delete+insert of the same revision, value literals parse like instance
// data.
func lowerOps(ops []SessionOp) (core.SessionUpdate, error) {
	var up core.SessionUpdate
	for i, op := range ops {
		switch op.Op {
		case "insert", "update":
			if op.Rel == "" {
				return core.SessionUpdate{}, fmt.Errorf("ops[%d]: %s needs rel", i, op.Op)
			}
			t := make(relation.Tuple, len(op.Tuple))
			for j, v := range op.Tuple {
				t[j] = relation.ParseValue(v)
			}
			if op.Op == "update" {
				up.Remove = append(up.Remove, relation.TupleID(op.ID))
			}
			up.Insert = append(up.Insert, engine.Insert{Rel: op.Rel, Tuple: t})
		case "delete":
			up.Remove = append(up.Remove, relation.TupleID(op.ID))
		default:
			return core.SessionUpdate{}, fmt.Errorf("ops[%d]: unknown op %q (want insert, delete, update)", i, op.Op)
		}
	}
	return up, nil
}

// sessionGet reads the current grade without revising.
func (srv *Server) sessionGet(ctx context.Context, id string) (int, *SessionResponse) {
	done := srv.sessionAnswer(time.Now(), id)
	sess, notFound := srv.sessionLookup(id)
	if notFound != nil {
		return done(http.StatusNotFound, notFound)
	}
	// A read is not admitted, but it keeps to the budget the ladder would
	// give a revision.
	budget := srv.budget(0)
	if srv.degradeLevel() >= degradeClamped {
		budget, _ = srv.clampBudgets(budget, 0)
	}
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		srv.sessionsNotFound.Add(1)
		return done(http.StatusNotFound, &SessionResponse{Status: StatusError,
			Error: fmt.Sprintf("session %q was evicted; POST /session to start a new one", id)})
	}
	g, err := sess.ls.Grade(ctx)
	if err != nil {
		if errors.Is(err, core.ErrBudget) || ctx.Err() != nil {
			return done(http.StatusOK, &SessionResponse{Status: StatusBudgetExceeded, Error: err.Error()})
		}
		return done(http.StatusUnprocessableEntity, &SessionResponse{Status: StatusError, Error: err.Error()})
	}
	resp := &SessionResponse{}
	fillGrade(resp, sess.ls, g)
	return done(http.StatusOK, resp)
}

// sessionDelete releases a session explicitly.
func (srv *Server) sessionDelete(id string) (int, *SessionResponse) {
	done := srv.sessionAnswer(time.Now(), id)
	sess, ok := srv.sessions.Remove(id)
	if !ok {
		srv.sessionsNotFound.Add(1)
		return done(http.StatusNotFound, &SessionResponse{Status: StatusError, Error: fmt.Sprintf("unknown session %q", id)})
	}
	sess.mu.Lock()
	sess.closed = true
	sess.mu.Unlock()
	srv.sessionsDeleted.Add(1)
	return done(http.StatusOK, &SessionResponse{Status: StatusDeleted})
}

// evictSession is the session LRU's pressure callback: mark the session
// closed so an in-flight revision holding the pointer cannot revive state
// the server already dropped.
func (srv *Server) evictSession(id string, sess *session) {
	sess.mu.Lock()
	sess.closed = true
	sess.mu.Unlock()
	srv.sessionsEvicted.Add(1)
}
