package serve

// Streaming ingest sessions: the serving face of the durable stream
// subsystem. POST /v1/ingest carries one JSON operation per request —
// begin, push, seal, query, status, finish — against a named session
// whose checkpoints live under Config.IngestDir/<name>. Sessions survive
// process death: NewServer resumes every unfinished session it finds on
// disk, and Server.Drain seals each open session's final epoch instead of
// dropping buffered blocks, so a SIGTERM (or a SIGKILL plus restart)
// costs availability, never acknowledged-then-checkpointed data.
//
// Backpressure is typed end to end: a push that the stream refuses comes
// back as HTTP 429 with code "backpressure" and a Retry-After hint, the
// wire form of the library's *BackpressureError.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cacheagg"
	"cacheagg/internal/memgov"
)

// Ingest additions to the error taxonomy.
var (
	// ErrIngestDisabled rejects ingest operations on a server started
	// without an ingest directory.
	ErrIngestDisabled = &Error{Code: "ingest_disabled", Status: http.StatusNotFound}
	// ErrUnknownSession rejects an operation on a session the server
	// does not hold.
	ErrUnknownSession = &Error{Code: "unknown_session", Status: http.StatusNotFound}
	// ErrSessionExists rejects a begin for a session name already in use
	// (live, or durable on disk).
	ErrSessionExists = &Error{Code: "session_exists", Status: http.StatusConflict}
	// ErrStreamFinished rejects operations on a finished stream: its
	// result is final.
	ErrStreamFinished = &Error{Code: "stream_finished", Status: http.StatusConflict}
	// ErrBackpressure reports a push the stream cannot buffer right now.
	// 429 with a Retry-After header; the client backs off and retries —
	// nothing was lost and nothing was folded.
	ErrBackpressure = &Error{Code: "backpressure", Status: http.StatusTooManyRequests}
)

// ingestRequest is the wire form of one ingest operation.
type ingestRequest struct {
	// Session names the stream; required for every op.
	Session string `json:"session"`
	// Op is begin | push | seal | query | status | finish.
	Op string `json:"op"`
	// Aggregates configures a begin.
	Aggregates []AggRef `json:"aggregates,omitempty"`
	// KeyType configures a begin: "" or "uint64" for raw dense keys,
	// "string" for a string-keyed session whose pushes carry skeys.
	KeyType string `json:"key_type,omitempty"`
	// Keys/Columns carry a push's block. A push sets exactly one of Keys
	// (uint64 session) and SKeys (string session).
	Keys    []uint64  `json:"keys,omitempty"`
	SKeys   []string  `json:"skeys,omitempty"`
	Columns [][]int64 `json:"columns,omitempty"`
	// Window scopes a query to the last N sealed epochs (0 = all).
	Window int `json:"window,omitempty"`
}

// ingestSession pairs a live stream with its wire metadata. dict is nil
// for uint64-keyed sessions; string-keyed sessions intern pushed keys
// through it and decode result group ids back at query time.
type ingestSession struct {
	name   string
	stream *cacheagg.StreamAggregator
	hasAvg bool
	dict   *keyDict
}

func sessionHasAvg(aggs []cacheagg.AggSpec) bool {
	for _, a := range aggs {
		if a.Func == cacheagg.Avg {
			return true
		}
	}
	return false
}

// validSessionName rejects names that could escape the ingest directory
// or collide with its bookkeeping: path metacharacters, dots, emptiness.
func validSessionName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// resumeSessions restores every unfinished durable session under the
// ingest directory at boot. Finished streams stay on disk (their result
// is final) but are not live; directories with no committed checkpoint
// are skipped.
func (s *Server) resumeSessions() error {
	entries, err := os.ReadDir(s.cfg.IngestDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("serve: scan ingest dir: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() || !validSessionName(ent.Name()) {
			continue
		}
		st, err := cacheagg.ResumeStream(s.streamOptions(ent.Name(), nil))
		switch {
		case err == nil:
			dict, hasDict, derr := loadKeyDict(filepath.Join(s.cfg.IngestDir, ent.Name()), s.cfg.IngestNoSync)
			if derr != nil {
				st.Close()
				return fmt.Errorf("serve: resume ingest session %q: %w", ent.Name(), derr)
			}
			sess := &ingestSession{
				name:   ent.Name(),
				stream: st,
				hasAvg: sessionHasAvg(st.Aggregates()),
			}
			if hasDict {
				sess.dict = dict
			}
			s.sessions[ent.Name()] = sess
			s.metrics.IngestResumed.Add(1)
		case errors.Is(err, cacheagg.ErrNoCheckpoint), errors.Is(err, cacheagg.ErrStreamFinished):
			continue
		default:
			// A corrupt session must not take the whole server down with
			// it silently — but it also must not be silently skipped and
			// overwritten. Refuse to boot; the operator decides.
			return fmt.Errorf("serve: resume ingest session %q: %w", ent.Name(), err)
		}
	}
	return nil
}

// streamOptions builds the stream configuration for one session.
func (s *Server) streamOptions(name string, aggs []cacheagg.AggSpec) cacheagg.StreamOptions {
	return cacheagg.StreamOptions{
		Dir:               filepath.Join(s.cfg.IngestDir, name),
		Aggregates:        aggs,
		QueueDepth:        s.cfg.IngestQueueDepth,
		EpochMaxRows:      s.cfg.IngestEpochMaxRows,
		MemoryBudgetBytes: s.cfg.IngestBudgetBytes,
		Tracer:            s.cfg.Tracer,
		NoSync:            s.cfg.IngestNoSync,
	}
}

// lookupSession returns the named live session.
func (s *Server) lookupSession(name string) (*ingestSession, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[name]
	if !ok {
		return nil, errf(ErrUnknownSession, nil, "no session %q", name)
	}
	return sess, nil
}

// drainSessions seals every open session's buffered rows into a final
// epoch and closes the stream — the graceful half of the durability
// story: a SIGTERM loses nothing that was ever pushed successfully. The
// sessions stay on disk for the next process to resume.
func (s *Server) drainSessions(ctx context.Context) error {
	s.sessMu.Lock()
	sessions := make([]*ingestSession, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[string]*ingestSession)
	s.sessMu.Unlock()
	var errs []error
	for _, sess := range sessions {
		if err := sess.stream.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("session %q: %w", sess.name, err))
		}
		if sess.dict != nil {
			sess.dict.close()
		}
	}
	return errors.Join(errs...)
}

// decodeIngest reads and validates one ingest operation.
func decodeIngest(r io.Reader, lim Limits) (*ingestRequest, error) {
	lim = lim.withDefaults()
	body, err := io.ReadAll(io.LimitReader(r, lim.MaxBodyBytes+1))
	if err != nil {
		return nil, errf(ErrBadRequest, err, "reading request body: %v", err)
	}
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, errf(ErrRequestTooLarge, nil, "request body exceeds %d bytes", lim.MaxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req ingestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, errf(ErrBadRequest, err, "invalid ingest JSON: %v", err)
	}
	if err := checkTrailer(dec); err != nil {
		return nil, err
	}
	if !validSessionName(req.Session) {
		return nil, errf(ErrBadRequest, nil, "invalid session name %q (want [A-Za-z0-9_-]{1,64})", req.Session)
	}
	switch req.Op {
	case "begin":
		if len(req.Aggregates) == 0 {
			return nil, errf(ErrBadRequest, nil, "begin needs at least one aggregate")
		}
		switch req.KeyType {
		case "", "uint64", "string":
		default:
			return nil, errf(ErrBadRequest, nil,
				"unknown key_type %q (uint64 | string)", req.KeyType)
		}
		if len(req.Aggregates) > lim.MaxAggregates {
			return nil, errf(ErrBadRequest, nil, "%d aggregates exceed the limit of %d",
				len(req.Aggregates), lim.MaxAggregates)
		}
		for i, a := range req.Aggregates {
			if _, err := parseFunc(a.Func); err != nil {
				return nil, errf(ErrBadRequest, nil, "aggregate %d: %v", i, err)
			}
			if a.Col < 0 {
				return nil, errf(ErrBadRequest, nil, "aggregate %d: negative column %d", i, a.Col)
			}
		}
	case "push":
		if (len(req.Keys) == 0) == (len(req.SKeys) == 0) {
			return nil, errf(ErrBadRequest, nil,
				"push needs exactly one non-empty key block (keys or skeys)")
		}
		rows := len(req.Keys)
		if rows == 0 {
			rows = len(req.SKeys)
		}
		if rows > lim.MaxInlineRows {
			return nil, errf(ErrBadRequest, nil, "block exceeds %d rows", lim.MaxInlineRows)
		}
		for i, col := range req.Columns {
			if len(col) != rows {
				return nil, errf(ErrBadRequest, nil,
					"column %d has %d rows, keys have %d", i, len(col), rows)
			}
		}
	case "seal", "status", "finish":
	case "query":
		if req.Window < 0 {
			return nil, errf(ErrBadRequest, nil, "negative window %d", req.Window)
		}
	default:
		return nil, errf(ErrBadRequest, nil,
			"unknown op %q (begin | push | seal | query | status | finish)", req.Op)
	}
	return &req, nil
}

// handleIngest runs one ingest operation end to end, with the same panic
// containment, drain gating and typed-error discipline as query sessions.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.Panics.Add(1)
			s.writeError(w, errf(ErrPanic, nil, "contained panic: %v", rec))
		}
	}()
	if r.Method != http.MethodPost {
		s.writeError(w, errf(ErrBadRequest, nil, "use POST"))
		return
	}
	if s.cfg.IngestDir == "" {
		s.writeError(w, errf(ErrIngestDisabled, nil, "server started without -ingest-dir"))
		return
	}
	if !s.enter() {
		s.writeError(w, errf(ErrDraining, nil, "server is draining"))
		return
	}
	defer s.inflight.Done()
	s.metrics.Inflight.Add(1)
	defer s.metrics.Inflight.Add(-1)

	req, err := decodeIngest(r.Body, s.cfg.Limits)
	if err != nil {
		s.writeError(w, err)
		return
	}
	switch req.Op {
	case "begin":
		err = s.ingestBegin(w, req)
	case "push":
		err = s.ingestPush(w, req)
	case "seal":
		err = s.ingestSeal(r.Context(), w, req)
	case "query":
		err = s.ingestQuery(r.Context(), w, req)
	case "status":
		err = s.ingestStatus(w, req)
	case "finish":
		err = s.ingestFinish(r.Context(), w, req)
	}
	if err != nil {
		s.writeError(w, err)
	}
	s.observeOutcome(start)
}

func (s *Server) ingestBegin(w http.ResponseWriter, req *ingestRequest) error {
	specs := make([]cacheagg.AggSpec, len(req.Aggregates))
	for i, a := range req.Aggregates {
		// Validated in decodeIngest; cacheagg.Func numbers the functions
		// as agg.Kind does.
		k, _ := parseFunc(a.Func)
		specs[i] = cacheagg.AggSpec{Func: cacheagg.Func(k), Col: a.Col}
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if _, ok := s.sessions[req.Session]; ok {
		return errf(ErrSessionExists, nil, "session %q is live", req.Session)
	}
	// A string-keyed session creates its dictionary sidecar before the
	// stream: Begin tolerates a KEYDICT-only directory (it only rejects on
	// a checkpoint MANIFEST), and a crash between the two steps leaves a
	// directory that resume skips (no checkpoint) and a future begin
	// truncates.
	var dict *keyDict
	if req.KeyType == "string" {
		var err error
		dict, err = createKeyDict(filepath.Join(s.cfg.IngestDir, req.Session), s.cfg.IngestNoSync)
		if err != nil {
			return errf(ErrInternal, err, "create key dictionary: %v", err)
		}
	}
	st, err := cacheagg.BeginStream(s.streamOptions(req.Session, specs))
	if err != nil {
		if dict != nil {
			dict.close()
		}
		if strings.Contains(err.Error(), "use Resume") {
			return errf(ErrSessionExists, err,
				"session %q has durable state on disk (finish or remove it first)", req.Session)
		}
		return errf(ErrInternal, err, "begin stream: %v", err)
	}
	s.sessions[req.Session] = &ingestSession{
		name: req.Session, stream: st, hasAvg: sessionHasAvg(specs), dict: dict,
	}
	s.metrics.IngestSessions.Add(1)
	return writeIngestJSON(w, http.StatusOK, map[string]any{
		"ok": true, "session": req.Session,
	})
}

func (s *Server) ingestPush(w http.ResponseWriter, req *ingestRequest) error {
	sess, err := s.lookupSession(req.Session)
	if err != nil {
		return err
	}
	keys := req.Keys
	switch {
	case sess.dict != nil && len(req.SKeys) == 0:
		return errf(ErrBadRequest, nil, "session %q is string-keyed; push skeys", req.Session)
	case sess.dict == nil && len(req.SKeys) > 0:
		return errf(ErrBadRequest, nil, "session %q is uint64-keyed; push keys", req.Session)
	case sess.dict != nil:
		// Intern + durably append the dictionary BEFORE the block enters
		// the stream: any id a checkpoint can commit is already decodable.
		keys, err = sess.dict.encode(req.SKeys)
		if err != nil {
			return errf(ErrInternal, err, "intern string keys: %v", err)
		}
	}
	err = sess.stream.TryPush(cacheagg.Block{Keys: keys, Columns: req.Columns})
	if err != nil {
		return s.mapStreamErr(err)
	}
	s.metrics.IngestBlocks.Add(1)
	s.metrics.IngestRows.Add(int64(len(keys)))
	p := sess.stream.Progress()
	return writeIngestJSON(w, http.StatusOK, map[string]any{
		"ok": true, "rows_buffered": p.RowsBuffered, "rows_durable": p.RowsDurable,
	})
}

func (s *Server) ingestSeal(ctx context.Context, w http.ResponseWriter, req *ingestRequest) error {
	sess, err := s.lookupSession(req.Session)
	if err != nil {
		return err
	}
	epoch, err := sess.stream.Checkpoint(ctx)
	if err != nil {
		return s.mapStreamErr(err)
	}
	s.metrics.IngestSeals.Add(1)
	return writeIngestJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": epoch})
}

func (s *Server) ingestStatus(w http.ResponseWriter, req *ingestRequest) error {
	sess, err := s.lookupSession(req.Session)
	if err != nil {
		return err
	}
	p := sess.stream.Progress()
	st := sess.stream.Stats()
	return writeIngestJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"session":        req.Session,
		"epoch":          p.Epoch,
		"rows_durable":   p.RowsDurable,
		"blocks_durable": p.BlocksDurable,
		"rows_buffered":  p.RowsBuffered,
		"rows_ingested":  st.RowsIngested,
		"epochs_sealed":  st.EpochsSealed,
		"backpressure":   st.Backpressure,
	})
}

func (s *Server) ingestQuery(ctx context.Context, w http.ResponseWriter, req *ingestRequest) error {
	sess, err := s.lookupSession(req.Session)
	if err != nil {
		return err
	}
	res, err := sess.stream.Snapshot(ctx, req.Window)
	if err != nil {
		return s.mapStreamErr(err)
	}
	s.metrics.IngestQueries.Add(1)
	return s.respondStream(w, sess, res)
}

func (s *Server) ingestFinish(ctx context.Context, w http.ResponseWriter, req *ingestRequest) error {
	sess, err := s.lookupSession(req.Session)
	if err != nil {
		return err
	}
	res, err := sess.stream.Finish(ctx)
	if err != nil {
		return s.mapStreamErr(err)
	}
	s.sessMu.Lock()
	if _, ok := s.sessions[req.Session]; ok {
		delete(s.sessions, req.Session)
		s.metrics.IngestSessions.Add(-1)
	}
	s.sessMu.Unlock()
	err = s.respondStream(w, sess, res)
	if sess.dict != nil {
		sess.dict.close()
	}
	return err
}

// respondStream writes a snapshot as the JSONL result stream: header,
// one line per group, done trailer — the same shape and writer as
// /v1/aggregate responses, so the load harness validates both with one
// parser. Lines go out in chunks of about jsonlChunk bytes.
func (s *Server) respondStream(w http.ResponseWriter, sess *ingestSession, res *cacheagg.StreamResult) error {
	rows := jsonlRows{groups: res.Groups, aggs: res.Aggs}
	// Decode before committing the response: a dictionary gap is an error
	// response, not a truncated stream.
	if sess.dict != nil {
		skeys, err := sess.dict.decode(res.Groups)
		if err != nil {
			return errf(ErrInternal, err, "decode group keys: %v", err)
		}
		rows.keys = []cacheagg.KeyColumn{{Strings: skeys}}
	}
	if sess.hasAvg {
		rows.float = res.Float
	}
	// Until the first chunk is written, a failure is still a typed error
	// response (writeError replaces the content type).
	w.Header().Set("Content-Type", "application/jsonl")
	b := appendStreamHeader(make([]byte, 0, jsonlChunk+4096), res.Len(), res.Epochs, sess.name)
	committed := false
	for i := range res.Groups {
		var err error
		if b, err = rows.appendRow(b, i); err != nil {
			if committed {
				return nil // torn stream: the missing trailer tells the client
			}
			return errf(ErrInternal, err, "encoding snapshot: %v", err)
		}
		if len(b) >= jsonlChunk {
			committed = true
			if _, err := w.Write(b); err != nil {
				return nil // client went away mid-stream; nothing to map
			}
			b = b[:0]
		}
	}
	w.Write(appendTrailer(b, res.Len()))
	return nil
}

// mapStreamErr classifies a stream-layer failure into the taxonomy.
func (s *Server) mapStreamErr(err error) error {
	var bp *cacheagg.BackpressureError
	if errors.As(err, &bp) {
		s.metrics.IngestBackpressure.Add(1)
		return withRetry(errf(ErrBackpressure, err,
			"stream cannot buffer the block (%s full)", bp.Reason), bp.RetryAfter)
	}
	switch {
	case errors.Is(err, cacheagg.ErrStreamFinished), errors.Is(err, cacheagg.ErrStreamClosed):
		return errf(ErrStreamFinished, err, "%v", err)
	case errors.Is(err, memgov.ErrBudget):
		s.metrics.RejectedBudget.Add(1)
		return withRetry(errf(ErrBudgetUnavailable, err, "%v", err), time.Second)
	case errors.Is(err, context.DeadlineExceeded):
		return errf(ErrDeadline, err, "ingest deadline exceeded")
	case errors.Is(err, context.Canceled):
		return errf(ErrCancelled, err, "client went away")
	case errors.Is(err, cacheagg.ErrCorruptCheckpoint):
		s.metrics.InternalErrors.Add(1)
		return errf(ErrInternal, err, "checkpoint corruption: %v", err)
	default:
		s.metrics.InternalErrors.Add(1)
		return errf(ErrInternal, err, "ingest failed: %v", err)
	}
}

func writeIngestJSON(w http.ResponseWriter, status int, body map[string]any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
	return nil
}
