package serve

// The HTTP face of the service. One handler = one query session:
//
//	decode → resolve input → cache lookup → singleflight join →
//	admission (queue, floor wait) → the operator on the server's ledger →
//	marshal → cache fill → respond
//
// with the request context — carrying the client's deadline and
// disconnect — threaded through every stage, panic containment around the
// whole session, and typed errors on every exit path.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cacheagg"
	"cacheagg/internal/agg"
	"cacheagg/internal/core"
	"cacheagg/internal/runs"
	"cacheagg/internal/trace"
)

// Config assembles a Server. Registry is required; everything else
// defaults sensibly.
type Config struct {
	// Registry is the set of hosted datasets.
	Registry *Registry
	// Admission tunes the admission controller (budget, queue, wait).
	Admission AdmitConfig
	// Limits bounds request decoding.
	Limits Limits
	// QueryWorkers is the per-query worker count (0 = GOMAXPROCS).
	QueryWorkers int
	// QueryCacheBytes is the per-worker cache budget of each query
	// (0 = operator default). Small services sharing one box set this
	// well below the operator's 4 MiB default.
	QueryCacheBytes int
	// ResultCacheBytes bounds the result cache (0 disables caching).
	ResultCacheBytes int64
	// DefaultDeadline bounds queries that set no deadline_ms
	// (0 = no default deadline).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (0 = 60 s).
	MaxDeadline time.Duration
	// Tracer, when non-nil, observes every query's execution and is
	// exported through /metrics.
	Tracer *cacheagg.Tracer

	// IngestDir, when set, enables the /v1/ingest streaming API: each
	// session's durable checkpoints live in IngestDir/<session>. NewServer
	// resumes every unfinished session found there, and Drain seals each
	// open session's final epoch before returning.
	IngestDir string
	// IngestQueueDepth bounds each session's ingest queue in blocks
	// (0 = stream default).
	IngestQueueDepth int
	// IngestEpochMaxRows seals an epoch checkpoint after this many rows
	// per session (0 = stream default).
	IngestEpochMaxRows int64
	// IngestBudgetBytes caps each session's buffered-blocks + partial-state
	// memory (0 = unlimited). A starved budget turns into 429 backpressure
	// on push, never into unbounded growth.
	IngestBudgetBytes int64
	// IngestNoSync skips checkpoint fsyncs (tests and benchmarks only).
	IngestNoSync bool
}

// Server is the aggregation service. Build with NewServer, mount
// Handler() on an http.Server, call Drain on shutdown.
type Server struct {
	cfg     Config
	ctrl    *Controller
	cache   *resultCache
	metrics *Metrics
	mux     *http.ServeMux
	// tracer is Config.Tracer's recorder, nil without one.
	tracer trace.Tracer

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	sessMu   sync.Mutex
	sessions map[string]*ingestSession
}

// NewServer validates cfg and assembles the service.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: Config.Registry is required")
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 60 * time.Second
	}
	m := &Metrics{}
	s := &Server{
		cfg:     cfg,
		ctrl:    NewController(cfg.Admission, m),
		cache:   newResultCache(cfg.ResultCacheBytes, m),
		metrics: m,
		mux:     http.NewServeMux(),
	}
	if cfg.Tracer != nil {
		s.tracer = trace.RecorderOf(cfg.Tracer)
	}
	s.mux.HandleFunc("/v1/aggregate", s.handleAggregate)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.sessions = make(map[string]*ingestSession)
	if cfg.IngestDir != "" {
		if err := s.resumeSessions(); err != nil {
			return nil, err
		}
		s.metrics.IngestSessions.Store(int64(len(s.sessions)))
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counter set (tests, embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Ledger exposes the server's ledger (tests assert it drains to zero).
func (s *Server) Ledger() interface{ Reserved() int64 } { return s.ctrl.Ledger() }

// Drain gracefully shuts the service down: new work is rejected with a
// typed draining error, queued and running queries finish (or hit their
// deadlines), and Drain returns when the last session completes — or
// ctx's error if the drain deadline passes first.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.ctrl.SetDraining()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Query sessions have all completed; now seal every open ingest
		// session's buffered rows into a final epoch. Buffered blocks are
		// made durable, never dropped — a drained server's streams resume
		// exactly where producers left them.
		return s.drainSessions(ctx)
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with %d sessions in flight: %w",
			s.metrics.Inflight.Load(), ctx.Err())
	}
}

// enter registers a session against the drain barrier; false = draining.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	status, state := http.StatusOK, "serving"
	if draining {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"status":   state,
		"datasets": s.cfg.Registry.Names(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot()
	snap.QueueLength = s.ctrl.QueueLen()
	snap.LedgerReserved = s.ctrl.Ledger().Reserved()
	snap.LedgerWaiting = s.ctrl.Ledger().Waiting()
	out := map[string]any{"serve": snap}
	if s.cfg.Tracer != nil {
		out["trace"] = s.cfg.Tracer.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleAggregate runs one query session end to end. The outer recover is
// the per-session panic containment: a poisoned query produces a typed
// 500 (or a torn response when rows were already streamed) and the server
// lives on.
func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
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
	if !s.enter() {
		s.writeError(w, errf(ErrDraining, nil, "server is draining"))
		return
	}
	defer s.inflight.Done()
	s.metrics.Inflight.Add(1)
	defer s.metrics.Inflight.Add(-1)

	req, err := DecodeRequest(r.Body, s.cfg.Limits)
	if err != nil {
		s.writeError(w, err)
		return
	}
	input, ds, err := s.resolveInput(req)
	if err != nil {
		s.writeError(w, err)
		return
	}

	ctx := r.Context()
	deadline := time.Duration(req.DeadlineMillis) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	key := canonicalKey(req, &input)
	if !req.NoCache {
		if body, groups, ok := s.cache.get(key); ok {
			s.metrics.CacheHits.Add(1)
			s.respond(w, responseMeta{groups: groups, cache: "hit"}, body, start)
			return
		}
	}

	body, groups, meta, err := s.execute(ctx, req, &input, ds, key)
	if err != nil {
		s.writeError(w, err)
		s.observeOutcome(start)
		return
	}
	s.respond(w, responseMeta{groups: groups, cache: meta.cache, mode: meta.mode,
		queued: meta.queued, waited: meta.waited}, body, start)
}

// sessionMeta carries the how-was-it-run story into the response header
// line: mode is "spill" when the run spilled, empty otherwise.
type sessionMeta struct {
	cache  string
	mode   string
	queued bool
	waited time.Duration
}

// execute resolves the singleflight, admission and operator stages of one
// query. It returns the marshaled rows+trailer body.
func (s *Server) execute(ctx context.Context, req *Request, in *core.Input, ds *Dataset, key string) ([]byte, int, sessionMeta, error) {
	useCache := !req.NoCache && s.cache != nil
	for {
		var f *flight
		lead := true
		if useCache {
			// A hit may have landed between the first probe and now.
			if body, groups, ok := s.cache.get(key); ok {
				s.metrics.CacheHits.Add(1)
				return body, groups, sessionMeta{cache: "hit"}, nil
			}
			f, lead = s.cache.join(key)
		}
		if !lead {
			select {
			case <-f.done:
				if f.ok {
					s.metrics.CacheShared.Add(1)
					return f.body, f.groups, sessionMeta{cache: "shared"}, nil
				}
				// The leader failed for its own reasons (deadline,
				// cancellation, rejection); retry as a potential leader.
				continue
			case <-ctx.Done():
				return nil, 0, sessionMeta{}, s.mapContextErr(ctx)
			}
		}
		return s.leadFlight(ctx, req, in, ds, key, f, useCache)
	}
}

// leadFlight runs the leader side of a singleflight. The flight is
// finished on every exit path — including a panic unwinding through this
// frame — so followers can never hang on a dead leader.
func (s *Server) leadFlight(ctx context.Context, req *Request, in *core.Input, ds *Dataset, key string, f *flight, useCache bool) (body []byte, groups int, meta sessionMeta, err error) {
	completed := false
	if useCache {
		defer func() {
			if !completed {
				s.cache.finish(key, f, nil, 0, false)
			}
		}()
	}
	body, groups, meta, err = s.admitAndRun(ctx, req, in, ds)
	if useCache {
		s.cache.finish(key, f, body, groups, err == nil)
		completed = true
	}
	return body, groups, meta, err
}

// admitAndRun is the admission + execution stage of a leader session.
func (s *Server) admitAndRun(ctx context.Context, req *Request, in *core.Input, ds *Dataset) ([]byte, int, sessionMeta, error) {
	s.metrics.CacheMisses.Add(1)
	cfg := s.runConfig()
	floor := core.Floor(cfg, len(in.Keys), agg.NewLayout(in.Specs).Words)
	grant, err := s.ctrl.Admit(ctx, req.priority(), floor)
	if err != nil {
		if ctxErr := s.mapContextErr(ctx); ctxErr != nil && !isServeError(err) {
			return nil, 0, sessionMeta{}, ctxErr
		}
		return nil, 0, sessionMeta{}, err
	}
	s.metrics.Running.Add(1)
	defer s.metrics.Running.Add(-1)
	// Hand the floor to the run, which reserves its machinery on the same
	// ledger and waits there should another query take the room first.
	grant.Release()
	res, err := runContained(ctx, cfg, in)
	if err != nil {
		return nil, 0, sessionMeta{}, s.mapExecErr(ctx, err)
	}
	body, err := marshalBody(res, hasAvg(req), ds)
	if err != nil {
		s.metrics.InternalErrors.Add(1)
		return nil, 0, sessionMeta{}, errf(ErrInternal, err, "marshaling result: %v", err)
	}
	s.metrics.Succeeded.Add(1)
	meta := sessionMeta{cache: "miss", queued: grant.Queued, waited: grant.WaitedFor}
	if res.Spill.Buckets > 0 {
		s.metrics.Spilled.Add(1)
		meta.mode = "spill"
	}
	return body, res.Groups(), meta, nil
}

// runConfig is the operator config of every query. On a budgeted server
// the run reserves on the server's ledger and has a spill target in the
// system temp directory: over budget, it spills its largest buckets.
func (s *Server) runConfig() core.Config {
	cfg := core.Config{Workers: s.cfg.QueryWorkers, CacheBytes: s.cfg.QueryCacheBytes, Tracer: s.tracer}
	if gov := s.ctrl.Ledger(); gov.Budget() > 0 {
		cfg.Governor, cfg.Spill = gov, &core.Spill{}
	}
	return cfg
}

// runContained shields the server from a poisoned query: a panic anywhere
// in the operator call becomes a typed error. (The operator contains its
// own worker panics already; this is the serve layer's belt to that
// suspenders.)
func runContained(ctx context.Context, cfg core.Config, in *core.Input) (res *core.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, errf(ErrPanic, nil, "contained panic in query execution: %v", rec)
		}
	}()
	if testHookExecute != nil {
		testHookExecute()
	}
	return core.AggregateContext(ctx, cfg, in)
}

// testHookExecute, when set, runs at the top of every query execution.
// Tests use it to poison queries (panic containment) and to park
// executions (drain and cancellation races). Always nil in production.
var testHookExecute func()

// resolveInput turns the wire request into an operator input, bounds
// checking aggregate columns against the actual width. The resolved
// dataset (nil for inline queries) rides along so the response stage can
// decode general keys.
func (s *Server) resolveInput(req *Request) (core.Input, *Dataset, error) {
	var keys []uint64
	var cols [][]int64
	var ds *Dataset
	if req.Dataset != "" {
		d, err := s.cfg.Registry.Lookup(req.Dataset)
		if err != nil {
			return core.Input{}, nil, err
		}
		keys, cols, ds = d.Keys, d.Cols, d
	} else {
		keys, cols = req.Keys, req.Columns
	}
	for i, a := range req.Aggregates {
		k, _ := parseFunc(a.Func)
		if k != agg.Count && a.Col >= len(cols) {
			return core.Input{}, nil, errf(ErrBadRequest, nil,
				"aggregate %d: column %d out of range (input has %d)", i, a.Col, len(cols))
		}
	}
	return core.Input{Keys: keys, AggCols: cols, Specs: req.aggSpecs()}, ds, nil
}

// canonicalKey is the result-cache identity of a query: the input's
// identity plus the aggregate list. Budgets, workers, priorities and
// deadlines (and the ignored routine) are deliberately absent — they
// cannot change the result.
func canonicalKey(req *Request, in *core.Input) string {
	var b strings.Builder
	b.WriteString("v1\x00")
	if req.Dataset != "" {
		b.WriteString("d\x00")
		b.WriteString(req.Dataset)
	} else {
		b.WriteString("i\x00")
		b.WriteString(strconv.Itoa(len(in.Keys)))
		b.WriteByte('\x00')
		b.WriteString(strconv.FormatUint(hashColumns(in), 16))
	}
	for _, a := range req.Aggregates {
		b.WriteByte('\x00')
		b.WriteString(a.Func)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(a.Col))
	}
	return b.String()
}

// hashColumns digests inline input so ad-hoc queries cache too.
func hashColumns(in *core.Input) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		for _, c := range buf {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	for _, k := range in.Keys {
		mix(k)
	}
	for _, col := range in.AggCols {
		mix(uint64(len(col)))
		for _, v := range col {
			mix(uint64(v))
		}
	}
	return h
}

func hasAvg(req *Request) bool {
	for _, a := range req.Aggregates {
		if a.Func == "avg" {
			return true
		}
	}
	return false
}

// marshalBody renders the row and trailer lines of a response. Rows carry
// the group key and integer aggregates; float columns are included when
// an AVG was requested (exact averages). For general-key datasets every
// row additionally carries "k": the decoded original key values (one
// array element per key column; NULL encodes as JSON null). "g" stays the
// dense interned id — existing row parsers keep working unchanged.
func marshalBody(res *core.Result, withFloats bool, ds *Dataset) ([]byte, error) {
	rows := jsonlRows{groups: res.Keys, aggs: res.Aggs}
	if ds != nil && ds.GeneralKeys() {
		var err error
		rows.keys, err = ds.Interner.DecodeGroups(res.Keys, ds.KeyTypes)
		if err != nil {
			return nil, err
		}
	}
	if withFloats {
		rows.float = res.Float
	}
	return rows.body()
}

// responseMeta parameterizes the header line of a successful response.
type responseMeta struct {
	groups int
	cache  string
	mode   string
	queued bool
	waited time.Duration
}

// respond writes the JSONL success response: one header line, one line
// per group, one trailer line.
func (s *Server) respond(w http.ResponseWriter, meta responseMeta, body []byte, start time.Time) {
	w.Header().Set("Content-Type", "application/jsonl")
	w.Write(meta.appendHeader(nil))
	w.Write(body)
	s.observeOutcome(start)
}

// observeOutcome stamps the session latency histogram.
func (s *Server) observeOutcome(start time.Time) {
	s.metrics.ObserveLatency(time.Since(start))
}

// mapContextErr translates a finished context into the taxonomy: the
// request deadline maps to deadline_exceeded, a client disconnect to
// cancelled. nil when the context is still live.
func (s *Server) mapContextErr(ctx context.Context) error {
	switch ctx.Err() {
	case context.DeadlineExceeded:
		return errf(ErrDeadline, ctx.Err(), "query deadline exceeded")
	case context.Canceled:
		return errf(ErrCancelled, ctx.Err(), "client went away")
	default:
		return nil
	}
}

// mapExecErr classifies an operator failure.
func (s *Server) mapExecErr(ctx context.Context, err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		if mapped := s.mapContextErr(ctx); mapped != nil {
			return mapped
		}
	}
	var serr *Error
	if errors.As(err, &serr) {
		return serr // already typed (contained panic)
	}
	if errors.Is(err, core.ErrMemoryBudget) {
		// The run's machinery alone outgrew the server's budget: no spill
		// can free it, and no retry will fit it — a server sizing problem.
		s.metrics.RejectedBudget.Add(1)
		return errf(ErrBudgetUnavailable, err, "query machinery exceeds the budget: %v", err)
	}
	if errors.Is(err, runs.ErrSpillBudget) {
		s.metrics.InternalErrors.Add(1)
		return errf(ErrInternal, err, "spill budget exhausted: %v", err)
	}
	s.metrics.InternalErrors.Add(1)
	return errf(ErrInternal, err, "execution failed: %v", err)
}

// isServeError reports whether err is already a typed serve error.
func isServeError(err error) bool {
	var serr *Error
	return errors.As(err, &serr)
}

// writeError renders a typed error as the JSON error envelope, counting
// it in the taxonomy metrics and stamping Retry-After when hinted.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	serr, ok := err.(*Error)
	if !ok {
		var e *Error
		if !errors.As(err, &e) {
			e = errf(ErrInternal, err, "%v", err)
		}
		serr = e
	}
	switch serr.Code {
	case ErrBadRequest.Code, ErrRequestTooLarge.Code, ErrUnknownDataset.Code:
		s.metrics.RejectedBad.Add(1)
	case ErrDraining.Code:
		s.metrics.RejectedDrain.Add(1)
	case ErrDeadline.Code:
		s.metrics.DeadlineExpired.Add(1)
	case ErrCancelled.Code:
		s.metrics.Cancelled.Add(1)
	}
	if serr.RetryAfter > 0 {
		secs := int64(serr.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(serr.Status)
	json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{
		"code":           serr.Code,
		"detail":         serr.Detail,
		"retry_after_ms": serr.RetryAfter.Milliseconds(),
	}})
}
