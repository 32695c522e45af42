package serve

// The wire request: one JSON object per query (the request body is a
// single JSONL line; the response is a JSONL stream, see server.go). The
// decoder is the server's first line of defense — it must reject hostile
// input with typed 4xx errors and never panic, a property pinned by
// FuzzServeRequest.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"cacheagg"
)

// Priority is the admission class of a query. Higher classes are admitted
// first and can displace queued lower-class work under overload.
type Priority int

const (
	// PriorityLow marks best-effort work: first to be shed.
	PriorityLow Priority = iota
	// PriorityNormal is the default class.
	PriorityNormal
	// PriorityHigh marks latency-sensitive work.
	PriorityHigh
)

// String returns the wire name of the priority.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	default:
		return "normal"
	}
}

func parsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	default:
		return 0, fmt.Errorf("unknown priority %q (low | normal | high)", s)
	}
}

// AggRef names one requested aggregate on the wire.
type AggRef struct {
	// Func is the aggregate function: count | sum | min | max | avg.
	Func string `json:"func"`
	// Col is the input column index (ignored for count).
	Col int `json:"col,omitempty"`
}

func parseFunc(s string) (cacheagg.Func, error) {
	switch s {
	case "count":
		return cacheagg.Count, nil
	case "sum":
		return cacheagg.Sum, nil
	case "min":
		return cacheagg.Min, nil
	case "max":
		return cacheagg.Max, nil
	case "avg":
		return cacheagg.Avg, nil
	default:
		return 0, fmt.Errorf("unknown aggregate func %q (count | sum | min | max | avg)", s)
	}
}

// Request is one aggregation query. Exactly one of Dataset (a server-side
// shared dataset) or Keys (small inline input) must be set.
type Request struct {
	// Dataset names a dataset registered with the server.
	Dataset string `json:"dataset,omitempty"`
	// Keys is an inline grouping column for ad-hoc queries; bounded by
	// Limits.MaxInlineRows.
	Keys []uint64 `json:"keys,omitempty"`
	// Columns are inline aggregate input columns (inline queries only).
	Columns [][]int64 `json:"columns,omitempty"`
	// Aggregates lists the requested aggregate output columns. Empty
	// computes the distinct groups.
	Aggregates []AggRef `json:"aggregates,omitempty"`
	// Priority is the admission class: low | normal | high ("" = normal).
	Priority string `json:"priority,omitempty"`
	// DeadlineMillis bounds the query's total time in the server —
	// queueing included. 0 means no client deadline (the server's
	// MaxWait still bounds the queued phase).
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// NoCache bypasses the result cache (read and fill).
	NoCache bool `json:"no_cache,omitempty"`
	// Routine is accepted for compatibility and ignored: there is one
	// engine and nothing to choose. It must still be one of
	// auto | partitioned | sort-spill (or "").
	Routine string `json:"routine,omitempty"`
}

func checkRoutine(s string) error {
	switch s {
	case "", "auto", "partitioned", "sort-spill":
		return nil
	default:
		return fmt.Errorf("unknown routine %q (auto | partitioned | sort-spill)", s)
	}
}

// Limits bounds what DecodeRequest accepts. The zero value selects the
// defaults.
type Limits struct {
	// MaxBodyBytes caps the request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxInlineRows caps len(Keys) of inline queries (default 65536).
	MaxInlineRows int
	// MaxAggregates caps the requested aggregate count (default 16).
	MaxAggregates int
}

func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = 1 << 20
	}
	if l.MaxInlineRows <= 0 {
		l.MaxInlineRows = 1 << 16
	}
	if l.MaxAggregates <= 0 {
		l.MaxAggregates = 16
	}
	return l
}

// DecodeRequest reads one JSON request from r under the given limits.
// Every failure is a typed *Error with a 4xx status; the decoder never
// panics on hostile input (FuzzServeRequest pins this).
func DecodeRequest(r io.Reader, lim Limits) (*Request, error) {
	lim = lim.withDefaults()
	body, err := io.ReadAll(io.LimitReader(r, lim.MaxBodyBytes+1))
	if err != nil {
		return nil, errf(ErrBadRequest, err, "reading request body: %v", err)
	}
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, errf(ErrRequestTooLarge, nil,
			"request body exceeds %d bytes", lim.MaxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, errf(ErrBadRequest, err, "invalid request JSON: %v", err)
	}
	// Reject trailing garbage after the request object (a second JSON
	// value smells like request smuggling, not sloppiness).
	if err := checkTrailer(dec); err != nil {
		return nil, err
	}
	if err := req.validate(lim); err != nil {
		return nil, err
	}
	return &req, nil
}

func checkTrailer(dec *json.Decoder) error {
	var trailing json.RawMessage
	err := dec.Decode(&trailing)
	if errors.Is(err, io.EOF) {
		return nil
	}
	return errf(ErrBadRequest, nil, "trailing data after request object")
}

func (r *Request) validate(lim Limits) error {
	inline := len(r.Keys) > 0 || len(r.Columns) > 0
	switch {
	case r.Dataset != "" && inline:
		return errf(ErrBadRequest, nil, "request sets both dataset and inline keys")
	case r.Dataset == "" && len(r.Keys) == 0:
		return errf(ErrBadRequest, nil, "request needs a dataset name or inline keys")
	}
	if strings.ContainsAny(r.Dataset, " \t\n") {
		return errf(ErrBadRequest, nil, "dataset name contains whitespace")
	}
	if len(r.Keys) > lim.MaxInlineRows {
		return errf(ErrBadRequest, nil,
			"inline keys exceed %d rows", lim.MaxInlineRows)
	}
	for i, col := range r.Columns {
		if len(col) != len(r.Keys) {
			return errf(ErrBadRequest, nil,
				"column %d has %d rows, keys have %d", i, len(col), len(r.Keys))
		}
	}
	if len(r.Aggregates) > lim.MaxAggregates {
		return errf(ErrBadRequest, nil,
			"%d aggregates exceed the limit of %d", len(r.Aggregates), lim.MaxAggregates)
	}
	if _, err := parsePriority(r.Priority); err != nil {
		return errf(ErrBadRequest, nil, "%v", err)
	}
	if err := checkRoutine(r.Routine); err != nil {
		return errf(ErrBadRequest, nil, "%v", err)
	}
	if r.DeadlineMillis < 0 {
		return errf(ErrBadRequest, nil, "negative deadline_ms %d", r.DeadlineMillis)
	}
	for i, a := range r.Aggregates {
		if _, err := parseFunc(a.Func); err != nil {
			return errf(ErrBadRequest, nil, "aggregate %d: %v", i, err)
		}
		if a.Col < 0 {
			return errf(ErrBadRequest, nil, "aggregate %d: negative column %d", i, a.Col)
		}
	}
	return nil
}

// aggSpecs converts the wire aggregates to operator specs. Column bounds
// against the actual input width are checked by the caller (the width of
// a dataset is not known to the decoder).
func (r *Request) aggSpecs() []cacheagg.AggSpec {
	specs := make([]cacheagg.AggSpec, len(r.Aggregates))
	for i, a := range r.Aggregates {
		f, _ := parseFunc(a.Func) // validated in DecodeRequest
		specs[i] = cacheagg.AggSpec{Func: f, Col: a.Col}
	}
	return specs
}

// priority returns the validated admission class.
func (r *Request) priority() Priority {
	p, _ := parsePriority(r.Priority) // validated in DecodeRequest
	return p
}
