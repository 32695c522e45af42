// Package serve implements aggserve, the multi-tenant aggregation service:
// a long-lived HTTP/JSONL server running many concurrent query sessions
// over shared datasets on top of the cacheagg operator.
//
// Robustness is the headline, not throughput. The serving layer adds what
// the library deliberately leaves to its caller:
//
//   - admission control driven by one memgov ledger — one global byte
//     budget, a wait for each query's floor (the operator's fixed
//     machinery, no output estimate), a bounded FIFO wait queue with
//     per-class fairness, and typed rejections carrying Retry-After hints
//     (admission.go);
//   - graceful degradation under pressure — running queries share the
//     ledger and spill their largest buckets when it is over budget, and
//     the lowest-priority queued work is shed — instead of failing
//     (admission.go, server.go);
//   - per-request deadlines and client-disconnect cancellation threaded
//     through the operator end to end (server.go);
//   - a byte-bounded LRU result cache with singleflight dedup of
//     identical in-flight queries (cache.go);
//   - panic containment per session, graceful drain on shutdown, and
//     /healthz + /metrics observability (server.go, metrics.go).
//
// See docs/SERVING.md for the protocol, the admission state machine and
// the error taxonomy.
package serve

import (
	"fmt"
	"net/http"
	"time"
)

// Error is the typed failure of a serve-layer operation. Every error the
// service returns to a client is one of these: the Code is machine
// readable (the load harness and scripts assert on it), the Status is the
// HTTP status it maps to, and RetryAfter, when non-zero, tells the client
// when a retry has a chance (sent as a Retry-After header).
//
// Two Errors match under errors.Is when their Codes are equal, so
// sentinel values like ErrAdmissionQueueFull match any derived error that
// carries the same code.
type Error struct {
	Code       string
	Status     int
	RetryAfter time.Duration
	Detail     string
	wrapped    error
}

func (e *Error) Error() string {
	if e.Detail == "" {
		return "serve: " + e.Code
	}
	return "serve: " + e.Code + ": " + e.Detail
}

// Unwrap exposes the cause (an operator error, a context error) to
// errors.Is/As chains.
func (e *Error) Unwrap() error { return e.wrapped }

// Is matches by code, making the sentinels below usable with errors.Is
// against detailed instances.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// The serve error taxonomy. Sentinels carry the code and status; detailed
// instances derived with errf add context and retry hints.
var (
	// ErrBadRequest rejects a syntactically or semantically invalid
	// request (malformed JSON, unknown fields, bad aggregate spec).
	ErrBadRequest = &Error{Code: "bad_request", Status: http.StatusBadRequest}
	// ErrRequestTooLarge rejects a request body over the size limit.
	ErrRequestTooLarge = &Error{Code: "request_too_large", Status: http.StatusRequestEntityTooLarge}
	// ErrUnknownDataset rejects a query naming a dataset the server does
	// not host.
	ErrUnknownDataset = &Error{Code: "unknown_dataset", Status: http.StatusNotFound}
	// ErrAdmissionQueueFull rejects a query because the bounded admission
	// queue is at capacity and the query outranks nothing queued.
	ErrAdmissionQueueFull = &Error{Code: "admission_queue_full", Status: http.StatusServiceUnavailable}
	// ErrBudgetUnavailable rejects a query whose floor exceeds the budget,
	// or could not be reserved within MaxWait.
	ErrBudgetUnavailable = &Error{Code: "budget_unavailable", Status: http.StatusServiceUnavailable}
	// ErrShed rejects queued work evicted to make room for
	// higher-priority arrivals under overload.
	ErrShed = &Error{Code: "shed", Status: http.StatusServiceUnavailable}
	// ErrDraining rejects new work while the server shuts down.
	ErrDraining = &Error{Code: "draining", Status: http.StatusServiceUnavailable}
	// ErrDeadline reports a query that exceeded its deadline (queued or
	// running).
	ErrDeadline = &Error{Code: "deadline_exceeded", Status: http.StatusGatewayTimeout}
	// ErrCancelled reports a query abandoned by its client (disconnect).
	// Status 499 follows the de-facto "client closed request" convention.
	ErrCancelled = &Error{Code: "cancelled", Status: 499}
	// ErrInternal reports an operator failure that is not the client's
	// fault and not retryable by policy.
	ErrInternal = &Error{Code: "internal", Status: http.StatusInternalServerError}
	// ErrPanic reports a contained panic inside one query session. The
	// server survives; the query does not.
	ErrPanic = &Error{Code: "internal_panic", Status: http.StatusInternalServerError}
)

// errf derives a detailed instance of a sentinel, preserving its code and
// status. cause may be nil.
func errf(sentinel *Error, cause error, format string, args ...any) *Error {
	return &Error{
		Code:       sentinel.Code,
		Status:     sentinel.Status,
		RetryAfter: sentinel.RetryAfter,
		Detail:     fmt.Sprintf(format, args...),
		wrapped:    cause,
	}
}

// withRetry stamps a retry hint onto a copy of err.
func withRetry(err *Error, after time.Duration) *Error {
	e := *err
	e.RetryAfter = after
	return &e
}
