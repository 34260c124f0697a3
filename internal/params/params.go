// Package params centralizes the validation of estimator options. The
// eps/delta/k/target bounds used to be checked ad hoc — or not at all — in
// each estimator entry point; every engine now funnels through the checks
// here, and the errors carry the offending field as structured data so a
// serving layer can classify them (bad request vs internal failure) with
// errors.As instead of string matching. See internal/serve for the consumer
// that motivated the split.
package params

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Error reports an invalid caller-supplied option or target. It is the
// marker the HTTP layer maps to a 400 response: any error in whose chain an
// *Error appears was caused by the request, not by the server.
type Error struct {
	// Field names the offending input ("epsilon", "delta", "k", "targets").
	Field string
	// Msg describes the violated bound, without the field name.
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return "invalid " + e.Field + ": " + e.Msg }

// Errorf builds an *Error for field with a formatted message.
func Errorf(field, format string, args ...any) *Error {
	return &Error{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// IsBadInput reports whether err was caused by invalid caller input — i.e.
// whether an *Error appears in its chain.
func IsBadInput(err error) bool {
	var pe *Error
	return errors.As(err, &pe)
}

// CanceledError reports a computation aborted at a cancellation checkpoint:
// the caller's context was canceled (or its deadline expired) and the engine
// unwound without producing a result. The contract is all-or-nothing — an
// engine either returns a result bitwise-identical to the uncancelled run or
// a *CanceledError, never a partial estimate. Cause is the context's cause
// (context.Canceled or context.DeadlineExceeded unless a cancel cause was
// supplied), so errors.Is(err, context.DeadlineExceeded) distinguishes a
// deadline from an abandonment — the HTTP layer maps the former to 504 and
// the latter to 499 (client closed request); see internal/serve.
type CanceledError struct {
	// Cause is what canceled the computation.
	Cause error
}

// Error implements error.
func (e *CanceledError) Error() string { return "computation canceled: " + e.Cause.Error() }

// Unwrap exposes the cancellation cause to errors.Is/As.
func (e *CanceledError) Unwrap() error { return e.Cause }

// Interrupted is the engines' cancellation checkpoint: it returns a
// *CanceledError when ctx is done and nil otherwise. The nil path is one
// interface call (ctx.Err()), cheap enough for per-round and per-chunk
// polling on the hot paths.
func Interrupted(ctx context.Context) error {
	if ctx.Err() != nil {
		return &CanceledError{Cause: context.Cause(ctx)}
	}
	return nil
}

// IsCanceled reports whether err carries a cancellation — i.e. whether a
// *CanceledError appears in its chain.
func IsCanceled(err error) bool {
	var ce *CanceledError
	return errors.As(err, &ce)
}

// CheckEpsilon validates an additive-error target: eps must be in (0, 1).
// Callers resolve their documented default before calling (a zero value
// means "default", not "invalid").
func CheckEpsilon(eps float64) error {
	if !(eps > 0 && eps < 1) { // negated form rejects NaN too
		return Errorf("epsilon", "must be in (0,1), got %g", eps)
	}
	return nil
}

// CheckDelta validates a failure probability: delta must be in (0, 1).
func CheckDelta(delta float64) error {
	if !(delta > 0 && delta < 1) {
		return Errorf("delta", "must be in (0,1), got %g", delta)
	}
	return nil
}

// CheckEpsDelta validates both sampling parameters.
func CheckEpsDelta(eps, delta float64) error {
	if err := CheckEpsilon(eps); err != nil {
		return err
	}
	return CheckDelta(delta)
}

// CheckK validates a k-path walk length: k must be in [1, 2^32-1]. The
// upper bound is the width of K in the query cache key, so two accepted
// walk lengths never share a key.
func CheckK(k int) error {
	if k < 1 || uint64(k) > math.MaxUint32 {
		return Errorf("k", "must be in [1,%d], got %d", uint32(math.MaxUint32), k)
	}
	return nil
}

// CheckTargets validates a target set against a graph of n nodes: it must
// be non-empty and every node id must be in [0, n). It returns the first
// violation, so estimators can call it before building any index keyed by
// target id.
func CheckTargets[N ~int32 | ~int](targets []N, n int) error {
	if len(targets) == 0 {
		return Errorf("targets", "empty target set")
	}
	for _, v := range targets {
		if int(v) < 0 || int(v) >= n {
			return Errorf("targets", "node %d out of range [0,%d)", v, n)
		}
	}
	return nil
}
