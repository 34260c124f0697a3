package params

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestChecks(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		bad  bool
	}{
		{"eps ok", CheckEpsilon(0.05), false},
		{"eps zero", CheckEpsilon(0), true},
		{"eps one", CheckEpsilon(1), true},
		{"eps negative", CheckEpsilon(-0.1), true},
		{"eps nan", CheckEpsilon(nan()), true},
		{"delta ok", CheckDelta(0.01), false},
		{"delta too big", CheckDelta(1.5), true},
		{"pair ok", CheckEpsDelta(0.1, 0.1), false},
		{"pair bad eps", CheckEpsDelta(2, 0.1), true},
		{"pair bad delta", CheckEpsDelta(0.1, 0), true},
		{"k ok", CheckK(1), false},
		{"k zero", CheckK(0), true},
		{"k max", CheckK(math.MaxUint32), false},
		{"k above uint32", CheckK(math.MaxUint32 + 1), true},
		{"targets ok", CheckTargets([]int32{0, 4}, 5), false},
		{"targets empty", CheckTargets([]int32{}, 5), true},
		{"targets negative", CheckTargets([]int32{-1}, 5), true},
		{"targets high", CheckTargets([]int32{5}, 5), true},
	} {
		if got := tc.err != nil; got != tc.bad {
			t.Errorf("%s: err = %v, want bad=%v", tc.name, tc.err, tc.bad)
		}
		if tc.bad && !IsBadInput(tc.err) {
			t.Errorf("%s: error is not classified as bad input", tc.name)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestErrorChainClassification(t *testing.T) {
	wrapped := fmt.Errorf("kpath: %w", CheckK(0))
	if !IsBadInput(wrapped) {
		t.Error("wrapped params error not recognized")
	}
	var pe *Error
	if !errors.As(wrapped, &pe) || pe.Field != "k" {
		t.Errorf("field = %q, want k", pe.Field)
	}
	if IsBadInput(errors.New("disk on fire")) {
		t.Error("unrelated error classified as bad input")
	}
}

// TestCanceledError: the cancellation marker unwraps to the context cause,
// is distinguishable from bad input, and Interrupted is nil on a live ctx.
func TestCanceledError(t *testing.T) {
	if err := Interrupted(context.Background()); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Interrupted(ctx)
	if err == nil || !IsCanceled(err) {
		t.Fatalf("canceled ctx: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("cancellation does not unwrap to context.Canceled")
	}
	if IsBadInput(err) {
		t.Fatal("a cancellation classified as bad input")
	}
	wrapped := fmt.Errorf("core: %w", err)
	if !IsCanceled(wrapped) || !errors.Is(wrapped, context.Canceled) {
		t.Fatal("wrapping hides the cancellation")
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 0)
	defer dcancel()
	<-dctx.Done()
	derr := Interrupted(dctx)
	if !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("deadline cancellation is %v, want DeadlineExceeded in chain", derr)
	}
	if IsCanceled(nil) {
		t.Fatal("nil is canceled")
	}
}
