package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"civect/sim"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ""},
		{"bad-request-marker", badRequestf("no such knob"), ClassBadRequest},
		{"bad-request-wrapped", fmt.Errorf("outer: %w", badRequestf("no such knob")), ClassBadRequest},
		{"panic", &sim.PanicError{Value: "boom"}, ClassFatal},
		{"panic-wrapped", fmt.Errorf("job: %w", &sim.PanicError{Value: "boom"}), ClassFatal},
		{"canceled", context.Canceled, ClassCanceled},
		{"deadline", fmt.Errorf("run: %w", context.DeadlineExceeded), ClassCanceled},
		{"unknown", errors.New("mystery"), ClassFatal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %q, want %q", tc.name, got, tc.want)
		}
	}
}
