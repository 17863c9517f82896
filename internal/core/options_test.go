package core

import (
	"context"
	"testing"
)

// TestRunOptionResolvers covers the option plumbing job-service layers
// read back out of an option list.
func TestRunOptionResolvers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if got := ContextOf(WithContext(ctx)); got != ctx {
		t.Fatal("ContextOf did not return the attached context")
	}
	if got := ContextOf(); got != nil {
		t.Fatalf("ContextOf() = %v, want nil", got)
	}
	if got := ShotsOf(WithShots(384)); got != 384 {
		t.Fatalf("ShotsOf = %d, want 384", got)
	}
	if got := ShotsOf(); got != 0 {
		t.Fatalf("ShotsOf() = %d, want 0", got)
	}
}
