package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestReloadRetriesTransientFailure: the failure a checkpoint watcher
// actually hits is a file caught mid-replace, which heals on its own —
// Reload must retry through it and swap once the read succeeds.
func TestReloadRetriesTransientFailure(t *testing.T) {
	calls := 0
	s, _ := newTestServer(t, Config{
		Engine: &stubClassifier{},
		InC:    1, InH: 2, InW: 2,
		Reload: func() (Classifier, error) {
			calls++
			if calls < 3 {
				return nil, fmt.Errorf("torn write")
			}
			return &stubClassifier{}, nil
		},
		ReloadRetries: 3,
		ReloadBackoff: time.Millisecond,
	})
	v, err := s.Reload()
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if v != 2 {
		t.Errorf("model version = %d, want 2", v)
	}
	if calls != 3 {
		t.Errorf("reload function called %d times, want 3", calls)
	}
}

func TestReloadExhaustsRetries(t *testing.T) {
	calls := 0
	s, _ := newTestServer(t, Config{
		Engine: &stubClassifier{},
		InC:    1, InH: 2, InW: 2,
		Reload: func() (Classifier, error) {
			calls++
			return nil, fmt.Errorf("checkpoint missing")
		},
		ReloadRetries: 2,
		ReloadBackoff: time.Millisecond,
	})
	_, err := s.Reload()
	if err == nil || !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("err = %v, want an error naming 3 attempts", err)
	}
	if calls != 3 {
		t.Errorf("reload function called %d times, want 3", calls)
	}
}

// TestReloadRecoversPanic: a reload function that panics (a decoder
// tripping on a corrupt checkpoint) must not take the server down. The
// panic is an attempt error, retried like any other, and the old engine
// keeps serving.
func TestReloadRecoversPanic(t *testing.T) {
	calls := 0
	s, _ := newTestServer(t, Config{
		Engine: &stubClassifier{},
		InC:    1, InH: 2, InW: 2,
		Reload: func() (Classifier, error) {
			calls++
			panic("corrupt checkpoint")
		},
		ReloadRetries: 1,
		ReloadBackoff: time.Millisecond,
	})
	_, err := s.Reload()
	if err == nil || !strings.Contains(err.Error(), "serve: reload panicked: corrupt checkpoint") {
		t.Errorf("err = %v, want the recovered panic", err)
	}
	if calls != 2 {
		t.Errorf("reload function called %d times, want 2", calls)
	}
	if v := s.engine.Load().version; v != 1 {
		t.Errorf("model version = %d, want the original engine (1)", v)
	}
}

// TestReloadSwapErrorNotRetried: a geometry mismatch is permanent — a
// wrong model never fixes itself, so Reload must fail on the first
// attempt rather than burn the retry budget.
func TestReloadSwapErrorNotRetried(t *testing.T) {
	calls := 0
	s, _ := newTestServer(t, Config{
		Engine: &stubClassifier{},
		InC:    3, InH: 8, InW: 8,
		Reload: func() (Classifier, error) {
			calls++
			return &shapedStub{}, nil // reports (1, 2, 2)
		},
		ReloadRetries: 3,
		ReloadBackoff: time.Millisecond,
	})
	_, err := s.Reload()
	if err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Errorf("err = %v, want a geometry error", err)
	}
	if calls != 1 {
		t.Errorf("reload function called %d times, want 1 (Swap errors are permanent)", calls)
	}
}
