package job

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestFeedClosedImpliesFinished: a subscriber woken by its channel
// closing already sees the job finished, so the final status it reads is
// terminal, never "running".
func TestFeedClosedImpliesFinished(t *testing.T) {
	for i := 0; i < 2000; i++ {
		f := NewFeed[int]()
		subs := make([]<-chan int, 16)
		for k := range subs {
			subs[k], _ = f.Subscribe()
		}
		go f.Close()
		for _, ch := range subs {
			for range ch {
			}
			if !f.Finished() {
				t.Fatalf("iteration %d: a subscription closed before the feed reported finished", i)
			}
		}
	}
}

type fakeJob struct{ done chan struct{} }

func (j fakeJob) Finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// TestManagerErrorsNameTheKind: a busy or closed manager words its error
// for its job kind, and a busy error still matches ErrBusy.
func TestManagerErrorsNameTheKind(t *testing.T) {
	m := NewManager[fakeJob](1, "opt", "searches")
	live := fakeJob{done: make(chan struct{})}
	run := func(context.Context, fakeJob) {}
	if _, _, err := m.Start("a", func() fakeJob { return live }, run); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.Start("b", func() fakeJob { return fakeJob{} }, run)
	if !errors.Is(err, ErrBusy) || err.Error() != "opt: too many active searches" {
		t.Errorf("busy: got %v, want ErrBusy worded for searches", err)
	}
	close(live.done)
	m.Close()
	if _, _, err := m.Start("b", func() fakeJob { return fakeJob{} }, run); err == nil || !strings.HasPrefix(err.Error(), "opt: manager closed") {
		t.Errorf("closed: got %v", err)
	}
}
