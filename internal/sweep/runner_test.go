package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hwgc"
)

// fakeRunner is a scripted PointRunner. Every run of a lost runner loses its
// execution at once; otherwise a run blocks until its key is released (then
// it returns the point's real simulated result) or its context ends.
type fakeRunner struct {
	lost bool

	mu      sync.Mutex
	runs    map[string]int
	cancels map[string]int
	gates   map[string]chan struct{}
}

func newFakeRunner(lost bool) *fakeRunner {
	return &fakeRunner{lost: lost, runs: map[string]int{}, cancels: map[string]int{}, gates: map[string]chan struct{}{}}
}

func (f *fakeRunner) gate(key string) chan struct{} {
	if f.gates[key] == nil {
		f.gates[key] = make(chan struct{})
	}
	return f.gates[key]
}

// release lets every present and future run of key complete.
func (f *fakeRunner) release(key string) {
	f.mu.Lock()
	close(f.gate(key))
	f.mu.Unlock()
}

func (f *fakeRunner) counts(key string) (runs, cancels int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs[key], f.cancels[key]
}

func (f *fakeRunner) Class(name string) (string, error) { return name, nil }

func (f *fakeRunner) Cached(string) ([]byte, bool) { return nil, false }

func (f *fakeRunner) Run(ctx context.Context, _ string, p hwgc.SweepPoint) ([]byte, bool, error) {
	f.mu.Lock()
	f.runs[p.Key]++
	fresh := f.runs[p.Key] == 1
	gate := f.gate(p.Key)
	f.mu.Unlock()
	if f.lost {
		return nil, fresh, fmt.Errorf("%w: scripted", ErrLost)
	}
	select {
	case <-ctx.Done():
		return nil, fresh, ctx.Err()
	case <-gate:
	}
	resp, err := hwgc.NewCollectResponse(p.Req)
	if err != nil {
		return nil, fresh, err
	}
	var b bytes.Buffer
	if err := resp.Encode(&b); err != nil {
		return nil, fresh, err
	}
	return b.Bytes(), fresh, nil
}

func (f *fakeRunner) Cancel(key string) {
	f.mu.Lock()
	f.cancels[key]++
	f.mu.Unlock()
}

// A point whose execution keeps getting lost is resubmitted exactly
// maxPointResubmits times, then fails.
func TestCoordinatorResubmitBound(t *testing.T) {
	r := newFakeRunner(true)
	c := NewWithRunner(r)
	defer c.Close()
	info, accepted, err := c.Submit(testSpace(), "")
	if err != nil || !accepted {
		t.Fatalf("submit: accepted=%v err=%v", accepted, err)
	}
	final := waitSweep(t, c, info.ID, StateDone)
	if final.Failed != 4 || final.Completed != 0 || final.JobsSubmitted != 4 {
		t.Fatalf("final info: %+v", final)
	}
	points, err := testSpace().Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if runs, _ := r.counts(p.Key); runs != maxPointResubmits+1 {
			t.Errorf("point %s ran %d times, want %d", p.Key, runs, maxPointResubmits+1)
		}
	}
	history, _, stop, err := c.Subscribe(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, ev := range history {
		if ev.Type == "point" && !strings.Contains(ev.Error, fmt.Sprintf("after %d resubmits", maxPointResubmits)) {
			t.Errorf("point event error %q", ev.Error)
		}
	}
}

// Cancelling a sweep settles its unshared points at once and stops their
// executions; a point shared with another live sweep keeps running, feeds
// both sweeps, and the cancelled sweep finishes when it settles.
func TestCoordinatorCancelSkipsSharedPoints(t *testing.T) {
	r := newFakeRunner(false)
	c := NewWithRunner(r)
	defer c.Close()

	a, _, err := c.Submit(testSpace(), "") // Cores 1, 2, 4, 8
	if err != nil {
		t.Fatal(err)
	}
	sub := testSpace()
	sub.Axes[0].Values = []int64{1, 2}
	b, _, err := c.Submit(sub, "")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := sub.Points()
	if err != nil {
		t.Fatal(err)
	}
	isShared := map[string]bool{shared[0].Key: true, shared[1].Key: true}

	info, err := c.Cancel(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateRunning || info.Cancelled != 2 {
		t.Fatalf("after cancel: %+v (want the 2 unshared points cancelled, shared ones pending)", info)
	}
	for k := range isShared {
		r.release(k)
	}
	final := waitSweep(t, c, a.ID, StateCancelled)
	if final.Completed != 2 || final.Cancelled != 2 {
		t.Fatalf("cancelled sweep: %+v", final)
	}
	if bfinal := waitSweep(t, c, b.ID, StateDone); bfinal.Completed != 2 {
		t.Fatalf("sharing sweep: %+v", bfinal)
	}
	c.Close() // every driver has exited: the cancel counts are final

	points, err := testSpace().Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		_, cancels := r.counts(p.Key)
		if want := !isShared[p.Key]; (cancels > 0) != want {
			t.Errorf("point %s: cancelled %d times, want cancelled=%v", p.Key, cancels, want)
		}
	}
}
