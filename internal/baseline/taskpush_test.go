package baseline

import (
	"testing"

	"hwgc/internal/gcalgo"
	"hwgc/internal/object"
	"hwgc/internal/workload"
)

func TestSPSCQueueBasics(t *testing.T) {
	q := &spscQueue{items: make([]object.Addr, 4)}
	var sc SyncCounts
	if _, ok := q.pop(&sc); ok {
		t.Fatal("pop from empty queue")
	}
	for i := 1; i <= 4; i++ {
		if !q.push(object.Addr(i), &sc) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if q.push(5, &sc) {
		t.Fatal("push above capacity succeeded")
	}
	for i := 1; i <= 4; i++ {
		a, ok := q.pop(&sc)
		if !ok || a != object.Addr(i) {
			t.Fatalf("pop %d: got %d ok=%v (FIFO order broken)", i, a, ok)
		}
	}
	if !q.empty() {
		t.Fatal("queue not empty after draining")
	}
	// Wrap-around.
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			if !q.push(object.Addr(100+round*3+i), &sc) {
				t.Fatal("wrap push failed")
			}
		}
		for i := 0; i < 3; i++ {
			a, ok := q.pop(&sc)
			if !ok || a != object.Addr(100+round*3+i) {
				t.Fatalf("wrap pop wrong: %d", a)
			}
		}
	}
	if sc.AtomicStores == 0 || sc.AtomicLoads == 0 {
		t.Fatal("queue operations not counted")
	}
}

// TestTaskPushDistributes checks that with more than one worker and a small
// keep-threshold, gray tasks actually flow through the pair queues.
func TestTaskPushDistributes(t *testing.T) {
	c := &taskPush{QueueCap: 64, LABWords: 1024, LocalKeep: 1}
	spec, _ := workload.Get("javacc")
	plan := spec.Plan(1, 3)
	h, err := plan.BuildHeap(2.2)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := gcalgo.Snapshot(h)
	res, err := c.Collect(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := gcalgo.VerifyPreserved(before, h); err != nil {
		t.Fatal(err)
	}
	// SPSC traffic shows up as atomic loads/stores beyond the claim
	// protocol's (≥2 per push/pop pair).
	if res.Sync.AtomicStores < res.LiveObjects {
		t.Fatalf("suspiciously little queue traffic: %+v for %d objects", res.Sync, res.LiveObjects)
	}
}

func TestTaskPushSingleWorker(t *testing.T) {
	c := &taskPush{}
	spec, _ := workload.Get("jlisp")
	h, _ := spec.Plan(1, 4).BuildHeap(2.2)
	before, _ := gcalgo.Snapshot(h)
	if _, err := c.Collect(h, 1); err != nil {
		t.Fatal(err)
	}
	if err := gcalgo.VerifyPreserved(before, h); err != nil {
		t.Fatal(err)
	}
}
