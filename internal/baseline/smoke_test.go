package baseline

import (
	"testing"

	"hwgc/internal/gcalgo"
	"hwgc/internal/workload"
)

func TestBaselinesSmoke(t *testing.T) {
	for _, name := range Names() {
		for _, workers := range []int{1, 4} {
			c, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec, _ := workload.Get("db")
			plan := spec.Plan(1, 7)
			h, err := plan.BuildHeap(2.2)
			if err != nil {
				t.Fatal(err)
			}
			before, err := gcalgo.Snapshot(h)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Collect(h, workers)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, workers, err)
			}
			if err := gcalgo.VerifyPreserved(before, h); err != nil {
				t.Fatalf("%s/%d: %v", name, workers, err)
			}
			liveObj, _ := plan.LiveStats()
			if res.LiveObjects != int64(liveObj) {
				t.Errorf("%s/%d: live=%d want %d", name, workers, res.LiveObjects, liveObj)
			}
			t.Logf("%s/%d: %v, sync/obj=%.1f waste=%d", name, workers, res.Elapsed,
				float64(res.Sync.Total())/float64(res.LiveObjects), res.WastedWords)
		}
	}
}
