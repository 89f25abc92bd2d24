package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"hwgc"
	"hwgc/internal/jobs"
)

// Sentinel errors for the coordinator's lookup methods.
var (
	// ErrNotFound reports an unknown sweep ID.
	ErrNotFound = errors.New("sweep: no such sweep")
	// ErrTerminal reports a cancel of an already-finished sweep.
	ErrTerminal = errors.New("sweep: sweep already in a terminal state")
	// ErrUnknownClass reports a job class the execution tier does not serve.
	ErrUnknownClass = errors.New("sweep: unknown class")
)

// auxSweepTag and auxCancelTag are the jobs-WAL aux record tags the
// coordinator persists sweep lifecycle under: one "sweep" record per
// accepted space (payload: auxSweep), one "sweep-cancel" record per DELETE.
// Replaying them in order rebuilds every sweep across a restart without a
// second log.
const (
	auxSweepTag  = "sweep"
	auxCancelTag = "sweep-cancel"
)

// auxSweep is the durable payload of one accepted sweep.
type auxSweep struct {
	Space json.RawMessage // canonical SweepSpace bytes
	Class string          `json:",omitempty"`
}

// maxPointResubmits bounds how often a point whose execution was lost — its
// job cancelled by another client, migrated away, or forgotten by a backend
// that died before its WAL record landed — is resubmitted before the point
// is declared failed. Submission is idempotent on the content key, so a
// resubmit never duplicates work that still exists anywhere; the bound only
// rules out a livelock against a client cancelling in a loop.
const maxPointResubmits = 16

// Options configures a Coordinator over this node's job tier.
type Options struct {
	// Jobs executes the points and journals the sweeps. Required.
	Jobs *jobs.Manager
	// Lookup consults the serving tier's result cache before submitting a
	// point as a job; a hit completes the point instantly (marked deduped).
	// Optional.
	Lookup func(key string) ([]byte, bool)
	// Clock overrides time.Now for event and Info timestamps (tests).
	Clock func() time.Time
}

// Coordinator owns a sweep table: it plans spaces, completes points the
// execution tier already holds, drives the rest through its PointRunner
// (one goroutine per outstanding point, resubmitting lost executions), and
// maintains each sweep's frontier and event stream. gcserved runs one over
// its job tier, journaling submissions and cancellations as jobs-WAL aux
// records so Recover rebuilds mid-flight sweeps after a crash; gcfleet runs
// one over the backend ring with no journal of its own.
type Coordinator struct {
	runner  PointRunner
	wal     *jobs.Manager // aux-record journal; nil keeps sweeps in memory only
	clock   func() time.Time
	metrics *Metrics

	ctx   context.Context // ends on Close; every point driver derives from it
	close context.CancelFunc
	wg    sync.WaitGroup // point drivers

	mu     sync.Mutex
	sweeps map[string]*entry
}

// entry is one sweep in the table: its tracker plus the cancel function of
// each point's driver (nil for points that never needed one).
type entry struct {
	t      *tracker
	cancel []context.CancelFunc
}

// New returns a Coordinator that runs points as jobs on opts.Jobs. Call
// Recover to replay persisted sweeps, and Close before shutting the job
// manager down.
func New(opts Options) (*Coordinator, error) {
	if opts.Jobs == nil {
		return nil, fmt.Errorf("sweep: Options.Jobs is required")
	}
	return newCoordinator(&localRunner{jobs: opts.Jobs, lookup: opts.Lookup}, opts.Jobs, opts.Clock), nil
}

// NewWithRunner returns a Coordinator that runs points through r and keeps
// its sweep table in memory only.
func NewWithRunner(r PointRunner) *Coordinator {
	return newCoordinator(r, nil, nil)
}

func newCoordinator(r PointRunner, wal *jobs.Manager, clock func() time.Time) *Coordinator {
	if clock == nil {
		clock = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Coordinator{
		runner: r, wal: wal, clock: clock, metrics: NewMetrics(),
		ctx: ctx, close: cancel, sweeps: make(map[string]*entry),
	}
}

// Submit plans and launches the sweep described by space. The sweep ID is
// the content address of the canonical space, so resubmitting an identical
// space dedupes onto the live (or finished) sweep — accepted is false and
// zero new jobs are created. A superset space gets a new ID but its
// already-computed points dedupe point-by-point against the execution tier,
// running only the delta.
func (c *Coordinator) Submit(space *hwgc.SweepSpace, class string) (Info, bool, error) {
	canonical, err := space.CanonicalJSON()
	if err != nil {
		return Info{}, false, err
	}
	id := hwgc.KeyBytes(canonical)
	if class, err = c.runner.Class(class); err != nil {
		return Info{}, false, err
	}
	points, err := space.Points()
	if err != nil {
		return Info{}, false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.sweeps[id]; ok {
		c.metrics.sweepsDeduped.Add(1)
		return e.t.Info(), false, nil
	}
	if c.ctx.Err() != nil {
		return Info{}, false, jobs.ErrDraining
	}
	// Durable before visible: the aux record is fsynced before the sweep
	// exists anywhere a client could observe it, so recovery never misses
	// an acknowledged sweep.
	if c.wal != nil {
		payload, err := json.Marshal(auxSweep{Space: canonical, Class: class})
		if err != nil {
			return Info{}, false, err
		}
		if err := c.wal.AppendAux(auxSweepTag, id, payload); err != nil {
			return Info{}, false, err
		}
	}
	e := c.addLocked(id, space, class, points)
	c.launchLocked(e)
	return e.t.Info(), true, nil
}

// addLocked registers a freshly planned sweep. Caller holds c.mu.
func (c *Coordinator) addLocked(id string, space *hwgc.SweepSpace, class string, points []hwgc.SweepPoint) *entry {
	e := &entry{
		t:      newTracker(id, space, class, points, c.metrics, c.clock),
		cancel: make([]context.CancelFunc, len(points)),
	}
	c.sweeps[id] = e
	return e
}

// launchLocked completes every pending point the execution tier already
// holds and starts a driver for each of the rest. Caller holds c.mu.
func (c *Coordinator) launchLocked(e *entry) {
	for i, p := range e.t.Points {
		if !e.t.PointPending(i) {
			continue
		}
		if body, ok := c.runner.Cached(p.Key); ok {
			if outcome, err := decodeOutcome(i, p, body); err == nil {
				e.t.CompletePoint(i, outcome, true)
				continue
			}
			// An undecodable cached body falls through to a fresh execution.
		}
		ctx, cancel := context.WithCancel(c.ctx)
		e.cancel[i] = cancel
		c.wg.Add(1)
		go c.drive(ctx, cancel, e.t, i)
	}
}

// decodeOutcome parses a point's encoded CollectResponse body.
func decodeOutcome(index int, p hwgc.SweepPoint, body []byte) (PointOutcome, error) {
	var resp hwgc.CollectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return PointOutcome{}, err
	}
	return PointOutcome{Index: index, Key: p.Key, Req: p.Req, Result: resp.Result}, nil
}

// drive runs one point through the runner until the tracker takes a
// terminal transition for it, resubmitting (bounded) while its execution
// keeps getting lost. A point completes as deduped when none of its runs
// started a fresh execution.
func (c *Coordinator) drive(ctx context.Context, cancel context.CancelFunc, t *tracker, index int) {
	defer c.wg.Done()
	defer cancel()
	p := t.Points[index]
	deduped := true
	for attempt := 1; ; attempt++ {
		body, fresh, err := c.runner.Run(ctx, t.Class, p)
		c.mu.Lock()
		if fresh {
			deduped = false
			t.NoteJobSubmitted()
		}
		switch {
		case !t.PointPending(index):
			// Cancel settled the point and stopped this driver; stop the
			// execution too.
			c.mu.Unlock()
			c.runner.Cancel(p.Key)
			return
		case ctx.Err() != nil:
			// Close: the point stays pending, and Recover resumes it.
		case err == nil:
			if outcome, derr := decodeOutcome(index, p, body); derr != nil {
				t.FailPoint(index, derr.Error())
			} else {
				t.CompletePoint(index, outcome, deduped)
			}
		case !errors.Is(err, ErrLost):
			t.FailPoint(index, err.Error())
		case t.CancelRequested():
			// A point this cancelled sweep shared with another live sweep
			// lost its execution: nothing is left to wait for.
			t.CancelPoint(index)
		case attempt > maxPointResubmits:
			t.FailPoint(index, fmt.Sprintf("%v after %d resubmits", err, maxPointResubmits))
		default:
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()
		return
	}
}

// Recover replays the persisted sweep records and relaunches every
// non-cancelled sweep. Points whose jobs completed before the crash (or
// whose results the cache still holds) dedupe instantly, so only genuinely
// unfinished work runs again. Call once, before serving traffic.
func (c *Coordinator) Recover() error {
	if c.wal == nil {
		return nil
	}
	type rec struct {
		space     *hwgc.SweepSpace
		class     string
		cancelled bool
	}
	table := make(map[string]*rec)
	var order []string
	for _, a := range c.wal.AuxRecords("") {
		switch a.Tag {
		case auxSweepTag:
			if _, dup := table[a.ID]; dup {
				continue
			}
			var ax auxSweep
			if err := json.Unmarshal(a.Payload, &ax); err != nil {
				return fmt.Errorf("sweep: aux record %s: %w", a.ID, err)
			}
			sp, err := hwgc.DecodeSweepSpace(bytes.NewReader(ax.Space))
			if err != nil {
				return fmt.Errorf("sweep: aux record %s: %w", a.ID, err)
			}
			table[a.ID] = &rec{space: sp, class: ax.Class}
			order = append(order, a.ID)
		case auxCancelTag:
			if r, ok := table[a.ID]; ok {
				r.cancelled = true
			}
		}
	}
	for _, id := range order {
		r := table[id]
		class, err := c.runner.Class(r.class)
		if err != nil {
			class, _ = c.runner.Class("")
		}
		points, err := r.space.Points()
		if err != nil {
			return fmt.Errorf("sweep: recovering %s: %w", id, err)
		}
		c.mu.Lock()
		if _, dup := c.sweeps[id]; dup {
			c.mu.Unlock()
			continue
		}
		e := c.addLocked(id, r.space, class, points)
		if r.cancelled {
			// The DELETE was durable: rebuild the sweep as cancelled without
			// touching the job tier. Completed results are not re-attached —
			// the record of interest for a cancelled sweep is its state.
			e.t.MarkCancelRequested()
			for i := range points {
				e.t.CancelPoint(i)
			}
		} else {
			c.launchLocked(e)
		}
		c.mu.Unlock()
	}
	return nil
}

// Get returns one sweep's progress snapshot.
func (c *Coordinator) Get(id string) (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.sweeps[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	return e.t.Info(), nil
}

// Cancel cancels a sweep: the cancellation is journaled, every pending
// point not shared with another live sweep settles as cancelled at once
// (its driver then stops the point's execution), and the sweep reaches the
// cancelled state when its shared points settle too. Terminal sweeps
// return ErrTerminal with their final Info.
func (c *Coordinator) Cancel(id string) (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.sweeps[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	if e.t.Terminal() {
		return e.t.Info(), ErrTerminal
	}
	if c.wal != nil {
		if err := c.wal.AppendAux(auxCancelTag, id, nil); err != nil {
			return Info{}, err
		}
	}
	e.t.MarkCancelRequested()
	// A point feeding another live sweep must keep running; cancelling it
	// would fail a sweep the client did not touch.
	shared := make(map[string]bool)
	for oid, o := range c.sweeps {
		if oid == id || o.t.Terminal() {
			continue
		}
		for _, k := range o.t.PendingKeys() {
			shared[k] = true
		}
	}
	for i, p := range e.t.Points {
		if !e.t.PointPending(i) || shared[p.Key] {
			continue
		}
		e.t.CancelPoint(i)
		if cancel := e.cancel[i]; cancel != nil {
			cancel()
		}
	}
	return e.t.Info(), nil
}

// Subscribe returns a sweep's replayable event history plus a live channel
// (nil when the sweep is already terminal). The returned stop function
// detaches the subscription.
func (c *Coordinator) Subscribe(id string) ([]Event, <-chan Event, func(), error) {
	c.mu.Lock()
	e, ok := c.sweeps[id]
	c.mu.Unlock()
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	history, ch, stop := e.t.Events.Subscribe()
	return history, ch, stop, nil
}

// Close stops every point driver and ends every event stream. Points left
// pending stay journaled (when the coordinator has a journal); the next
// Recover resumes them.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.close()
	c.mu.Unlock()
	c.wg.Wait()
}

// WriteMetrics writes every gcsweep_* Prometheus series to w.
func (c *Coordinator) WriteMetrics(w io.Writer) error {
	return c.metrics.WritePrometheus(w)
}
