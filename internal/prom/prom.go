// Package prom writes metric families in the Prometheus text exposition
// format, for every tier's /metrics scrape. A Set is an ordered list of
// families registered once at construction; Write renders each family as
// one block — its HELP and TYPE lines, then all of its samples — so a
// scrape of several sets is well formed by construction.
//
// Counters and gauges read an atomic.Int64 the owner bumps directly, so the
// hot path is one atomic add. Labelled families are listed by a callback at
// scrape time (a CounterVec for counted label values, live state for
// gauges), and summaries wrap a stats.Hist under its own mutex. Integer
// values are written as %d and floats as %g; label values are quoted as %q.
package prom

import (
	"io"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hwgc/internal/stats"
)

// Set is an ordered list of metric families. The zero value is empty and
// ready to use; register every family before the first scrape.
type Set struct {
	fams []family
}

type family struct {
	name, help, typ string
	samples         func(b []byte) []byte // appends the family's sample lines
}

func (s *Set) add(name, help, typ string, samples func([]byte) []byte) {
	s.fams = append(s.fams, family{name: name, help: help, typ: typ, samples: samples})
}

// Counter registers a counter family that reads v.
func (s *Set) Counter(name, help string, v *atomic.Int64) { s.intFamily(name, help, "counter", v.Load) }

// Gauge registers a gauge family that reads v.
func (s *Set) Gauge(name, help string, v *atomic.Int64) { s.intFamily(name, help, "gauge", v.Load) }

// GaugeFunc registers a gauge family whose value f computes at scrape time.
func (s *Set) GaugeFunc(name, help string, f func() int64) { s.intFamily(name, help, "gauge", f) }

func (s *Set) intFamily(name, help, typ string, f func() int64) {
	s.add(name, help, typ, func(b []byte) []byte {
		return appendInt(series(b, name, nil, nil), f())
	})
}

// GaugeFloat registers a gauge family whose float value f computes at
// scrape time.
func (s *Set) GaugeFloat(name, help string, f func() float64) {
	s.add(name, help, "gauge", func(b []byte) []byte {
		return appendFloat(series(b, name, nil, nil), f())
	})
}

// Emit reports one sample of a labelled family: its value and one label
// value per label name.
type Emit func(v int64, values ...string)

// Labelled registers a family of type typ whose samples collect lists at
// scrape time. Samples are written sorted by label values, and samples with
// equal label values are summed, so one CounterVec can feed families over
// different subsets of its key.
func (s *Set) Labelled(name, help, typ string, labels []string, collect func(Emit)) {
	type sample struct {
		values []string
		v      int64
	}
	s.add(name, help, typ, func(b []byte) []byte {
		var all []sample
		collect(func(v int64, values ...string) { all = append(all, sample{values, v}) })
		slices.SortStableFunc(all, func(x, y sample) int { return slices.Compare(x.values, y.values) })
		for i := 0; i < len(all); i++ {
			v := all[i].v
			for i+1 < len(all) && slices.Equal(all[i].values, all[i+1].values) {
				i++
				v += all[i].v
			}
			b = appendInt(series(b, name, labels, all[i].values), v)
		}
		return b
	})
}

// Summary registers a summary family over sum: the given quantiles, the sum
// and the count of its observations, in seconds.
func (s *Set) Summary(name, help string, sum *Summary, quantiles ...float64) {
	labels := []string{"quantile"}
	s.add(name, help, "summary", func(b []byte) []byte {
		sum.mu.Lock()
		h := sum.h
		sum.mu.Unlock()
		for _, q := range quantiles {
			b = appendFloat(series(b, name, labels, []string{strconv.FormatFloat(q, 'g', -1, 64)}), h.Quantile(q))
		}
		b = appendFloat(series(b, name+"_sum", nil, nil), h.Sum().Seconds())
		return appendInt(series(b, name+"_count", nil, nil), h.Count())
	})
}

// Write writes every family of sets, in order, to w in one write.
func Write(w io.Writer, sets ...*Set) error {
	var b []byte
	for _, s := range sets {
		for _, f := range s.fams {
			b = append(b, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.typ+"\n"...)
			b = f.samples(b)
		}
	}
	_, err := w.Write(b)
	return err
}

// series appends a sample line up to its value: the name, the label set
// when there is one, and the separating space.
func series(b []byte, name string, labels, values []string) []byte {
	b = append(b, name...)
	for i, l := range labels {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(b, l...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, values[i])
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	return append(b, ' ')
}

func appendInt(b []byte, v int64) []byte { return append(strconv.AppendInt(b, v, 10), '\n') }

func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

// CounterVec is a set of counters keyed by K, typically a label value or a
// struct of them, formatted only at scrape time. Register it through
// Labelled with a callback over Each. The zero value is ready to use.
type CounterVec[K comparable] struct {
	mu     sync.Mutex
	counts map[K]int64
}

// Inc adds one to k's counter.
func (v *CounterVec[K]) Inc(k K) {
	v.mu.Lock()
	if v.counts == nil {
		v.counts = make(map[K]int64)
	}
	v.counts[k]++
	v.mu.Unlock()
}

// Get returns k's count.
func (v *CounterVec[K]) Get(k K) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.counts[k]
}

// Each calls f with every key counted so far and its count, outside the
// lock.
func (v *CounterVec[K]) Each(f func(k K, n int64)) {
	v.mu.Lock()
	counts := maps.Clone(v.counts)
	v.mu.Unlock()
	for k, n := range counts {
		f(k, n)
	}
}

// Summary is a latency distribution: a stats.Hist under its own mutex. The
// zero value is ready to use.
type Summary struct {
	mu sync.Mutex
	h  stats.Hist
}

// Observe records one sample.
func (m *Summary) Observe(d time.Duration) {
	m.mu.Lock()
	m.h.Observe(d)
	m.mu.Unlock()
}

// Quantile returns the upper-bound q-quantile of the samples so far.
func (m *Summary) Quantile(q float64) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.h.QuantileDuration(q)
}
