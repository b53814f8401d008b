package main

import (
	"context"
	"net/http"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/modis"
)

// archiveProbe is the http.Handler the benchmark wraps around the
// laads archive. While a log is attached it records every request;
// otherwise it only forwards.
type archiveProbe struct {
	next http.Handler
	log  atomic.Pointer[archiveLog]
}

// archiveReq is one archive request as the handler saw it.
type archiveReq struct {
	granule    int // -1 for a listing
	start, end time.Time
	bytes      int64
}

type archiveLog struct {
	mu   sync.Mutex
	reqs []archiveReq
}

func (l *archiveLog) all() []archiveReq {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]archiveReq(nil), l.reqs...)
}

func (p *archiveProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	log := p.log.Load()
	if log == nil {
		p.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	p.next.ServeHTTP(cw, r)
	req := archiveReq{granule: -1, start: start, end: time.Now(), bytes: cw.n}
	if _, g, err := modis.ParseFileName(path.Base(r.URL.Path)); err == nil {
		req.granule = g.Index
	}
	log.mu.Lock()
	log.reqs = append(log.reqs, req)
	log.mu.Unlock()
}

// countingWriter counts body bytes and keeps the Flush the archive's
// bandwidth shaping relies on.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// lease is one transport round-trip from the coordinator to a worker.
type lease struct {
	start, end time.Time
	specs      []fleet.TaskSpec
}

// timedTransport decorates the coordinator's HTTP transport, timing
// every lease round-trip. It implements fleet.BatchTransport so the
// coordinator keeps batching.
type timedTransport struct {
	next *fleet.HTTPTransport

	mu     sync.Mutex
	leases []lease
}

func (t *timedTransport) record(l lease) {
	t.mu.Lock()
	t.leases = append(t.leases, l)
	t.mu.Unlock()
}

func (t *timedTransport) all() []lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]lease(nil), t.leases...)
}

// Run implements fleet.Transport.
func (t *timedTransport) Run(ctx context.Context, workerURL, function string, args map[string]any) (any, error) {
	start := time.Now()
	res, err := t.next.Run(ctx, workerURL, function, args)
	t.record(lease{start: start, end: time.Now(), specs: []fleet.TaskSpec{{Function: function, Args: args}}})
	return res, err
}

// RunBatch implements fleet.BatchTransport.
func (t *timedTransport) RunBatch(ctx context.Context, workerURL string, specs []fleet.TaskSpec) ([]fleet.TaskResult, error) {
	start := time.Now()
	res, err := t.next.RunBatch(ctx, workerURL, specs)
	t.record(lease{start: start, end: time.Now(), specs: specs})
	return res, err
}

// gaugeSample is one reading of the live registries.
type gaugeSample struct {
	queued, busy     float64
	hasExecutor      bool
	prefetchInflight float64
}

// sampler reads the run's and the workers' live registries on a fixed
// period, for gauges whose final value says nothing about the run.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []gaugeSample // written by the sampling goroutine until done closes
}

// samplePeriod is the gauge sampling period of traced runs.
const samplePeriod = 5 * time.Millisecond

// startSampler samples run (parsl executor gauges) and workers
// (prefetch gauges) until stopped.
func startSampler(run *metrics.Registry, workers []*metrics.Registry) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			var g gaugeSample
			fams := run.Snapshot()
			var ok bool
			g.queued, ok = familySum(fams, "eoml_executor_queued_tasks")
			g.busy, _ = familySum(fams, "eoml_executor_busy_workers")
			g.hasExecutor = ok
			for _, w := range workers {
				v, _ := familySum(w.Snapshot(), "eoml_fleet_prefetch_inflight")
				g.prefetchInflight += v
			}
			s.samples = append(s.samples, g)
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *sampler) finish() []gaugeSample {
	close(s.stop)
	<-s.done
	return s.samples
}

// familySum adds the values of every series of a counter or gauge
// family; ok is false when the family is absent.
func familySum(fams []metrics.Family, name string) (float64, bool) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		sum := 0.0
		for _, s := range f.Series {
			sum += s.Value
		}
		return sum, true
	}
	return 0, false
}

// labeledValue is the value of the series of family name carrying
// label key=value; 0 when absent.
func labeledValue(fams []metrics.Family, name, key, value string) float64 {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Key == key && l.Value == value {
					return s.Value
				}
			}
		}
	}
	return 0
}

// histTotals adds sum and count over every series of histogram family
// name.
func histTotals(fams []metrics.Family, name string) (sum, count float64) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Histogram != nil {
				sum += s.Histogram.Sum
				count += float64(s.Histogram.Count)
			}
		}
	}
	return sum, count
}
